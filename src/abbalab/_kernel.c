/* Compiled form of patient.integrate: steps minutes [m0, m1) of one day.

   A literal transcription of patient._rk4_minute (deriv, the RK4 stages, the
   clamps, the non-finite guard) and of protocol.RescueController.poll, with
   the Python source's parenthesisation, so both give the same bits. That
   only holds when the compiler contracts no multiply-add into an FMA
   (-ffp-contract=off) and when no libm function is called; patient.py
   builds it with those flags and loads it through ctypes.

   c: the 8 patient constants of patient._model_constants.
   k: the fixed constants, in the order of patient._FIXED_CONSTANTS.
   Returns m1; or the minute at which an armed rescue fired (rescue disarmed,
   minute not stepped); or -1 - m when minute m left a non-finite state,
   which is then in y. */

#include <math.h>

static void deriv(const double *c, const double *k, double sens,
                  const double *s, double *out)
{
    const double inv_tm = c[0], inv_tr = c[1], inv_tl = c[2], ra_coef = c[3];
    const double inv_vi = c[4], s_i = c[5], egp = c[6], k_sec = c[7];
    const double inv_tx = k[0], k_e = k[1], s_g = k[2], x_half2 = k[3];
    const double d1 = s[0], d2 = s[1], r1 = s[2], r2 = s[3], l1 = s[4];
    const double l2 = s[5], ip = s[6], x = s[7], g = s[8];

    double u_in = r2 * inv_tr + l2 * inv_tl;
    if (k_sec > 0.0 && g > k[4]) {
        double exc = g - k[4];
        if (exc > k[5])
            exc = k[5];
        u_in += k_sec * exc;
    }
    const double egp_eff = egp * x_half2 / (x_half2 + x * x);
    out[0] = -d1 * inv_tm;
    out[1] = (d1 - d2) * inv_tm;
    out[2] = -r1 * inv_tr;
    out[3] = (r1 - r2) * inv_tr;
    out[4] = -l1 * inv_tl;
    out[5] = (l1 - l2) * inv_tl;
    out[6] = u_in * inv_vi - k_e * ip;
    out[7] = (ip - x) * inv_tx;
    out[8] = egp_eff - s_g * g - sens * s_i * x * g + ra_coef * d2;
}

int abbalab_integrate(double *y, const double *c, const double *k,
                      const double *sens, const double *cho, double *g_out,
                      int m0, int m1, int *armed, double threshold)
{
    double k1[9], k2[9], k3[9], k4[9], t[9];
    const double w = 1.0 / 6.0;

    for (int m = m0; m < m1; m++) {
        if (*armed) {
            if (y[8] < threshold) {
                *armed = 0;
                return m;
            }
        } else if (y[8] >= k[8]) {
            *armed = 1;
        }
        if (cho[m] > 0.0)
            y[0] = y[0] + cho[m];

        deriv(c, k, sens[m], y, k1);
        for (int i = 0; i < 9; i++)
            t[i] = y[i] + 0.5 * k1[i];
        deriv(c, k, sens[m], t, k2);
        for (int i = 0; i < 9; i++)
            t[i] = y[i] + 0.5 * k2[i];
        deriv(c, k, sens[m], t, k3);
        for (int i = 0; i < 9; i++)
            t[i] = y[i] + k3[i];
        deriv(c, k, sens[m], t, k4);
        for (int i = 0; i < 9; i++)
            y[i] += w * (k1[i] + 2.0 * (k2[i] + k3[i]) + k4[i]);

        if (y[8] < k[6])
            y[8] = k[6];
        else if (y[8] > k[7])
            y[8] = k[7];
        for (int i = 0; i < 8; i++)
            if (y[i] < 0.0)
                y[i] = 0.0;

        const double total = y[0] + y[1] + y[2] + y[3] + y[4] + y[5] + y[6]
                             + y[7] + y[8];
        if (total != total || total == INFINITY)
            return -1 - m;
        g_out[m] = y[8];
    }
    return m1;
}
