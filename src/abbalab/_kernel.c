/* Compiled form of patient.integrate: steps minutes [m0, m1) of one day.

   A literal transcription of patient._rk4_minute (deriv, the RK4 stages, the
   clamps, the non-finite guard) and of protocol.RescueController.poll, with
   the Python source's parenthesisation and order of operations, so both give
   the same bits. That only holds when the compiler contracts no multiply-add
   into an FMA (-ffp-contract=off) and when no libm function is called;
   patient.py builds it with those flags and loads it through ctypes.

   c: the 8 patient constants of patient._model_constants.
   k: the fixed constants, in the order of patient._FIXED_CONSTANTS.
   The nine states, the constants and the rescue flag live in locals for the
   whole call; y and *armed are written back once, on return.
   Returns m1; or the minute at which an armed rescue fired (rescue disarmed,
   minute not stepped); or -1 - m when minute m left a non-finite state,
   which is then in y. */

#include <math.h>

typedef struct {
    double d1, d2, r1, r2, l1, l2, ip, x, g;
} state;

typedef struct {
    double inv_tm, inv_tr, inv_tl, ra_coef, inv_vi, s_i, egp, k_sec;
    double inv_tx, k_e, s_g, x_half2, sec_threshold, sec_span;
} model;

static inline state deriv(const model *p, double sens, state s)
{
    double u_in = s.r2 * p->inv_tr + s.l2 * p->inv_tl;
    if (p->k_sec > 0.0 && s.g > p->sec_threshold) {
        double exc = s.g - p->sec_threshold;
        if (exc > p->sec_span)
            exc = p->sec_span;
        u_in += p->k_sec * exc;
    }
    const double egp_eff = p->egp * p->x_half2 / (p->x_half2 + s.x * s.x);
    return (state){
        -s.d1 * p->inv_tm,
        (s.d1 - s.d2) * p->inv_tm,
        -s.r1 * p->inv_tr,
        (s.r1 - s.r2) * p->inv_tr,
        -s.l1 * p->inv_tl,
        (s.l1 - s.l2) * p->inv_tl,
        u_in * p->inv_vi - p->k_e * s.ip,
        (s.ip - s.x) * p->inv_tx,
        egp_eff - p->s_g * s.g - sens * p->s_i * s.x * s.g + p->ra_coef * s.d2,
    };
}

int abbalab_integrate(double *restrict y, const double *restrict c,
                      const double *restrict k, const double *restrict sens,
                      const double *restrict cho, double *restrict g_out,
                      int m0, int m1, int *restrict armed_out, double threshold)
{
    const model p = {c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7],
                     k[0], k[1], k[2], k[3], k[4], k[5]};
    const double floor_g = k[6], ceil_g = k[7], hypo = k[8];
    const double h = 0.5, w = 1.0 / 6.0;
    state s = {y[0], y[1], y[2], y[3], y[4], y[5], y[6], y[7], y[8]};
    int armed = *armed_out, ret = m1;

    for (int m = m0; m < m1; m++) {
        if (armed) {
            if (s.g < threshold) {
                armed = 0;
                ret = m;
                break;
            }
        } else if (s.g >= hypo) {
            armed = 1;
        }
        if (cho[m] > 0.0)
            s.d1 = s.d1 + cho[m];

        const double sn = sens[m];
        const state k1 = deriv(&p, sn, s);
        const state k2 = deriv(&p, sn, (state){
            s.d1 + h * k1.d1, s.d2 + h * k1.d2, s.r1 + h * k1.r1, s.r2 + h * k1.r2,
            s.l1 + h * k1.l1, s.l2 + h * k1.l2, s.ip + h * k1.ip, s.x + h * k1.x,
            s.g + h * k1.g});
        const state k3 = deriv(&p, sn, (state){
            s.d1 + h * k2.d1, s.d2 + h * k2.d2, s.r1 + h * k2.r1, s.r2 + h * k2.r2,
            s.l1 + h * k2.l1, s.l2 + h * k2.l2, s.ip + h * k2.ip, s.x + h * k2.x,
            s.g + h * k2.g});
        const state k4 = deriv(&p, sn, (state){
            s.d1 + k3.d1, s.d2 + k3.d2, s.r1 + k3.r1, s.r2 + k3.r2,
            s.l1 + k3.l1, s.l2 + k3.l2, s.ip + k3.ip, s.x + k3.x, s.g + k3.g});
        s.d1 += w * (k1.d1 + 2.0 * (k2.d1 + k3.d1) + k4.d1);
        s.d2 += w * (k1.d2 + 2.0 * (k2.d2 + k3.d2) + k4.d2);
        s.r1 += w * (k1.r1 + 2.0 * (k2.r1 + k3.r1) + k4.r1);
        s.r2 += w * (k1.r2 + 2.0 * (k2.r2 + k3.r2) + k4.r2);
        s.l1 += w * (k1.l1 + 2.0 * (k2.l1 + k3.l1) + k4.l1);
        s.l2 += w * (k1.l2 + 2.0 * (k2.l2 + k3.l2) + k4.l2);
        s.ip += w * (k1.ip + 2.0 * (k2.ip + k3.ip) + k4.ip);
        s.x += w * (k1.x + 2.0 * (k2.x + k3.x) + k4.x);
        s.g += w * (k1.g + 2.0 * (k2.g + k3.g) + k4.g);

        if (s.g < floor_g)
            s.g = floor_g;
        else if (s.g > ceil_g)
            s.g = ceil_g;
        if (s.d1 < 0.0)
            s.d1 = 0.0;
        if (s.d2 < 0.0)
            s.d2 = 0.0;
        if (s.r1 < 0.0)
            s.r1 = 0.0;
        if (s.r2 < 0.0)
            s.r2 = 0.0;
        if (s.l1 < 0.0)
            s.l1 = 0.0;
        if (s.l2 < 0.0)
            s.l2 = 0.0;
        if (s.ip < 0.0)
            s.ip = 0.0;
        if (s.x < 0.0)
            s.x = 0.0;

        const double total = s.d1 + s.d2 + s.r1 + s.r2 + s.l1 + s.l2 + s.ip + s.x
                             + s.g;
        if (total != total || total == INFINITY) {
            ret = -1 - m;
            break;
        }
        g_out[m] = s.g;
    }

    y[0] = s.d1; y[1] = s.d2; y[2] = s.r1; y[3] = s.r2; y[4] = s.l1;
    y[5] = s.l2; y[6] = s.ip; y[7] = s.x; y[8] = s.g;
    *armed_out = armed;
    return ret;
}
