"""Virtual-patient glucose-insulin dynamics for T1D and T2D cohorts.

A reduced Hovorka-style model: two gut compartments, two-compartment
subcutaneous absorption separately for rapid and long-acting insulin, a
single remote insulin-action state, and hepatic glucose output suppressed
by insulin action, minus insulin-dependent and insulin-independent
disposal. Integrated with fixed-step RK4 at 1-minute resolution for
reproducibility. The kernel takes one trial's buffers, float64 numpy arrays
bound once, and returns a step over a run of a day's minutes: `integrate` is
the Python reference, and `_kernel.c` its compiled transcription, bit for
bit, which `load_kernel` builds on first use.

All randomness flows through explicit numpy Generators; a cohort built
from one seed is bit-reproducible.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import math
import os
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

T1D = "T1D"
T2D = "T2D"

# Fixed physiologic constants shared by every patient. These are simulator
# calibration values, not per-patient parameters.
INSULIN_VOLUME_L_PER_KG = 0.12   # insulin distribution volume
INSULIN_CLEARANCE = 0.10         # plasma insulin elimination, 1/min
ACTION_TC_MIN = 60.0             # remote insulin action time constant
GLUCOSE_EFFECTIVENESS = 0.0045   # insulin-independent disposal, 1/min
ACTION_GLUCOSE_REF = 100.0       # mg/dL scale of insulin-dependent disposal
EGP_SUPPRESSION_HALF = 0.06      # U/L insulin action halving hepatic output
SECRETION_THRESHOLD = 100.0      # mg/dL, residual secretion kicks in above
SECRETION_SPAN = 80.0           # mg/dL, linear range before saturation
GLUCOSE_FLOOR = 10.0
GLUCOSE_CEIL = 600.0
SMBG_FLOOR = 20.0
SMBG_CEIL = 600.0
SMBG_CV = 0.05                  # relative SD of every reading, fingerstick or CGM

# Glycaemic bands (mg/dL): the outcome ranges, the advisor's feature bounds
# and the rescue controller all read these.
HYPER = 180.0          # above: time above range, hyperglycaemic excursion
HYPO = 70.0            # below: time below range (level 1); rescue re-arm level
SEVERE_HYPO = 50.0     # below: time below range (level 2)
RESCUE = 30.0          # below: fast carbohydrate rescue fires (default)

MINUTES_PER_DAY = 1440

# Kernel state indices (`_rk4_minute`'s order) that the protocol deposits into or reads.
RAPID_DEPOT = 2
LONG_DEPOT = 4
PLASMA_GLUCOSE = 8


class SimulationFault(RuntimeError):
    """Raised when integration produces a non-finite state."""


@dataclass(frozen=True)
class PatientParams:
    id: int
    diabetes_type: str
    body_weight: float                      # kg
    insulin_sensitivity_base: float         # (mg/dL/min) per (U/L) at 100 mg/dL
    carb_bioavailability: float             # fraction of CHO reaching plasma
    meal_absorption_time_constant: float    # min
    rapid_insulin_absorption_tc: float      # min
    long_insulin_absorption_tc: float       # min
    endogenous_glucose_production: float    # mg/dL/min
    residual_insulin_secretion_gain: float  # U/min per mg/dL above threshold
    glucose_distribution_volume: float      # dL

    def __post_init__(self):
        if self.diabetes_type not in (T1D, T2D):
            raise ValueError(f"unknown diabetes_type {self.diabetes_type!r}")
        if self.diabetes_type == T1D and self.residual_insulin_secretion_gain != 0.0:
            raise ValueError("T1D patients have no residual secretion")
        if not 40.0 <= self.body_weight <= 160.0:
            raise ValueError(f"body_weight {self.body_weight} outside [40, 160] kg")
        for name in ("meal_absorption_time_constant", "rapid_insulin_absorption_tc",
                     "long_insulin_absorption_tc"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")

    @property
    def insulin_volume_l(self) -> float:
        return INSULIN_VOLUME_L_PER_KG * self.body_weight


# Dawn phenomenon: sensitivity falls to DAWN_FACTOR over 04:00-08:00, with
# linear ramps of DAWN_TRANSITION_MIN at either end.
DAWN_START_MIN = 240
DAWN_END_MIN = 480
DAWN_FACTOR = 0.5
DAWN_TRANSITION_MIN = 30


def dawn_multiplier(clock_minute: float) -> float:
    """Sensitivity multiplier from the dawn window alone (1.0 outside it)."""
    t0, t1, tr, f = DAWN_START_MIN, DAWN_END_MIN, DAWN_TRANSITION_MIN, DAWN_FACTOR
    t = clock_minute
    if t < t0 or t >= t1:
        return 1.0
    if t < t0 + tr:                       # ramp down into the window
        return 1.0 - (1.0 - f) * (t - t0) / tr
    if t > t1 - tr:                       # ramp back out before window end
        return f + (1.0 - f) * (t - (t1 - tr)) / tr
    return f


@functools.cache
def dawn_day(enabled: bool) -> np.ndarray:
    """The dawn multiplier at each minute of a day, or 1.0 throughout when the
    dawn effect is off (a type 2 patient); built once per process and
    read-only."""
    row = np.array([dawn_multiplier(m) if enabled else 1.0
                    for m in range(MINUTES_PER_DAY)])
    row.flags.writeable = False
    return row


def draw_interday_factor(variability: float, rng: np.random.Generator) -> float:
    """One per-day sensitivity factor, uniform in [1-v, 1+v] for the
    scenario's `variability` v; 1.0, drawing nothing, when v is 0. Draw once
    per day."""
    if variability == 0.0:
        return 1.0
    return float(rng.uniform(1.0 - variability, 1.0 + variability))


def _model_constants(params: PatientParams) -> tuple:
    """Pre-reduced coefficients for the inner integration loop."""
    inv_tm = 1.0 / params.meal_absorption_time_constant
    inv_tr = 1.0 / params.rapid_insulin_absorption_tc
    inv_tl = 1.0 / params.long_insulin_absorption_tc
    # grams in gut2 -> mg/dL/min of glucose appearance
    ra_coef = 1000.0 * params.carb_bioavailability * inv_tm / params.glucose_distribution_volume
    inv_vi = 1.0 / params.insulin_volume_l
    s_i = params.insulin_sensitivity_base / ACTION_GLUCOSE_REF
    return (inv_tm, inv_tr, inv_tl, ra_coef, inv_vi, s_i,
            params.endogenous_glucose_production,
            params.residual_insulin_secretion_gain)


def _rk4_minute(y: tuple, c: tuple, sens: float) -> tuple:
    """One 1-minute RK4 step over the 9 dynamic states. Pure float math, hot path.

    `y` is (gut1, gut2 in g CHO; rapid1, rapid2, long1, long2 in U; plasma
    insulin, insulin action in U/L; plasma glucose in mg/dL). Meal and
    insulin inputs are added to the depots before the call.
    """
    inv_tm, inv_tr, inv_tl, ra_coef, inv_vi, s_i, egp, k_sec = c
    inv_tx = 1.0 / ACTION_TC_MIN
    k_e = INSULIN_CLEARANCE
    s_g = GLUCOSE_EFFECTIVENESS

    x_half2 = EGP_SUPPRESSION_HALF * EGP_SUPPRESSION_HALF

    def deriv(d1, d2, r1, r2, l1, l2, ip, x, g):
        u_in = r2 * inv_tr + l2 * inv_tl
        if k_sec > 0.0 and g > SECRETION_THRESHOLD:
            exc = g - SECRETION_THRESHOLD
            if exc > SECRETION_SPAN:
                exc = SECRETION_SPAN
            u_in += k_sec * exc
        egp_eff = egp * x_half2 / (x_half2 + x * x)
        return (-d1 * inv_tm,
                (d1 - d2) * inv_tm,
                -r1 * inv_tr,
                (r1 - r2) * inv_tr,
                -l1 * inv_tl,
                (l1 - l2) * inv_tl,
                u_in * inv_vi - k_e * ip,
                (ip - x) * inv_tx,
                egp_eff - s_g * g - sens * s_i * x * g + ra_coef * d2)

    d1, d2, r1, r2, l1, l2, ip, x, g = y
    k1 = deriv(d1, d2, r1, r2, l1, l2, ip, x, g)
    h = 0.5
    k2 = deriv(d1 + h * k1[0], d2 + h * k1[1], r1 + h * k1[2], r2 + h * k1[3],
               l1 + h * k1[4], l2 + h * k1[5], ip + h * k1[6], x + h * k1[7],
               g + h * k1[8])
    k3 = deriv(d1 + h * k2[0], d2 + h * k2[1], r1 + h * k2[2], r2 + h * k2[3],
               l1 + h * k2[4], l2 + h * k2[5], ip + h * k2[6], x + h * k2[7],
               g + h * k2[8])
    k4 = deriv(d1 + k3[0], d2 + k3[1], r1 + k3[2], r2 + k3[3],
               l1 + k3[4], l2 + k3[5], ip + k3[6], x + k3[7], g + k3[8])
    w = 1.0 / 6.0
    d1 += w * (k1[0] + 2.0 * (k2[0] + k3[0]) + k4[0])
    d2 += w * (k1[1] + 2.0 * (k2[1] + k3[1]) + k4[1])
    r1 += w * (k1[2] + 2.0 * (k2[2] + k3[2]) + k4[2])
    r2 += w * (k1[3] + 2.0 * (k2[3] + k3[3]) + k4[3])
    l1 += w * (k1[4] + 2.0 * (k2[4] + k3[4]) + k4[4])
    l2 += w * (k1[5] + 2.0 * (k2[5] + k3[5]) + k4[5])
    ip += w * (k1[6] + 2.0 * (k2[6] + k3[6]) + k4[6])
    x += w * (k1[7] + 2.0 * (k2[7] + k3[7]) + k4[7])
    g += w * (k1[8] + 2.0 * (k2[8] + k3[8]) + k4[8])

    # Hard physiologic saturation; depots clipped against roundoff.
    if g < GLUCOSE_FLOOR:
        g = GLUCOSE_FLOOR
    elif g > GLUCOSE_CEIL:
        g = GLUCOSE_CEIL
    if d1 < 0.0:
        d1 = 0.0
    if d2 < 0.0:
        d2 = 0.0
    if r1 < 0.0:
        r1 = 0.0
    if r2 < 0.0:
        r2 = 0.0
    if l1 < 0.0:
        l1 = 0.0
    if l2 < 0.0:
        l2 = 0.0
    if ip < 0.0:
        ip = 0.0
    if x < 0.0:
        x = 0.0

    total = d1 + d2 + r1 + r2 + l1 + l2 + ip + x + g
    if total != total or total == math.inf:     # NaN / overflow guard
        raise _fault(d1, d2, r1, r2, l1, l2, ip, x, g)
    return (d1, d2, r1, r2, l1, l2, ip, x, g)


def _fault(d1, d2, r1, r2, l1, l2, ip, x, g) -> SimulationFault:
    return SimulationFault(
        f"non-finite state after step: G={g} gut=({d1},{d2}) "
        f"rapid=({r1},{r2}) long=({l1},{l2}) I={ip} X={x}")


def integrate(y: np.ndarray, c: np.ndarray, sens: np.ndarray, cho: np.ndarray,
              glucose: np.ndarray):
    """The kernel bound to one trial's buffers, in Python: the reference for
    the compiled kernel, and what trials run when it cannot be built.

    `y` holds the 9 states in `_rk4_minute`'s order and `c` the patient's
    `_model_constants`; `sens` and `cho` hold each minute's sensitivity
    multiplier and carbohydrate delivery (g), and `glucose` is the trial's
    (days, 1440) array. All are float64 numpy arrays. Returns
    step(row, m0, m1, rescue), which steps minutes [m0, m1) of a day in
    place, reading the buffers as they are at the call and writing each
    stepped minute's glucose into `glucose[row]`. Before a minute is
    stepped, `rescue.poll` (a `protocol.RescueController`) sees its glucose;
    at the first minute where it fires the step returns that minute
    unstepped. Otherwise it returns m1. The caller deposits the rescue into
    `cho` and steps again from that minute, which is polled a second time;
    with the controller's threshold at or below HYPO that poll is a no-op.
    """
    def step(row, m0, m1, rescue):
        # The minute loop runs on Python floats, not numpy scalars.
        state, consts = tuple(y.tolist()), c.tolist()
        sens_day, cho_day, g_out = sens.tolist(), cho.tolist(), glucose[row]
        poll = rescue.poll
        for m in range(m0, m1):
            if poll(state[PLASMA_GLUCOSE]) > 0.0:
                m1 = m
                break
            cho_in = cho_day[m]
            if cho_in > 0.0:
                state = (state[0] + cho_in, *state[1:])
            state = _rk4_minute(state, consts, sens_day[m])
            g_out[m] = state[PLASMA_GLUCOSE]
        y[:] = state
        return m1

    return step


# --- compiled kernel ------------------------------------------------------------
#
# _kernel.c transcribes `integrate` for a minute about 100x faster. It is built
# on first use into the package's __pycache__/, under a name hashed from the
# source and the flags, and loaded with ctypes; without a compiler or a
# writable cache, trials run `integrate` instead. `subprocess` is imported
# only to build it, so a command that finds the build cached never loads it.

KERNEL_SOURCE = Path(__file__).with_name("_kernel.c")
# A fused multiply-add rounds once where Python rounds twice, so contraction
# (gcc's default wherever the target has FMA) would break bit-identity.
KERNEL_FLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")
# The fixed constants the kernel reads, in the order _kernel.c indexes them.
_FIXED_CONSTANTS = (1.0 / ACTION_TC_MIN, INSULIN_CLEARANCE, GLUCOSE_EFFECTIVENESS,
                    EGP_SUPPRESSION_HALF * EGP_SUPPRESSION_HALF, SECRETION_THRESHOLD,
                    SECRETION_SPAN, GLUCOSE_FLOOR, GLUCOSE_CEIL, HYPO)

_kernel = None      # the kernel trials run, once load_kernel has chosen it


def build_kernel(cache_dir: Path, flags: tuple[str, ...] = KERNEL_FLAGS) -> Path:
    """Compile _kernel.c with `cc` and `flags` into `cache_dir`, unless that
    build is there already; returns the shared object's path. Raises OSError
    when it cannot, with the compiler's first line of error when it fails."""
    tag = hashlib.sha256(KERNEL_SOURCE.read_bytes() + " ".join(flags).encode())
    target = cache_dir / f"_kernel-{tag.hexdigest()[:16]}.so"
    if not target.exists():
        import subprocess
        cache_dir.mkdir(exist_ok=True)
        fd, tmp = tempfile.mkstemp(suffix=".so", dir=cache_dir)
        os.close(fd)
        try:
            subprocess.run(["cc", *flags, "-o", tmp, str(KERNEL_SOURCE)],
                           check=True, capture_output=True, text=True)
            os.replace(tmp, target)
        except subprocess.CalledProcessError as exc:
            raise OSError([*exc.stderr.splitlines(), str(exc)][0]) from exc
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    return target


def _address(buf, n: int) -> int:
    """The address of a kernel buffer: a C-contiguous, writable float64 numpy
    array of one dimension and at least `n` values."""
    if (isinstance(buf, np.ndarray) and buf.dtype == np.float64 and buf.ndim == 1
            and buf.flags.c_contiguous and buf.flags.writeable and len(buf) >= n):
        return buf.ctypes.data
    raise TypeError(f"kernel buffers are float64 rows of at least {n} values")


def compiled_integrate(path: Path):
    """`integrate` backed by the shared object at `path`. It checks the
    buffers and takes their addresses once, when it binds them, and its step
    holds them, so they stay alive and an in-place resize raises ValueError
    while the step exists."""
    fn = ctypes.CDLL(str(path)).abbalab_integrate
    fn.argtypes = (*(ctypes.c_void_p,) * 6, ctypes.c_int, ctypes.c_int,
                   ctypes.POINTER(ctypes.c_int), ctypes.c_double)
    fn.restype = ctypes.c_int
    fixed = np.array(_FIXED_CONSTANTS)

    def kernel(y, c, sens, cho, glucose):
        if not (isinstance(glucose, np.ndarray) and glucose.ndim == 2):
            raise TypeError("kernel glucose is a (days, 1440) float64 array")
        rows = [ctypes.c_void_p(_address(row, MINUTES_PER_DAY)) for row in glucose]
        buffers = [ctypes.c_void_p(_address(b, n)) for b, n in
                   ((y, 9), (c, 8), (fixed, 9), (sens, MINUTES_PER_DAY),
                    (cho, MINUTES_PER_DAY))]
        armed = ctypes.c_int()
        armed_ref = ctypes.byref(armed)

        def step(row, m0, m1, rescue):
            if not 0 <= m0 <= m1 <= MINUTES_PER_DAY:
                raise ValueError(f"bad minute range [{m0}, {m1})")
            armed.value = rescue.armed
            m = fn(*buffers, rows[row], m0, m1, armed_ref, rescue.threshold)
            rescue.armed = armed.value != 0
            if m < 0:
                raise _fault(*y)
            return m

        step.buffers = (y, c, fixed, sens, cho, glucose)    # alive as long as the step
        return step

    return kernel


def load_kernel():
    """The kernel that trials run, kernel(y, c, sens, cho, glucose) ->
    step(row, m0, m1, rescue) as `integrate` describes it: the compiled
    kernel, built and loaded once per process, or `integrate` when that
    fails, after one stderr line that gives the reason. `abbalab run` calls
    it before starting workers, so they inherit the loaded kernel."""
    global _kernel
    if _kernel is not None:
        return _kernel
    try:
        _kernel = compiled_integrate(build_kernel(KERNEL_SOURCE.parent / "__pycache__"))
        return _kernel
    except OSError as exc:
        reason = str(exc)
    print(f"abbalab: compiled kernel unavailable ({reason}); "
          "using the Python integrator", file=sys.stderr)
    _kernel = integrate
    return _kernel


def fasting_glucose(params: PatientParams, basal_u_per_day: float) -> float:
    """Steady-state glucose under a continuous-equivalent basal rate (bisection)."""
    _, _, _, _, inv_vi, s_i, egp, k_sec = _model_constants(params)
    rate = basal_u_per_day / MINUTES_PER_DAY
    x_half2 = EGP_SUPPRESSION_HALF * EGP_SUPPRESSION_HALF

    def balance(g: float) -> float:
        u = rate
        if k_sec > 0.0 and g > SECRETION_THRESHOLD:
            u += k_sec * min(g - SECRETION_THRESHOLD, SECRETION_SPAN)
        x = u * inv_vi / INSULIN_CLEARANCE        # insulin action at steady state
        egp_eff = egp * x_half2 / (x_half2 + x * x)
        return egp_eff - GLUCOSE_EFFECTIVENESS * g - s_i * x * g

    lo, hi = GLUCOSE_FLOOR, GLUCOSE_CEIL
    if balance(hi) > 0.0:
        return hi
    if balance(lo) < 0.0:
        return lo
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if balance(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def equilibrium_state(params: PatientParams, basal_u_per_day: float) -> tuple:
    """Fasting fixed point with the long-acting depot at its periodic mean,
    as the state tuple `_rk4_minute` integrates."""
    g = fasting_glucose(params, basal_u_per_day)
    rate = basal_u_per_day / MINUTES_PER_DAY
    u = rate
    if params.residual_insulin_secretion_gain > 0.0 and g > SECRETION_THRESHOLD:
        u += params.residual_insulin_secretion_gain * min(g - SECRETION_THRESHOLD,
                                                          SECRETION_SPAN)
    ip = u / (params.insulin_volume_l * INSULIN_CLEARANCE)
    depot = rate * params.long_insulin_absorption_tc
    return (0.0, 0.0, 0.0, 0.0, depot, depot, ip, ip, g)


def read_smbg(g, rng: np.random.Generator):
    """Fingerstick reading: multiplicative Gaussian noise of SMBG_CV, clamped
    to [SMBG_FLOOR, SMBG_CEIL]. An array of glucose values, of any shape, is
    read in one draw in C order, value for value as the same number of scalar
    calls would read it."""
    batch = isinstance(g, np.ndarray)
    g = g * (1.0 + SMBG_CV * rng.standard_normal(g.shape if batch else None))
    if batch:
        return np.clip(g, SMBG_FLOOR, SMBG_CEIL)
    return min(max(float(g), SMBG_FLOOR), SMBG_CEIL)


# --- cohort generation -------------------------------------------------------

_COHORT_TAG = 0x5EED_C0B0

# (mean, cv) per parameter; weights track the in-silico population tables.
_T1D_NOMINAL = {
    "body_weight": (69.7, 0.178),
    "insulin_sensitivity_base": (63.0, 0.28),
    "carb_bioavailability": (0.85, 0.06),
    "meal_absorption_time_constant": (40.0, 0.18),
    "rapid_insulin_absorption_tc": (55.0, 0.15),
    "long_insulin_absorption_tc": (230.0, 0.10),
    "endogenous_glucose_production": (1.70, 0.10),
    "residual_insulin_secretion_gain": (0.0, 0.0),
}
_T2D_NOMINAL = {
    "body_weight": (95.0, 0.174),
    "insulin_sensitivity_base": (47.0, 0.45),
    "carb_bioavailability": (0.85, 0.06),
    "meal_absorption_time_constant": (45.0, 0.18),
    "rapid_insulin_absorption_tc": (55.0, 0.15),
    "long_insulin_absorption_tc": (230.0, 0.10),
    "endogenous_glucose_production": (1.41, 0.15),
    "residual_insulin_secretion_gain": (2.0e-4, 0.35),
}
_VG_PER_KG = (1.6, 0.08)   # dL/kg


def _lognormal(rng: np.random.Generator, mean: float, cv: float) -> float:
    """Log-normal draw with the requested arithmetic mean."""
    if mean == 0.0 or cv == 0.0:
        return mean
    sigma2 = math.log(1.0 + cv * cv)
    mu = math.log(mean) - 0.5 * sigma2
    return float(rng.lognormal(mu, math.sqrt(sigma2)))


def sample_patient(diabetes_type: str, patient_id: int,
                   rng: np.random.Generator) -> PatientParams:
    nominal = _T1D_NOMINAL if diabetes_type == T1D else _T2D_NOMINAL
    draws = {}
    for name, (mean, cv) in nominal.items():
        draws[name] = _lognormal(rng, mean, cv)
    draws["body_weight"] = min(max(draws["body_weight"], 40.0), 160.0)
    draws["carb_bioavailability"] = min(max(draws["carb_bioavailability"], 0.5), 0.98)
    vg_per_kg = _lognormal(rng, *_VG_PER_KG)
    return PatientParams(
        id=patient_id,
        diabetes_type=diabetes_type,
        glucose_distribution_volume=vg_per_kg * draws["body_weight"],
        **draws,
    )


def generate_cohort(n: int, diabetes_type: str, seed: int) -> list[PatientParams]:
    """n parameter sets, bit-reproducible, prefix-stable under growing n."""
    if n < 1:
        raise ValueError("cohort size must be >= 1")
    type_code = 1 if diabetes_type == T1D else 2
    cohort = []
    for i in range(n):
        rng = np.random.default_rng(
            np.random.SeedSequence([_COHORT_TAG, int(seed), type_code, i]))
        cohort.append(sample_patient(diabetes_type, i, rng))
    return cohort


# --- simulator-provided nominal therapy (T1D path) ---------------------------

T1D_FASTING_TARGET = 105.0   # mg/dL, fasting level the starting basal titrates to

# Empirical correction of the closed-form dose responses: the algebra below
# ignores the glucose-dependent disposal a meal excursion recruits on its own
# (glucose effectiveness plus basal insulin action at elevated G), so the raw
# CF and ICR are rescaled by factors fitted against simulated dose responses.
_CF_SCALE = 0.62
_ICR_SCALE = 2.37


@dataclass(frozen=True)
class NominalTherapy:
    basal_u_per_day: float
    icr_g_per_u: float
    cf_mgdl_per_u: float


def nominal_therapy(params: PatientParams) -> NominalTherapy:
    """Starting therapy a clinician would prescribe for a T1D patient.

    Bolus factors and basal rest on different evidence. Meal responses are
    observable: a few days of pre/post-meal readings pin down how far one
    unit drops glucose and how much one gram raises it, so CF and ICR use
    the patient's own sensitivity, bioavailability, and distribution
    volume. The overnight fasting need is not separable from those same
    readings, so basal falls back on a population model: it solves the
    fasting fixed point at `T1D_FASTING_TARGET` for a patient with nominal
    physiology and this body weight. The basal misfit is what the adaptive
    arm has available to learn. (T2D uses weight-based rules.)
    """
    s_i_pop = _T1D_NOMINAL["insulin_sensitivity_base"][0]
    pop = PatientParams(
        id=params.id, diabetes_type=T1D, body_weight=params.body_weight,
        insulin_sensitivity_base=s_i_pop,
        carb_bioavailability=_T1D_NOMINAL["carb_bioavailability"][0],
        meal_absorption_time_constant=_T1D_NOMINAL["meal_absorption_time_constant"][0],
        rapid_insulin_absorption_tc=_T1D_NOMINAL["rapid_insulin_absorption_tc"][0],
        long_insulin_absorption_tc=_T1D_NOMINAL["long_insulin_absorption_tc"][0],
        endogenous_glucose_production=_T1D_NOMINAL["endogenous_glucose_production"][0],
        residual_insulin_secretion_gain=0.0,
        glucose_distribution_volume=_VG_PER_KG[0] * params.body_weight)
    lo, hi = 0.05 * params.body_weight, 2.0 * params.body_weight
    if fasting_glucose(pop, lo) < T1D_FASTING_TARGET:
        raise ValueError("fasting target unreachable with basal alone")
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if fasting_glucose(pop, mid) > T1D_FASTING_TARGET:
            lo = mid
        else:
            hi = mid
    basal = 0.5 * (lo + hi)
    clearance = params.insulin_volume_l * INSULIN_CLEARANCE
    cf = _CF_SCALE * params.insulin_sensitivity_base * 1.10 / clearance
    rise_per_gram = (1000.0 * params.carb_bioavailability
                     / params.glucose_distribution_volume)
    icr = _ICR_SCALE * cf / rise_per_gram
    return NominalTherapy(basal_u_per_day=basal, icr_g_per_u=icr, cf_mgdl_per_u=cf)
