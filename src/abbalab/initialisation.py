"""Two-week collection analysis: transfer-entropy policy initialization and
risk classification selecting the learning hyperparameters.

The advisor starts after 14 days of CGM + insulin logging under the static
baseline. Transfer entropy from the active-insulin signal to glucose scales
the initial policy magnitudes (responsive patients get gentler policies);
glycaemic variability and nocturnal-hypo exposure pick the learning rates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .advisor import BASAL_KIND, DIA_MIN, AgentKind, AgentState, make_bundle
from .patient import HYPO, MINUTES_PER_DAY

CGM_INTERVAL_MIN = 5
COLLECTION_DAYS = 14

THETA_BASE = 0.5

SD_THRESHOLD = {"T1D": 57.0, "T2D": 59.0}              # mg/dL
NOCTURNAL_FRACTION = {"T1D": 0.21, "T2D": 0.42}        # of overnight samples < HYPO
OVERNIGHT_WINDOW = (0, 360)                            # 00:00 - 06:00

SMOOTHING_M = {"T1D": 0.5, "T2D": 1.0}

# Risk-class labels: glycaemic variability, then nocturnal hypoglycaemia
# risk, each with its low-risk label first.
NORMAL, INCREASED, HIGH = "normal", "increased", "high"
VARIABILITY_LABELS = (NORMAL, INCREASED)
NOCTURNAL_RISK_LABELS = (NORMAL, HIGH)


@dataclass(frozen=True)
class CollectionLog:
    cgm: np.ndarray             # mg/dL, a sample every CGM_INTERVAL_MIN from minute 0
    insulin_records: tuple      # InsulinRecord, boluses and basal injections
    basal_rate: float           # U/min equivalent, constant over the collection phase

    def __post_init__(self):
        object.__setattr__(self, "cgm", np.asarray(self.cgm, dtype=float))

    @property
    def cgm_times(self) -> np.ndarray:
        """Minutes since trial start of each CGM sample."""
        return np.arange(len(self.cgm)) * float(CGM_INTERVAL_MIN)


@dataclass(frozen=True)
class RiskClass:
    variability: str       # one of VARIABILITY_LABELS
    nocturnal_risk: str    # one of NOCTURNAL_RISK_LABELS

    def __post_init__(self):
        if self.variability not in VARIABILITY_LABELS:
            raise ValueError(f"unknown variability label {self.variability!r}")
        if self.nocturnal_risk not in NOCTURNAL_RISK_LABELS:
            raise ValueError(f"unknown nocturnal risk label {self.nocturnal_risk!r}")


def cgm_sd(log: CollectionLog) -> float:
    return float(np.std(log.cgm))


def active_insulin_series(log: CollectionLog) -> np.ndarray:
    """Per-sample active insulin: bolus IOB plus the basal daily-equivalent.

    The basal rate is U/min; scaling by 1440 gives the daily-equivalent
    units so a constant basal dose B contributes a constant B.
    """
    times = log.cgm_times
    ai = np.full(len(times), log.basal_rate * float(MINUTES_PER_DAY))
    for rec in log.insulin_records:
        if rec.kind == BASAL_KIND:
            continue
        # The times ascend, so the samples a bolus can act on are one slice:
        # from its timestamp on, to at most DIA_MIN after it.
        lo = times.searchsorted(rec.timestamp)
        hi = times.searchsorted(rec.timestamp + DIA_MIN, side="right")
        elapsed = times[lo:hi] - rec.timestamp
        ai[lo:hi] += np.where(elapsed < DIA_MIN, rec.dose_u * (1.0 - elapsed / DIA_MIN), 0.0)
    return ai


def linear_quantile(s: list[float], q: float) -> float:
    """np.quantile's default (linear) rule on the sorted, NaN-free list `s`, op
    for op. np.quantile itself calls np.unique, which imports numpy.ma: about
    18 ms in every process that runs it."""
    n = len(s)
    v = (n - 1) * q
    if v >= n - 1:
        return s[-1]
    i = math.floor(v)
    a, b, t = s[i], s[i + 1], v - i
    d = b - a
    return b - d * (1 - t) if t >= 0.5 else a + d * t


def _quantile_bins(series: np.ndarray, bins: int) -> np.ndarray:
    """Discretize into quantile bins; constant series collapse to one symbol."""
    s = np.sort(series).tolist()
    qs = np.linspace(0.0, 1.0, bins + 1)[1:-1].tolist()
    edges = [linear_quantile(s, q) for q in qs]
    return np.searchsorted(edges, series, side="right")


def transfer_entropy(source, target, bins: int = 4) -> float:
    """Plug-in transfer entropy source -> target in bits, quantile-binned.

    TE = H(y_next | y_past) - H(y_next | y_past, x_past), estimated from
    joint symbol counts with history length 1.
    """
    x = np.asarray(source, dtype=float)
    y = np.asarray(target, dtype=float)
    if len(x) != len(y):
        raise ValueError("series must have equal length")
    if len(x) < 3:
        raise ValueError("series too short")
    if np.ptp(x) == 0.0 or np.ptp(y) == 0.0:
        return 0.0
    xs = _quantile_bins(x, bins)
    ys = _quantile_bins(y, bins)
    y_next = ys[1:]
    y_past = ys[:-1]
    x_past = xs[:-1]
    n = len(y_next)

    joint = y_next * bins * bins + y_past * bins + x_past
    p_xyz = np.bincount(joint, minlength=bins ** 3).astype(float) / n
    p_xyz = p_xyz.reshape(bins, bins, bins)          # [y_next, y_past, x_past]
    p_yz = p_xyz.sum(axis=0)                         # [y_past, x_past]
    p_xy = p_xyz.sum(axis=2)                         # [y_next, y_past]
    p_y = p_xy.sum(axis=0)                           # [y_past]

    te = 0.0
    nz = p_xyz > 0.0
    p_y, p_yz, p_xy = p_y.tolist(), p_yz.tolist(), p_xy.tolist()
    for (yn, yp, xp), p in zip(np.argwhere(nz).tolist(), p_xyz[nz].tolist()):
        te += p * np.log2(p * p_y[yp] / (p_yz[yp][xp] * p_xy[yn][yp]))
    return max(float(te), 0.0)


_THETA_SIGNS = {
    # (hyper, hypo, overnight-hyper, overnight-hypo); trailing pair only for
    # the 4-dim agents. Signs point each agent's first moves in the
    # glycaemically corrective direction.
    "icr": (-1.0, 1.0, -1.0, 1.0),     # hyper -> lower ICR -> more insulin
    "ps": (1.0, -1.0),                 # hyper -> raise PS  -> more insulin
    "basal": (1.0, -1.0, 1.0, -1.0),   # hyper -> raise basal
}


def init_policy_params(te: float, agent_kind: AgentKind) -> np.ndarray:
    """Initial theta: magnitude theta_base / (1 + TE/bit), corrective signs."""
    if te < 0:
        raise ValueError("transfer entropy must be >= 0")
    magnitude = THETA_BASE / (1.0 + te)
    if agent_kind.is_basal:
        signs = _THETA_SIGNS["basal"]
    elif agent_kind.is_icr:
        signs = _THETA_SIGNS["icr"][: agent_kind.state_dim]
    else:
        signs = _THETA_SIGNS["ps"]
    return magnitude * np.array(signs[: agent_kind.state_dim])


def classify(log: CollectionLog, diabetes_type: str) -> RiskClass:
    sd = cgm_sd(log)
    variability = INCREASED if sd > SD_THRESHOLD[diabetes_type] else NORMAL
    clock = np.mod(log.cgm_times, MINUTES_PER_DAY)
    overnight = (clock >= OVERNIGHT_WINDOW[0]) & (clock < OVERNIGHT_WINDOW[1])
    if overnight.any():
        frac_low = float(np.mean(log.cgm[overnight] < HYPO))
    else:
        frac_low = 0.0
    nocturnal = HIGH if frac_low > NOCTURNAL_FRACTION[diabetes_type] else NORMAL
    return RiskClass(variability=variability, nocturnal_risk=nocturnal)


def select_hyperparameters(rc: RiskClass, diabetes_type: str) -> dict[AgentKind, dict]:
    """Per-agent learning rates and smoothing from the risk classification."""
    m = SMOOTHING_M[diabetes_type]
    increased = rc.variability == INCREASED
    high_nocturnal = rc.nocturnal_risk == HIGH
    out = {}
    for kind in AgentKind:
        if increased:
            lr_c = 0.05 if kind.is_icr else 0.01
            lr_a = 0.01
        else:
            lr_c = 0.1
            lr_a = 0.1
        if kind is AgentKind.ICR3:
            if increased and high_nocturnal:
                lr_a = 0.001
            elif increased or high_nocturnal:
                lr_a = 0.01
        out[kind] = {"lr_a": lr_a, "lr_c": lr_c, "m": m}
    return out


def t2d_initial_therapy(weight_kg: float) -> tuple[float, float, float, float]:
    """Weight-based starting therapy: (TDD, basal, ICR, CF)."""
    if weight_kg <= 0:
        raise ValueError("weight must be > 0")
    tdd = 0.5 * weight_kg
    return tdd, 0.5 * tdd, 500.0 / tdd, 1800.0 / tdd


def initialise_agents(log: CollectionLog, diabetes_type: str,
                      rng: np.random.Generator
                      ) -> tuple[dict[AgentKind, AgentState], float, RiskClass]:
    """Glue for the day-14 boundary: TE, classification, and the bundle."""
    ai = active_insulin_series(log)
    te = transfer_entropy(ai, log.cgm)
    rc = classify(log, diabetes_type)
    hyper = select_hyperparameters(rc, diabetes_type)
    theta = {kind: init_policy_params(te, kind) for kind in AgentKind}
    return make_bundle(theta, hyper, rng), te, rc
