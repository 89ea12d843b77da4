"""Adaptive basal-bolus advisor: seven actor-critic agents plus the dose
calculators both arms share (the static arm keeps PS at 1).

One basal agent and three ICR / three PS meal-slot agents adjust insulin
therapy from sparse fingerstick readings. Each agent runs TD(lambda) with a
linear value function, a linear deterministic policy blended with a
supervisory policy for the ICR agents, and a from-scratch Adam step on the
policy parameters. Everything here is pure given (state, inputs) except the
explicit mutations in critic_update / actor_update.
"""

from __future__ import annotations

import enum
import logging
import math
from dataclasses import dataclass

import numpy as np

from .patient import HYPER, HYPO, SMBG_FLOOR

log = logging.getLogger(__name__)

GAMMA = 0.9
LAMBDA = 0.5
ALPHA_SP = 0.1
STATE_EPS = 0.05          # floor for |s_i| in the actor gradient
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
DIA_MIN = 240.0           # rapid-acting duration of insulin action
HYPER_DIVISOR = 400.0 - HYPER      # feature normalization
HYPO_DIVISOR = HYPO - SMBG_FLOOR   # feature normalization
TARGET = 110.0            # mg/dL the bolus and correction calculators aim at
LOW_MORNING = 90.0        # morning bound of the overnight-delta rule

BETA_T1D = (1.0, 10.0)    # (beta_hyper, beta_hypo)
BETA_T2D = (10.0, 1.0)


class AgentKind(enum.Enum):
    BASAL = "Basal"
    ICR1 = "ICR1"
    ICR2 = "ICR2"
    ICR3 = "ICR3"
    PS1 = "PS1"
    PS2 = "PS2"
    PS3 = "PS3"

    @property
    def state_dim(self) -> int:
        return 4 if self in (AgentKind.BASAL, AgentKind.ICR3) else 2

    @property
    def is_icr(self) -> bool:
        return self in (AgentKind.ICR1, AgentKind.ICR2, AgentKind.ICR3)

    @property
    def is_basal(self) -> bool:
        return self is AgentKind.BASAL

    @property
    def meal_slot(self) -> int | None:
        """0 = breakfast, 1 = lunch, 2 = dinner; None for the basal agent."""
        if self.is_basal:
            return None
        return int(self.value[-1]) - 1


ICR_AGENTS = (AgentKind.ICR1, AgentKind.ICR2, AgentKind.ICR3)
PS_AGENTS = (AgentKind.PS1, AgentKind.PS2, AgentKind.PS3)


@dataclass(frozen=True)
class Measurement:
    value: float          # mg/dL
    timestamp: float      # minutes since trial start
    slot: str             # pre_breakfast / pre_lunch / pre_dinner / bedtime /
                          # post_prandial / rescue


@dataclass(frozen=True)
class InsulinRecord:
    dose_u: float
    kind: str             # bolus / basal / correction
    timestamp: float      # minutes since trial start

    def __post_init__(self):
        if self.dose_u < 0:
            raise ValueError("insulin dose must be >= 0")


@dataclass(frozen=True)
class FeatureVector:
    f_hyper: float
    f_hypo: float

    def __iter__(self):
        yield self.f_hyper
        yield self.f_hypo

    def as_array(self) -> np.ndarray:
        return np.array([self.f_hyper, self.f_hypo], dtype=float)


def glucose_error(g: float) -> float:
    """Signed excursion outside [HYPO, HYPER]; zero inside."""
    if g > HYPER:
        return g - HYPER
    if g < HYPO:
        return g - HYPO
    return 0.0


def bolus_features(window) -> FeatureVector | None:
    """Feature vector of one post-meal window, or of the whole day's readings
    for the basal agent; None signals skip-update."""
    if len(window) == 0:
        return None
    hyper_sum = hypo_sum = 0.0
    n_h = n_l = 0
    for v in window:
        e = glucose_error(v)
        if e > 0.0:
            hyper_sum += e
            n_h += 1
        elif e < 0.0:
            hypo_sum += -e
            n_l += 1
    f_hyper = (hyper_sum / n_h) / HYPER_DIVISOR if n_h else 0.0
    f_hypo = (hypo_sum / n_l) / HYPO_DIVISOR if n_l else 0.0
    return FeatureVector(min(f_hyper, 1.0), min(f_hypo, 1.0))


def overnight_delta(first_morning, last_night) -> np.ndarray:
    """Morning-vs-night excursion pair, normalized; zeros when either is missing."""
    if first_morning is None or last_night is None:
        return np.zeros(2)
    g_m, g_n = float(first_morning), float(last_night)
    b_hyper = b_hypo = 0.0
    if g_m > HYPER and g_n < HYPER:
        b_hyper = g_m - g_n
    if g_m < LOW_MORNING and g_n > LOW_MORNING:
        b_hypo = g_n - g_m
    return np.array([min(b_hyper / HYPER_DIVISOR, 1.0),
                     min(b_hypo / HYPO_DIVISOR, 1.0)])


def build_state(kind: AgentKind, features: FeatureVector,
                b_k: np.ndarray | None = None) -> np.ndarray:
    f = features.as_array()
    if kind.state_dim == 2:
        return f
    if b_k is None:
        log.warning("missing overnight delta for %s; treated as (0, 0)", kind.value)
        b_k = np.zeros(2)
    return np.concatenate([f, np.asarray(b_k, dtype=float)])


def cost(next_state, beta: tuple[float, float]) -> float:
    """Weighted post-action excursion cost; uses the feature part of the state."""
    b_hyper, b_hypo = beta
    if b_hyper <= 0 or b_hypo <= 0:
        raise ValueError("cost weights must be > 0")
    s = list(next_state)
    return b_hyper * float(s[0]) + b_hypo * float(s[1])


@dataclass
class AgentState:
    """One agent's policy, critic and Adam state and its learning rates. The
    discount GAMMA, the trace decay LAMBDA and the supervisory weight
    ALPHA_SP are the same for every agent, so they are module constants."""
    kind: AgentKind
    theta: np.ndarray
    w: np.ndarray
    z: np.ndarray
    adam_m: np.ndarray = None
    adam_v: np.ndarray = None
    step_count: int = 0
    lr_a: float = 0.1
    lr_c: float = 0.1
    m_smooth: float = 0.5
    frozen_faults: int = 0

    def __post_init__(self):
        dim = self.kind.state_dim
        for name in ("adam_m", "adam_v"):
            if getattr(self, name) is None:
                setattr(self, name, np.zeros(dim))
        for name in ("theta", "w", "z", "adam_m", "adam_v"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != (dim,):
                raise ValueError(f"{name} must have dim {dim} for {self.kind.value}")
            setattr(self, name, arr.copy())
        if self.lr_a <= 0 or self.lr_c <= 0:
            raise ValueError("learning rates must be > 0")


def critic_update(agent: AgentState, s_t: np.ndarray, s_next: np.ndarray,
                  beta: tuple[float, float]) -> float:
    """TD(lambda) step: returns the TD error and mutates w and z."""
    s_t = np.asarray(s_t, dtype=float)
    s_next = np.asarray(s_next, dtype=float)
    c_next = cost(s_next, beta)
    d = c_next + GAMMA * float(agent.w @ s_next) - float(agent.w @ s_t)
    if not math.isfinite(d):
        agent.frozen_faults += 1
        log.error("non-finite TD error for %s; agent frozen this step", agent.kind.value)
        return d
    agent.w = agent.w + agent.lr_c * d * agent.z
    agent.z = LAMBDA * agent.z + s_next
    return d


def policy(agent: AgentState, s_t: np.ndarray, f_prev_day: FeatureVector) -> float:
    """Blended policy output P (fractional change driver).

    The linear policy reads the full state; for ICR agents a supervisory
    policy computed from the previous day's post-meal features provides a
    conservative pull, weighted by alpha_LP. Basal and PS agents use the
    linear policy alone.
    """
    lp = float(np.asarray(agent.theta) @ np.asarray(s_t, dtype=float))
    if not agent.kind.is_icr:
        return lp
    f0, f1 = f_prev_day
    if f0 == 0.0 and f1 == 0.0:
        return 0.0                                   # alpha_LP = 0 and SP = 0
    if (f0 > 0.0 and f1 == 0.0) or f0 > f1:
        sp = -ALPHA_SP * f0
        alpha_lp = 0.5
    elif (f1 > 0.0 and f0 == 0.0) or f1 > f0:
        sp = ALPHA_SP * f1
        alpha_lp = 0.5
    else:                                            # F[0] == F[1] > 0
        sp = 0.0
        alpha_lp = 1.0
    return alpha_lp * lp + (1.0 - alpha_lp) * sp


def actor_update(agent: AgentState, td_error: float, s_t: np.ndarray) -> None:
    """One Adam step on theta along d/s (descent direction of cost)."""
    s = np.asarray(s_t, dtype=float)
    floored = np.where(np.abs(s) >= STATE_EPS, s, np.where(s < 0, -STATE_EPS, STATE_EPS))
    g = td_error / floored
    if not np.all(np.isfinite(g)):
        agent.frozen_faults += 1
        log.error("non-finite actor gradient for %s; update skipped", agent.kind.value)
        return
    if td_error == 0.0:
        # Zero gradient: moments decay, theta stays put.
        agent.adam_m = ADAM_BETA1 * agent.adam_m
        agent.adam_v = ADAM_BETA2 * agent.adam_v
        agent.step_count += 1
        return
    agent.step_count += 1
    t = agent.step_count
    agent.adam_m = ADAM_BETA1 * agent.adam_m + (1.0 - ADAM_BETA1) * g
    agent.adam_v = ADAM_BETA2 * agent.adam_v + (1.0 - ADAM_BETA2) * g * g
    m_hat = agent.adam_m / (1.0 - ADAM_BETA1 ** t)
    v_hat = agent.adam_v / (1.0 - ADAM_BETA2 ** t)
    agent.theta = agent.theta - agent.lr_a * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


def apply_action(kind: AgentKind, p: float, current: float, a_init: float,
                 m: float, prev_tdd: float | None = None) -> float:
    """Multiplicative therapy update with clamp and the basal TDD guard."""
    if current <= 0 or a_init <= 0:
        raise ValueError("therapy values must be > 0")
    a_new = current + m * p * current
    a_new = min(max(a_new, 0.5 * a_init), 2.0 * a_init)
    if kind.is_basal and prev_tdd is not None and a_new < 0.25 * prev_tdd:
        return current                                # revert
    return a_new


def iob(records, now: float) -> float:
    """Linear-decay insulin on board from bolus and correction records."""
    total = 0.0
    for r in records:
        if r.kind == "basal":
            continue
        elapsed = now - r.timestamp
        if 0.0 <= elapsed < DIA_MIN:
            total += r.dose_u * (1.0 - elapsed / DIA_MIN)
    return total


# --- dose calculators ---------------------------------------------------------

@dataclass
class TherapyParams:
    """Current adjustable therapy with initial values fixing the clamp bounds."""
    icr: list[float]            # g/U per meal slot
    ps: list[float]             # dimensionless per meal slot
    cf: float                   # mg/dL per U
    basal: float                # U/day
    icr_init: list[float] = None
    ps_init: list[float] = None
    basal_init: float = None

    def __post_init__(self):
        self.icr = [float(v) for v in self.icr]
        self.ps = [float(v) for v in self.ps]
        if self.icr_init is None:
            self.icr_init = list(self.icr)
        if self.ps_init is None:
            self.ps_init = list(self.ps)
        if self.basal_init is None:
            self.basal_init = self.basal
        if min(self.icr) <= 0 or min(self.ps) <= 0 or self.cf <= 0 or self.basal <= 0:
            raise ValueError("therapy values must be > 0")

    def a_init(self, kind: AgentKind) -> float:
        if kind.is_basal:
            return self.basal_init
        slot = kind.meal_slot
        return self.icr_init[slot] if kind.is_icr else self.ps_init[slot]

    def current(self, kind: AgentKind) -> float:
        if kind.is_basal:
            return self.basal
        slot = kind.meal_slot
        return self.icr[slot] if kind.is_icr else self.ps[slot]

    def set_current(self, kind: AgentKind, value: float) -> None:
        if kind.is_basal:
            self.basal = value
        elif kind.is_icr:
            self.icr[kind.meal_slot] = value
        else:
            self.ps[kind.meal_slot] = value


def bolus_recommendation(cho_g: float, g_c: float, therapy: TherapyParams,
                         meal_slot: int, iob_u: float) -> float:
    """Meal bolus: (CHO/ICR + (G - target)/CF) * PS - IOB, floored at 0."""
    if cho_g < 0:
        raise ValueError("cho must be >= 0")
    raw = (cho_g / therapy.icr[meal_slot]
           + (g_c - TARGET) / therapy.cf) * therapy.ps[meal_slot] - iob_u
    return max(raw, 0.0)


def correction_bolus(g_c: float, therapy: TherapyParams, ps_slot: float,
                     iob_u: float) -> float | None:
    """Between-meal correction, only above the hyper bound; None otherwise."""
    if g_c <= HYPER:
        return None
    return max(((g_c - TARGET) / therapy.cf) * ps_slot - iob_u, 0.0)


# --- agent bundle -------------------------------------------------------------

def make_bundle(theta_by_kind: dict[AgentKind, np.ndarray],
                hyper_by_kind: dict[AgentKind, dict],
                rng: np.random.Generator) -> dict[AgentKind, AgentState]:
    """Assemble the seven agents; critic weights and traces start small-random."""
    agents = {}
    for kind in AgentKind:
        dim = kind.state_dim
        hp = hyper_by_kind[kind]
        agents[kind] = AgentState(
            kind=kind,
            theta=np.asarray(theta_by_kind[kind], dtype=float),
            w=rng.uniform(0.0, 0.01, dim),
            z=rng.uniform(0.0, 0.01, dim),
            lr_a=hp["lr_a"],
            lr_c=hp["lr_c"],
            m_smooth=hp["m"],
        )
    return agents


# Serialization: one line `<agent>.<field> <values>` per field, floats by repr()
# so a parsed bundle rewrites byte for byte. The trace that holds it is versioned.

def _vector(text: str) -> np.ndarray:
    return np.array([float(x) for x in text.split()])


# Each field of AgentState but `kind`, with the parser of its text.
_FIELDS = {**dict.fromkeys(("theta", "w", "z", "adam_m", "adam_v"), _vector),
           "step_count": int, "lr_a": float, "lr_c": float, "m_smooth": float,
           "frozen_faults": int}


def _field_text(parse, value) -> str:
    if parse is _vector:
        return " ".join(repr(float(v)) for v in value)
    return repr(parse(value))


def bundle_to_text(bundle: dict[AgentKind, AgentState]) -> str:
    return "".join(f"{kind.value}.{f} {_field_text(parse, getattr(bundle[kind], f))}\n"
                   for kind in AgentKind for f, parse in _FIELDS.items())


def bundle_from_text(text: str) -> dict[AgentKind, AgentState]:
    """Parse bundle_to_text's lines; a missing, repeated, unknown or
    malformed field raises ValueError naming it."""
    raw = {}
    for line in text.splitlines():
        key, _, value = line.partition(" ")
        if key in raw:
            raise ValueError(f"agent field {key} given twice")
        raw[key] = value
    agents = {}
    for kind in AgentKind:
        values = {}
        for f, parse in _FIELDS.items():
            key = f"{kind.value}.{f}"
            try:
                values[f] = parse(raw.pop(key))
            except KeyError:
                raise ValueError(f"agent field {key} missing") from None
            except ValueError as exc:
                raise ValueError(f"agent field {key}: {exc}") from None
        agents[kind] = AgentState(kind=kind, **values)
    if raw:
        raise ValueError(f"unknown agent field {next(iter(raw))!r}")
    return agents


def beta_for(diabetes_type: str) -> tuple[float, float]:
    return BETA_T1D if diabetes_type == "T1D" else BETA_T2D
