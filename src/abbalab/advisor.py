"""Adaptive basal-bolus advisor: seven actor-critic agents plus the dose
calculators both arms share (the static arm keeps PS at 1).

One basal agent and three ICR / three PS meal-slot agents adjust insulin
therapy from sparse fingerstick readings. Each agent runs TD(lambda) with a
linear value function, a linear deterministic policy blended with a
supervisory policy for the ICR agents, and a from-scratch Adam step on the
policy parameters. Every agent steps alike, through `learn` and `act`.
Everything here is pure given (state, inputs) except the explicit mutations
in critic_update, actor_update and act.

The learners work on 2- and 4-element vectors, where a numpy call costs more
than its arithmetic, so their elementwise steps run on Python floats, which
round + - * / and sqrt as numpy does. The three inner products (w @ s_next,
w @ s_t, theta @ s_t) stay numpy's `@`: it hands them to the BLAS ddot,
which fuses multiply-adds on some builds, so a Python sum could differ in
the last bit. The agents' vectors stay numpy arrays between steps.
"""

from __future__ import annotations

import enum
import logging
import math
from dataclasses import dataclass, field

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

    def __init__(self, value: str):
        # Plain attributes, set once per member: the trial loop reads them often.
        self.is_basal = value == "Basal"
        self.is_icr = value.startswith("ICR")
        self.state_dim = 4 if value in ("Basal", "ICR3") else 2
        # 0 = breakfast, 1 = lunch, 2 = dinner; None for the basal agent.
        self.meal_slot = None if self.is_basal else int(value[-1]) - 1


ICR_AGENTS = (AgentKind.ICR1, AgentKind.ICR2, AgentKind.ICR3)
PS_AGENTS = (AgentKind.PS1, AgentKind.PS2, AgentKind.PS3)

# Kinds of insulin delivery; every kind but BASAL_KIND is rapid-acting.
BOLUS_KIND, CORRECTION_KIND, BASAL_KIND = "bolus", "correction", "basal"


@dataclass(frozen=True)
class Measurement:
    value: float          # mg/dL
    timestamp: int        # whole minutes since trial start
    slot: str             # one of protocol.READING_SLOTS


@dataclass(frozen=True)
class InsulinRecord:
    dose_u: float
    kind: str             # BOLUS_KIND, CORRECTION_KIND or BASAL_KIND
    timestamp: int        # whole minutes since trial start

    def __post_init__(self):
        if self.dose_u < 0:
            raise ValueError("insulin dose must be >= 0")


@dataclass(frozen=True)
class FeatureVector:
    f_hyper: float
    f_hypo: float

    def __iter__(self):
        return iter((self.f_hyper, self.f_hypo))

    def as_array(self) -> np.ndarray:
        return np.array([self.f_hyper, self.f_hypo], dtype=float)


def glucose_error(g: float) -> float:
    """Signed excursion outside [HYPO, HYPER]; zero inside."""
    if g > HYPER:
        return g - HYPER
    if g < HYPO:
        return g - HYPO
    return 0.0


def bolus_features(window) -> FeatureVector:
    """Feature vector of one post-meal window, or of the basal agent's readings
    since the last bedtime; each holds at least the reading that closes it."""
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
    """Morning-vs-night excursion pair, normalized; zeros on day 1 (no last_night)."""
    if last_night is None:
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
    """The feature pair, then for a 4-dim agent the overnight pair b_k it requires."""
    if kind.state_dim == 2:
        return features.as_array()
    return np.array([features.f_hyper, features.f_hypo,
                     *np.asarray(b_k, dtype=float).tolist()])


def cost(next_state, beta: tuple[float, float]) -> float:
    """Weighted post-action excursion cost; uses the feature part of the state."""
    b_hyper, b_hypo = beta
    if b_hyper <= 0 or b_hypo <= 0:
        raise ValueError("cost weights must be > 0")
    return b_hyper * float(next_state[0]) + b_hypo * float(next_state[1])


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
    s_next = np.asarray(s_next, dtype=float)
    nxt = s_next.tolist()
    d = cost(nxt, beta) + GAMMA * float(agent.w @ s_next) - float(agent.w @ s_t)
    if not math.isfinite(d):
        agent.frozen_faults += 1
        log.error("non-finite TD error for %s; agent frozen this step", agent.kind.value)
        return d
    step = agent.lr_c * d
    w, z = [], []
    for w_i, z_i, s in zip(agent.w.tolist(), agent.z.tolist(), nxt):
        w.append(w_i + step * z_i)
        z.append(LAMBDA * z_i + s)
    agent.w, agent.z = np.array(w), np.array(z)
    return d


def policy(agent: AgentState, s_t: np.ndarray, f_prev_day: FeatureVector) -> float:
    """Blended policy output P (fractional change driver).

    The linear policy reads the full state; for ICR agents a supervisory
    policy computed from the previous day's post-meal features provides a
    conservative pull, weighted by alpha_LP. Basal and PS agents use the
    linear policy alone.
    """
    if not agent.kind.is_icr:
        return float(agent.theta @ s_t)
    f0, f1 = f_prev_day
    if f0 == 0.0 and f1 == 0.0:
        return 0.0                                   # alpha_LP = 0 and SP = 0
    lp = float(agent.theta @ s_t)
    if f0 > f1:
        sp = -ALPHA_SP * f0
        alpha_lp = 0.5
    elif f1 > f0:
        sp = ALPHA_SP * f1
        alpha_lp = 0.5
    else:                                            # F[0] == F[1] > 0
        sp = 0.0
        alpha_lp = 1.0
    return alpha_lp * lp + (1.0 - alpha_lp) * sp


def actor_update(agent: AgentState, td_error: float, s_t: np.ndarray) -> None:
    """One Adam step on theta along d/s (descent direction of cost). Each
    |s_i| below STATE_EPS is floored to it, keeping the sign of s_i (+ for
    -0.0 and NaN)."""
    g = [td_error / (s if abs(s) >= STATE_EPS else -STATE_EPS if s < 0 else STATE_EPS)
         for s in np.asarray(s_t, dtype=float).tolist()]
    if not all(map(math.isfinite, g)):
        agent.frozen_faults += 1
        log.error("non-finite actor gradient for %s; update skipped", agent.kind.value)
        return
    agent.step_count += 1
    if td_error == 0.0:
        # Zero gradient: moments decay, theta stays put.
        agent.adam_m = np.array([ADAM_BETA1 * m_i for m_i in agent.adam_m.tolist()])
        agent.adam_v = np.array([ADAM_BETA2 * v_i for v_i in agent.adam_v.tolist()])
        return
    t = agent.step_count
    c1, c2 = 1.0 - ADAM_BETA1 ** t, 1.0 - ADAM_BETA2 ** t      # bias corrections
    m, v, theta = [], [], []
    for th, m_i, v_i, g_i in zip(agent.theta.tolist(), agent.adam_m.tolist(),
                                 agent.adam_v.tolist(), g):
        m_i = ADAM_BETA1 * m_i + (1.0 - ADAM_BETA1) * g_i
        v_i = ADAM_BETA2 * v_i + (1.0 - ADAM_BETA2) * g_i * g_i
        m.append(m_i)
        v.append(v_i)
        theta.append(th - agent.lr_a * (m_i / c1) / (math.sqrt(v_i / c2) + ADAM_EPS))
    agent.adam_m, agent.adam_v, agent.theta = np.array(m), np.array(v), np.array(theta)


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


def learn(agent: AgentState, s_t: np.ndarray, s_next: np.ndarray,
          beta: tuple[float, float]) -> None:
    """The critic's step from s_t to s_next, then the actor's along the TD
    error unless it is not finite (critic_update counts that fault)."""
    d = critic_update(agent, s_t, s_next, beta)
    if math.isfinite(d):
        actor_update(agent, d, s_t)


def act(agent: AgentState, s_t: np.ndarray, features: FeatureVector,
        therapy: TherapyParams, prev_tdd: float | None = None) -> None:
    """Set the agent's therapy value to its policy's proposal, through
    apply_action's clamp and, given yesterday's total dose, the basal guard."""
    kind, p = agent.kind, policy(agent, s_t, features)
    therapy.set_current(kind, apply_action(kind, p, therapy.current(kind), therapy.a_init(kind),
                                           agent.m_smooth, prev_tdd=prev_tdd))


def iob(records, now: float) -> float:
    """Linear-decay insulin on board from bolus and correction records."""
    total = 0.0
    for r in records:
        if r.kind == BASAL_KIND:
            continue
        elapsed = now - r.timestamp
        if 0.0 <= elapsed < DIA_MIN:
            total += r.dose_u * (1.0 - elapsed / DIA_MIN)
    return total


# --- dose calculators ---------------------------------------------------------

@dataclass
class TherapyParams:
    """Current adjustable therapy; its starting values, copied once, fix the clamps."""
    icr: list[float]            # g/U per meal slot
    ps: list[float]             # dimensionless per meal slot
    cf: float                   # mg/dL per U
    basal: float                # U/day
    icr_init: list[float] = field(init=False)
    ps_init: list[float] = field(init=False)
    basal_init: float = field(init=False)

    def __post_init__(self):
        self.icr = [float(v) for v in self.icr]
        self.ps = [float(v) for v in self.ps]
        self.icr_init, self.ps_init, self.basal_init = list(self.icr), list(self.ps), self.basal
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
    """Parse bundle_to_text's lines; a missing or malformed field raises
    ValueError naming it. A repeated field keeps its last value and an unknown
    one is ignored: trace_from_text rewrites what it parsed and rejects both."""
    raw = {}
    for line in text.splitlines():
        key, _, value = line.partition(" ")
        raw[key] = value
    agents = {}
    for kind in AgentKind:
        values = {}
        for f, parse in _FIELDS.items():
            key = f"{kind.value}.{f}"
            try:
                values[f] = parse(raw[key])
            except KeyError:
                raise ValueError(f"agent field {key} missing") from None
            except ValueError as exc:
                raise ValueError(f"agent field {key}: {exc}") from None
        agents[kind] = AgentState(kind=kind, **values)
    return agents


def beta_for(diabetes_type: str) -> tuple[float, float]:
    return BETA_T1D if diabetes_type == "T1D" else BETA_T2D
