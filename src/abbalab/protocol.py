"""Trial engine: day scheduling, meal sampling and misestimation, injection
timing, the rescue controller, and the three-phase pipeline (two-week
collection under the static advisor, initialization, on-line learning).

run_trial is single-threaded per patient. The patient kernel steps every
minute of a day; it stops at each event minute and at each minute where the
rescue fires, a handler of the Trial state takes the event, and what it
delivers is deposited before the kernel steps that minute. The Trial keeps
each fact once: its handlers append to the day's DayTrace, the only record
of that day's events, and each midnight copies the day's minute glucose into
its row of the trial's one (days, 1440) array. The collection log, the
overnight readings, the previous day's total dose and the insulin on board
come from those records. The cohort runner fans out with disjoint
per-patient seed streams derived from the master seed, so the arm never
perturbs its twin's meals, announcement errors or sensitivity draws. Reading
noise is shared too until one arm has a rescue the other lacks: rescue
readings draw from the same SMBG stream.
"""

from __future__ import annotations

import dataclasses
import hashlib
from array import array
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import advisor as adv
from . import initialisation as init
from . import patient as pat
from .patient import MINUTES_PER_DAY

ABBA = "abba"
BBA = "bba"

# Scenario table: per-meal CHO ranges (g) and clock windows (minutes).
MEAL_TABLE = (
    ("breakfast", (420, 540), (42.0, 98.0)),
    ("lunch", (750, 810), (60.0, 140.0)),
    ("dinner", (1140, 1200), (54.0, 126.0)),
)
SNACK_WINDOWS = ((600, 660), (900, 1080), (1260, 1350))
SNACK_CHO_RANGE = (5.0, 21.0)
MEAL_DURATION_RANGE = (15, 30)
SNACK_DURATION_RANGE = (3, 8)
BOLUS_LEAD_RANGE = (5, 15)
BASAL_WINDOW = (1320, 1440)          # 22:00 .. 00:00
POST_PRANDIAL_DELAY = 120            # minutes after meal start (scenario 4)
RESCUE_GRAMS = 20.0

PRE_MEAL_SLOTS = ("pre_breakfast", "pre_lunch", "pre_dinner")
RESCUE_SLOT = "rescue"

_TRIAL_TAG = 0x7121A1


@dataclass(frozen=True)
class ScenarioSpec:
    id: str
    misestimation: tuple[float, float] = (0.70, 1.10)
    interday_sensitivity: float = 0.0
    correction_boluses: bool = False

    @property
    def code(self) -> int:
        return int(self.id[1:])


SCENARIOS = {
    "S1": ScenarioSpec("S1"),
    "S2": ScenarioSpec("S2", interday_sensitivity=0.30),
    "S3": ScenarioSpec("S3", misestimation=(0.50, 1.50)),
    "S4": ScenarioSpec("S4", correction_boluses=True),
}


@dataclass(frozen=True)
class MealPlan:
    slot: int                      # 0 breakfast, 1 lunch, 2 dinner, 3 snack
    start_minute: int
    duration_min: int
    cho_g: float
    bolus_minute: int | None       # None for the unannounced snack


@dataclass(frozen=True)
class DaySchedule:
    meals: tuple[MealPlan, ...]
    basal_minute: int


def sample_day(spec: ScenarioSpec, rng: np.random.Generator) -> DaySchedule:
    """One day's meals, bolus times, and basal injection time.

    Draw order is fixed; the basal injection is forced after the last meal
    so no intake or bolus ever follows it.
    """
    meals = []
    for slot, (name, (t_lo, t_hi), (c_lo, c_hi)) in enumerate(MEAL_TABLE):
        start = int(rng.integers(t_lo, t_hi + 1))
        cho = float(rng.uniform(c_lo, c_hi))
        duration = int(rng.integers(MEAL_DURATION_RANGE[0], MEAL_DURATION_RANGE[1] + 1))
        lead = int(rng.integers(BOLUS_LEAD_RANGE[0], BOLUS_LEAD_RANGE[1] + 1))
        meals.append(MealPlan(slot=slot, start_minute=start, duration_min=duration,
                              cho_g=cho, bolus_minute=start - lead))
    window = SNACK_WINDOWS[int(rng.integers(0, len(SNACK_WINDOWS)))]
    s_start = int(rng.integers(window[0], window[1] + 1))
    s_cho = float(rng.uniform(*SNACK_CHO_RANGE))
    s_dur = int(rng.integers(SNACK_DURATION_RANGE[0], SNACK_DURATION_RANGE[1] + 1))
    meals.append(MealPlan(slot=3, start_minute=s_start, duration_min=s_dur,
                          cho_g=s_cho, bolus_minute=None))
    snack_end = s_start + s_dur
    basal_lo = max(BASAL_WINDOW[0], snack_end + 1)
    basal_minute = int(rng.integers(basal_lo, BASAL_WINDOW[1]))
    return DaySchedule(meals=tuple(meals), basal_minute=basal_minute)


def announce_cho(true_cho: float, spec: ScenarioSpec, rng: np.random.Generator) -> float:
    """What the patient tells the advisor; the gut digests the true grams."""
    if true_cho <= 0:
        raise ValueError("true CHO must be > 0")
    return true_cho * float(rng.uniform(*spec.misestimation))


@dataclass
class RescueController:
    """RESCUE_GRAMS of fast glucose the minute true plasma glucose falls below
    `threshold`. It then stays disarmed until glucose is back at or above
    pat.HYPO, so one hypoglycaemic episode triggers one rescue. `pat.integrate`
    polls it every minute it steps; the compiled kernel transcribes `poll`.

    With `threshold` at or below pat.HYPO, a second poll at the same glucose
    changes nothing: a fired controller stays disarmed (glucose is below
    HYPO) and a re-armed one does not fire (glucose is at or above HYPO).
    run_trial relies on it, as the kernel polls again each minute the driver
    has polled."""
    threshold: float = pat.RESCUE
    armed: bool = True

    def poll(self, g: float) -> float:
        """Returns grams to ingest this minute (0 when no rescue fires)."""
        if self.armed:
            if g < self.threshold:
                self.armed = False
                return RESCUE_GRAMS
        elif g >= pat.HYPO:
            self.armed = True
        return 0.0


@dataclass(frozen=True)
class MealEvent:
    slot: int
    minute: int
    duration_min: int
    cho_g: float
    announced_g: float | None


@dataclass(frozen=True)
class TherapySnapshot:
    icr: tuple[float, float, float]
    ps: tuple[float, float, float]
    cf: float
    basal: float


@dataclass
class DayTrace:
    """One trial day's events, the only record of them: the therapy active
    that day, its meals, and the SMBG readings and insulin deliveries in the
    order they were taken. Trial opens it at the start of the day and its
    handlers append to it; midnight sets the day's total delivered insulin.
    The day's minute glucose is row `day - 1` of TrialResult.glucose. A
    rescue is the reading of slot RESCUE_SLOT taken the minute it fires."""
    day: int
    therapy: TherapySnapshot
    meals: list
    measurements: list = dataclasses.field(default_factory=list)
    insulin: list = dataclasses.field(default_factory=list)
    total_insulin_u: float = 0.0

    @property
    def rescues(self) -> tuple:
        """The day's rescue readings, in the order they fired."""
        return tuple(m for m in self.measurements if m.slot == RESCUE_SLOT)


@dataclass
class TrialResult:
    """One patient's trial under one arm. `glucose` is the trial's plasma
    glucose (mg/dL), the one copy of it: a C-order float64 array of shape
    (days, 1440), row d-1 for day d, allocated once when the trial starts.
    `day_traces` holds each day's events; the first day's therapy is the
    starting therapy. The collection phase is always the first
    init.COLLECTION_DAYS days."""
    patient: pat.PatientParams
    arm: str
    scenario: str
    days: int
    day_traces: list
    glucose: np.ndarray
    final_agents: dict[adv.AgentKind, adv.AgentState] | None
    transfer_entropy_bits: float | None
    risk_class: init.RiskClass | None

    @property
    def initial_therapy(self) -> TherapySnapshot:
        return self.day_traces[0].therapy


def initial_therapy_for(params: pat.PatientParams,
                        rng: np.random.Generator) -> adv.TherapyParams:
    """Starting therapy: simulator-derived for T1D, weight-based for T2D,
    then the protocol's one-time +/-10% uniform perturbation on ICRs and basal."""
    if params.diabetes_type == pat.T1D:
        nom = pat.nominal_therapy(params)
        icr, cf, basal = nom.icr_g_per_u, nom.cf_mgdl_per_u, nom.basal_u_per_day
    else:
        _, basal, icr, cf = init.t2d_initial_therapy(params.body_weight)
    icr_slots = [icr * float(rng.uniform(0.9, 1.1)) for _ in range(3)]
    basal_p = basal * float(rng.uniform(0.9, 1.1))
    return adv.TherapyParams(icr=icr_slots, ps=[1.0, 1.0, 1.0], cf=cf, basal=basal_p)


def _trial_streams(master_seed: int, spec: ScenarioSpec,
                   params: pat.PatientParams) -> dict[str, np.random.Generator]:
    type_code = 1 if params.diabetes_type == pat.T1D else 2
    root = np.random.SeedSequence(
        [_TRIAL_TAG, int(master_seed), spec.code, type_code, params.id])
    names = ("schedule", "announce", "smbg", "cgm", "sens", "therapy", "agents")
    children = root.spawn(len(names))
    return {n: np.random.default_rng(c) for n, c in zip(names, children)}


def _snapshot(therapy: adv.TherapyParams) -> TherapySnapshot:
    return TherapySnapshot(icr=tuple(therapy.icr), ps=tuple(therapy.ps),
                           cf=therapy.cf, basal=therapy.basal)


class Trial:
    """One patient's trial under one arm, as the state events act on.

    Holds the therapy, the agent bundle, the post-meal feature windows, the
    current day's open DayTrace, the finished days' DayTraces, the trial's
    minute glucose and the seed streams. run_trial's day loop calls a handler
    at each event minute with the true plasma glucose; a handler returns what
    it delivers that minute: insulin (U), or the rescue's carbohydrate (g).
    """

    def __init__(self, params: pat.PatientParams, advisor_kind: str,
                 spec: ScenarioSpec, master_seed: int, days: int):
        self.params = params
        self.arm = advisor_kind
        self.spec = spec
        self.days = days
        self.streams = _trial_streams(master_seed, spec, params)
        self.therapy = initial_therapy_for(params, self.streams["therapy"])
        self.beta = adv.beta_for(params.diabetes_type)
        self.bundle: dict[adv.AgentKind, adv.AgentState] | None = None
        self.te_bits: float | None = None
        self.risk: init.RiskClass | None = None

        # Feature bookkeeping.
        self.slot_features: dict[int, adv.FeatureVector] = {}
        self.open_slot: int | None = None
        self.open_values: list[float] = []
        self.day_pool: list[float] = []
        self.basal_state_prev: np.ndarray | None = None

        self.day_traces: list[DayTrace] = []
        self.glucose = np.empty((days, MINUTES_PER_DAY), dtype=_GLUCOSE_DTYPE)

    def start_day(self, day: int) -> tuple[array, dict, dict, int]:
        """Draw day `day`'s schedule and open its DayTrace.

        Returns the per-minute CHO delivery (g, the kernel's `array('d')`)
        and the event minutes: meal by pre-meal reading minute, meal by
        post-prandial reading minute (S4 only), and the bedtime injection
        minute.
        """
        self.day_offset = (day - 1) * MINUTES_PER_DAY
        self.collecting = day <= init.COLLECTION_DAYS
        self.learning = self.arm == ABBA and not self.collecting
        sched = sample_day(self.spec, self.streams["schedule"])

        cho_by_minute = array("d", bytes(8 * MINUTES_PER_DAY))
        for meal in sched.meals:
            per_min = meal.cho_g / meal.duration_min
            for m in range(meal.start_minute, meal.start_minute + meal.duration_min):
                if m < MINUTES_PER_DAY:
                    cho_by_minute[m] += per_min
        pre_meal_at = {meal.bolus_minute: meal for meal in sched.meals
                       if meal.bolus_minute is not None}
        post_prandial_at = {}
        if self.spec.correction_boluses:
            for meal in sched.meals:
                if meal.slot < 3:
                    m = meal.start_minute + POST_PRANDIAL_DELAY
                    if m < sched.basal_minute:
                        post_prandial_at[m] = meal

        self.today = DayTrace(
            day=day, therapy=_snapshot(self.therapy),
            meals=[MealEvent(slot=m.slot, minute=m.start_minute,
                             duration_min=m.duration_min, cho_g=m.cho_g,
                             announced_g=None) for m in sched.meals])
        return cho_by_minute, pre_meal_at, post_prandial_at, sched.basal_minute

    def _read(self, minute: int, slot: str, g: float) -> float:
        value = pat.read_smbg(g, self.streams["smbg"])
        self.today.measurements.append(adv.Measurement(
            value=value, timestamp=float(self.day_offset + minute), slot=slot))
        self.day_pool.append(value)
        return value

    def _deliver(self, dose: float, kind: str, minute: int) -> float:
        self.today.insulin.append(adv.InsulinRecord(
            dose_u=dose, kind=kind, timestamp=float(self.day_offset + minute)))
        return dose

    def _overnight(self) -> np.ndarray:
        """Today's first reading against yesterday's last (none on day 1)."""
        last_night = self.day_traces[-1].measurements[-1].value if self.day_traces else None
        return adv.overnight_delta(self.today.measurements[0].value, last_night)

    def _iob(self, minute: int) -> float:
        # Records older than yesterday's are past DIA_MIN, which iob skips.
        yesterday = self.day_traces[-1].insulin if self.day_traces else []
        return adv.iob([*yesterday, *self.today.insulin],
                       float(self.day_offset + minute))

    def _close_window(self, closing_value: float) -> None:
        """End the open post-meal window: the slot's agents learn from it."""
        slot = self.open_slot
        if slot is None:
            return
        f_new = adv.bolus_features(self.open_values + [closing_value])
        if self.learning and slot in self.slot_features:
            b_k = self._overnight()
            f_prev = self.slot_features[slot]
            for kind in (adv.ICR_AGENTS[slot], adv.PS_AGENTS[slot]):
                agent = self.bundle[kind]
                s_t = adv.build_state(kind, f_prev, b_k)
                s_n = adv.build_state(kind, f_new, b_k)
                d = adv.critic_update(agent, s_t, s_n, self.beta)
                if np.isfinite(d):
                    adv.actor_update(agent, d, s_t)
        self.slot_features[slot] = f_new
        self.open_slot = None
        self.open_values = []

    def rescue(self, minute: int, g: float) -> float:
        """Rescue carbohydrate fired: the patient takes a reading and
        RESCUE_GRAMS of fast glucose."""
        value = self._read(minute, RESCUE_SLOT, g)
        if self.open_slot is not None:
            self.open_values.append(value)
        return RESCUE_GRAMS

    def pre_meal(self, meal: MealPlan, minute: int, g: float) -> float:
        """Pre-meal reading, the slot's ICR/PS actions, then the meal bolus."""
        slot = meal.slot
        reading = self._read(minute, PRE_MEAL_SLOTS[slot], g)
        self._close_window(reading)
        if self.learning and slot in self.slot_features:
            f_prev = self.slot_features[slot]
            b_k = self._overnight()
            for kind in (adv.ICR_AGENTS[slot], adv.PS_AGENTS[slot]):
                agent = self.bundle[kind]
                s_t = adv.build_state(kind, f_prev, b_k)
                p = adv.policy(agent, s_t, f_prev)
                new_a = adv.apply_action(kind, p, self.therapy.current(kind),
                                         self.therapy.a_init(kind), agent.m_smooth)
                self.therapy.set_current(kind, new_a)
        announced = announce_cho(meal.cho_g, self.spec, self.streams["announce"])
        self.today.meals[slot] = MealEvent(slot=slot, minute=meal.start_minute,
                                          duration_min=meal.duration_min,
                                          cho_g=meal.cho_g, announced_g=announced)
        dose = adv.bolus_recommendation(announced, reading, self.therapy, slot,
                                        self._iob(minute))
        self.open_slot = slot
        self.open_values = []
        return self._deliver(dose, "bolus", minute) if dose > 0.0 else 0.0

    def post_prandial(self, meal: MealPlan, minute: int, g: float) -> float:
        """S4's post-prandial reading and correction bolus above the hyper bound."""
        reading = self._read(minute, "post_prandial", g)
        if self.open_slot is not None:
            self.open_values.append(reading)
        dose = adv.correction_bolus(reading, self.therapy, self.therapy.ps[meal.slot],
                                    self._iob(minute))
        if dose is not None and dose > 0.0:
            return self._deliver(dose, "correction", minute)
        return 0.0

    def bedtime(self, minute: int, g: float) -> float:
        """Bedtime reading, the basal agent's step, then the basal injection."""
        reading = self._read(minute, "bedtime", g)
        self._close_window(reading)
        if self.learning:
            feats = adv.bolus_features(self.day_pool)
            s_now = adv.build_state(adv.AgentKind.BASAL, feats, self._overnight())
            agent = self.bundle[adv.AgentKind.BASAL]
            if self.basal_state_prev is not None:
                d = adv.critic_update(agent, self.basal_state_prev, s_now, self.beta)
                if np.isfinite(d):
                    adv.actor_update(agent, d, self.basal_state_prev)
            p = adv.policy(agent, s_now, feats)
            self.therapy.basal = adv.apply_action(
                adv.AgentKind.BASAL, p, self.therapy.basal, self.therapy.basal_init,
                agent.m_smooth, prev_tdd=self.day_traces[-1].total_insulin_u)
            self.basal_state_prev = s_now
        elif self.collecting:
            feats = adv.bolus_features(self.day_pool)
            if feats is not None:
                self.basal_state_prev = adv.build_state(adv.AgentKind.BASAL,
                                                        feats, self._overnight())
        self.day_pool = []
        return self._deliver(self.therapy.basal, "basal", minute)

    def midnight(self, glucose: array) -> None:
        """Close the day: copy the kernel's day buffer of minute glucose into
        the day's row of the trial's array, set the day's total insulin, and
        on the last collection day initialise the ABBA agents."""
        today = self.today
        total = 0.0
        for rec in today.insulin:           # in order: sum() compensates from 3.12 on
            total += rec.dose_u
        self.glucose[today.day - 1] = np.frombuffer(glucose)
        today.total_insulin_u = total
        self.day_traces.append(today)
        if today.day == init.COLLECTION_DAYS and self.arm == ABBA:
            self.bundle, self.te_bits, self.risk = init.initialise_agents(
                self._collection_log(), self.params.diabetes_type, self.streams["agents"])

    def _collection_log(self) -> init.CollectionLog:
        """The collection weeks as the initialisation reads them: a CGM sample
        every CGM_INTERVAL_MIN, read in one draw from the strided view
        glucose[:COLLECTION_DAYS, ::CGM_INTERVAL_MIN] (day by day, in minute
        order), the insulin delivered, and the basal rate, which only changes
        in the on-line phase."""
        days = self.day_traces[:init.COLLECTION_DAYS]
        minutes = range(0, MINUTES_PER_DAY, init.CGM_INTERVAL_MIN)
        cgm = pat.read_smbg(
            self.glucose[:init.COLLECTION_DAYS, ::init.CGM_INTERVAL_MIN],
            self.streams["cgm"]).reshape(-1)
        return init.CollectionLog(
            cgm=cgm,
            cgm_times=np.array([float((t.day - 1) * MINUTES_PER_DAY + m)
                                for t in days for m in minutes]),
            insulin_records=tuple(r for t in days for r in t.insulin),
            basal_rates=np.full(len(cgm), self.therapy.basal / MINUTES_PER_DAY))

    def result(self) -> TrialResult:
        return TrialResult(patient=self.params, arm=self.arm, scenario=self.spec.id,
                           days=self.days, day_traces=self.day_traces,
                           glucose=self.glucose, final_agents=self.bundle,
                           transfer_entropy_bits=self.te_bits, risk_class=self.risk)


def run_trial(params: pat.PatientParams, advisor_kind: str, spec: ScenarioSpec,
              master_seed: int, days: int,
              rescue_threshold: float = pat.RESCUE) -> TrialResult:
    """Simulate one patient under one advisor arm for `days` days, the first
    init.COLLECTION_DAYS of them the collection phase.

    Environment randomness (meals, misestimation, readings, sensitivity) is
    seeded independently of the arm, so paired arms face the same world. The
    dawn effect is on for a type 1 patient and off for a type 2 one.
    `pat.load_kernel()`'s integrate steps every minute of the day. It is
    called up to the next event minute, and returns early at a minute where
    its rescue poll fires. At such a minute, and at each event minute after
    the driver's own rescue poll, the handlers run in a fixed order (rescue,
    pre-meal, post-prandial, bedtime); their carbohydrate and insulin are
    deposited, and the kernel is called again from that minute, which it
    polls again and then steps. `rescue_threshold` may not exceed pat.HYPO,
    the re-arm level, or that second poll could fire again.
    """
    if advisor_kind not in (ABBA, BBA):
        raise ValueError(f"unknown advisor arm {advisor_kind!r}")
    if days <= init.COLLECTION_DAYS:
        raise ValueError("trial must extend past the collection phase")
    if rescue_threshold > pat.HYPO:
        raise ValueError(f"rescue_threshold {rescue_threshold} is above the "
                         f"re-arm level {pat.HYPO}")

    trial = Trial(params, advisor_kind, spec, master_seed, days)
    sensitivity = pat.SensitivitySchedule(
        dawn_enabled=params.diabetes_type == pat.T1D,
        interday_variability_pct=spec.interday_sensitivity)
    dawn_base = np.array([pat.dawn_multiplier(sensitivity, m)
                          for m in range(MINUTES_PER_DAY)])
    integrate = pat.load_kernel()
    consts = array("d", pat._model_constants(params))
    y = array("d", pat.equilibrium_state(params, trial.therapy.basal))
    rescue = RescueController(threshold=rescue_threshold)

    for day in range(1, days + 1):
        day_factor = pat.draw_interday_factor(sensitivity, trial.streams["sens"])
        cho, pre_meal_at, post_prandial_at, basal_minute = trial.start_day(day)
        sens = array("d", (dawn_base * day_factor).tobytes())
        g_day = array("d", bytes(8 * MINUTES_PER_DAY))
        minute = 0
        for stop in (*sorted({*pre_meal_at, *post_prandial_at, basal_minute}),
                     MINUTES_PER_DAY):
            while (minute := integrate(y, consts, sens, cho, g_day, minute, stop,
                                       rescue)) < stop:      # its rescue poll fired
                cho[minute] += trial.rescue(minute, y[8])
            if stop == MINUTES_PER_DAY:
                break
            g = y[8]
            if rescue.poll(g) > 0.0:
                cho[stop] += trial.rescue(stop, g)
            meal = pre_meal_at.get(stop)
            if meal is not None:
                y[2] += trial.pre_meal(meal, stop, g)
            meal = post_prandial_at.get(stop)
            if meal is not None:
                y[2] += trial.post_prandial(meal, stop, g)
            if stop == basal_minute:
                y[4] += trial.bedtime(stop, g)
        trial.midnight(g_day)

    return trial.result()


# --- trace persistence ------------------------------------------------------------
#
# One trial is stored as a pair of files with one stem. The .npy holds the
# minute plasma glucose (mg/dL): one C-order little-endian float64 array of
# shape (days, 1440), row d-1 for day d. The .txt is a columnar text file with
# one row per event:
#
#     day,minute,kind,value,aux
#
# Kind codes:
#     T  the therapy active that day, one row per day at minute 0 whose value
#        is the eight fields icr1 icr2 icr3 ps1 ps2 ps3 cf basal, space-separated
#     M  SMBG reading (aux = measurement slot label); a rescue is the reading
#        of slot `rescue` taken the minute it fires
#     I  insulin delivery (aux = kind: bolus, correction or basal)
#     C  carbohydrate intake (aux = slot:duration:announced, announced "-" if none)
#     U  day's total delivered insulin, written once at minute 1439; as the
#        day's last row it also marks the day complete
#
# The header lines before the column names hold each trial fact once, and a
# field given twice is rejected. `# days` is the trial length; the collection
# phase is always its first init.COLLECTION_DAYS days, and the starting
# therapy is day 1's T row.
#
# Every float in the text is written with repr(), and the array holds the
# exact bits, so a rewrite of a parsed pair reproduces both files byte for
# byte. The .npy is TrialResult.glucose as it is, written and digested in
# place with no copy, and a read hands the loaded array to the result whole.
# The text's `# glucose` header is the sha256 of the array's bytes, which
# binds the two files together. An ABBA trace also holds the final
# agent bundle as header lines `# agent.<agent>.<field> <values>`, one per
# line of advisor.bundle_to_text; a BBA trace holds none.

TRACE_SCHEMA = "abbalab-trace v7"

_PATIENT_FIELDS = tuple(f.name for f in dataclasses.fields(pat.PatientParams))
_THERAPY_FIELDS = ("icr1", "icr2", "icr3", "ps1", "ps2", "ps3", "cf", "basal")
# Header fields that describe the trial itself; any other header field is run
# provenance (config hash, master seed) handed back to the caller.
_RESULT_HEADERS = ("patient", "arm", "scenario", "days", "transfer_entropy",
                   "risk_class", "glucose")
_GLUCOSE_DTYPE = np.dtype("<f8")
_AGENT_PREFIX = "# agent."


def _fmt(x) -> str:
    return repr(float(x))


def _therapy_text(snapshot: TherapySnapshot) -> str:
    return " ".join(_fmt(v) for v in
                    (*snapshot.icr, *snapshot.ps, snapshot.cf, snapshot.basal))


def _digest(glucose: np.ndarray) -> str:
    return hashlib.sha256(glucose).hexdigest()


def trace_to_text(result: TrialResult, headers: dict[str, str] | None = None) -> str:
    """Serialize one trial to the columnar text trace, without its glucose."""
    lines = [f"# {TRACE_SCHEMA}"]
    for key, value in (headers or {}).items():
        lines.append(f"# {key} {value}")
    patient_vals = " ".join(
        str(getattr(result.patient, f)) if f in ("id", "diabetes_type")
        else _fmt(getattr(result.patient, f)) for f in _PATIENT_FIELDS)
    lines.append(f"# patient {patient_vals}")
    lines.append(f"# arm {result.arm}")
    lines.append(f"# scenario {result.scenario}")
    lines.append(f"# days {result.days}")
    te = result.transfer_entropy_bits
    lines.append(f"# transfer_entropy {'-' if te is None else _fmt(te)}")
    rc = result.risk_class
    lines.append("# risk_class " +
                 ("-" if rc is None else f"{rc.variability}:{rc.nocturnal_risk}"))
    lines.append(f"# glucose {_digest(result.glucose)}")
    if result.final_agents is not None:
        lines.extend(_AGENT_PREFIX + line for line in
                     adv.bundle_to_text(result.final_agents).splitlines())
    lines.append("day,minute,kind,value,aux")
    for trace in result.day_traces:
        d = trace.day
        lines.append(f"{d},0,T,{_therapy_text(trace.therapy)},")
        offset = float((d - 1) * MINUTES_PER_DAY)
        for meas in trace.measurements:
            lines.append(f"{d},{_fmt(meas.timestamp - offset)},M,"
                         f"{_fmt(meas.value)},{meas.slot}")
        for rec in trace.insulin:
            lines.append(f"{d},{_fmt(rec.timestamp - offset)},I,"
                         f"{_fmt(rec.dose_u)},{rec.kind}")
        for meal in trace.meals:
            announced = "-" if meal.announced_g is None else _fmt(meal.announced_g)
            lines.append(f"{d},{meal.minute},C,{_fmt(meal.cho_g)},"
                         f"{meal.slot}:{meal.duration_min}:{announced}")
        lines.append(f"{d},{MINUTES_PER_DAY - 1},U,{_fmt(trace.total_insulin_u)},")
    return "\n".join(lines) + "\n"


def write_trace(path: str | Path, result: TrialResult,
                headers: dict[str, str] | None = None) -> None:
    """Write one trial as its trace pair: the glucose array to `path` with the
    suffix .npy, then the text trace to `path`. The text goes last, so a
    directory listing of text traces names only complete pairs."""
    path = Path(path)
    with open(path.with_suffix(".npy"), "wb") as fh:
        np.save(fh, result.glucose, allow_pickle=False)
    path.write_text(trace_to_text(result, headers))


def read_trace(path: str | Path) -> tuple[TrialResult, dict[str, str]]:
    """Load the trace pair that `write_trace(path, ...)` wrote; see
    trace_from_text. A missing, malformed or mismatched file raises
    ValueError naming it."""
    path = Path(path)
    npy = path.with_suffix(".npy")
    try:
        with open(npy, "rb") as fh:
            glucose = np.load(fh, allow_pickle=False)
    except (OSError, EOFError, ValueError) as exc:
        raise ValueError(f"{npy.name}: cannot load the glucose array: {exc}") from None
    try:
        return trace_from_text(path.read_text(), glucose)
    except ValueError as exc:
        raise ValueError(f"{path.name}: {exc}") from None


def _parse_header(lines: list[str]) -> tuple[dict[str, str], list[str], int]:
    """The header fields, the agent bundle's lines, and where the body starts.
    A field given twice raises ValueError naming it."""
    fields, bundle = {}, []
    i = 1                       # line 0 is the schema tag
    while i < len(lines) and lines[i].startswith("# "):
        if lines[i].startswith(_AGENT_PREFIX):
            bundle.append(lines[i][len(_AGENT_PREFIX):])
        else:
            key, _, rest = lines[i][2:].partition(" ")
            if key in fields:
                raise ValueError(f"trace header '{key}' given twice")
            fields[key] = rest
        i += 1
    return fields, bundle, i


def _header_values(fields: dict[str, str], key: str, count: int) -> list[str]:
    values = fields[key].split()
    if len(values) != count:
        raise ValueError(f"trace header '{key}' holds {len(values)} values, "
                         f"expected {count}")
    return values


def _snapshot_from(values: list[str]) -> TherapySnapshot:
    icr1, icr2, icr3, ps1, ps2, ps3, cf, basal = (float(v) for v in values)
    return TherapySnapshot(icr=(icr1, icr2, icr3), ps=(ps1, ps2, ps3), cf=cf,
                           basal=basal)


def trace_from_text(text: str, glucose: np.ndarray) -> tuple[TrialResult, dict[str, str]]:
    """Parse a text trace and its glucose array back into a TrialResult,
    with an ABBA trial's final agents. `glucose` becomes the result's
    glucose whole, copied only if it is not C-ordered.

    Returns the result plus every header field, so a rerun of the analytics
    can carry the original provenance lines through to its own outputs.
    """
    lines = text.splitlines()
    if not lines or lines[0] != f"# {TRACE_SCHEMA}":
        raise ValueError(f"unsupported trace schema; expected '# {TRACE_SCHEMA}'")
    fields, bundle, body_start = _parse_header(lines)
    missing = [k for k in _RESULT_HEADERS if k not in fields]
    if missing:
        raise ValueError(f"trace header missing fields: {', '.join(missing)}")
    if body_start >= len(lines) or lines[body_start] != "day,minute,kind,value,aux":
        raise ValueError("trace column header missing; file truncated?")

    raw = _header_values(fields, "patient", len(_PATIENT_FIELDS))
    params = pat.PatientParams(
        id=int(raw[0]), diabetes_type=raw[1],
        **{f: float(v) for f, v in zip(_PATIENT_FIELDS[2:], raw[2:])})
    arm = fields["arm"]
    if arm not in (ABBA, BBA):
        raise ValueError(f"trace arm {arm!r} is not {ABBA} or {BBA}")
    scenario = fields["scenario"]
    if scenario not in SCENARIOS:
        raise ValueError(f"trace scenario {scenario!r} is not one of "
                         f"{sorted(SCENARIOS)}")
    if (arm == ABBA) != bool(bundle):
        raise ValueError(f"{arm} trace {'lacks' if arm == ABBA else 'holds'} "
                         "an agent bundle")
    agents = adv.bundle_from_text("\n".join(bundle)) if bundle else None
    (days_raw,) = _header_values(fields, "days", 1)
    days = int(days_raw)
    te_raw = fields["transfer_entropy"]
    te = None if te_raw == "-" else float(te_raw)
    rc_raw = fields["risk_class"]
    risk = None
    if rc_raw != "-":
        variability, nocturnal = rc_raw.split(":")
        risk = init.RiskClass(variability=variability, nocturnal_risk=nocturnal)

    (digest,) = _header_values(fields, "glucose", 1)
    if not isinstance(glucose, np.ndarray) or glucose.dtype != _GLUCOSE_DTYPE:
        found = getattr(glucose, "dtype", type(glucose).__name__)
        raise ValueError(f"glucose array holds {found}, expected {_GLUCOSE_DTYPE.str}")
    if glucose.shape != (days, MINUTES_PER_DAY):
        raise ValueError(f"glucose array has shape {glucose.shape}, "
                         f"expected {(days, MINUTES_PER_DAY)}")
    glucose = np.ascontiguousarray(glucose)
    if _digest(glucose) != digest:
        raise ValueError("glucose array does not match the trace's glucose digest")

    per_day: dict[int, dict] = {}
    for lineno, line in enumerate(lines[body_start + 1:], body_start + 2):
        parts = line.split(",", 4)
        if len(parts) != 5:
            raise ValueError(f"malformed trace row at line {lineno}: {line!r}")
        d = int(parts[0])
        bucket = per_day.setdefault(d, {
            "therapy": None, "measurements": [], "insulin": [], "meals": [],
            "total": None})
        minute, kind, value, aux = parts[1], parts[2], parts[3], parts[4]
        offset = float((d - 1) * MINUTES_PER_DAY)
        if kind == "T":
            if bucket["therapy"] is not None:
                raise ValueError(f"second therapy row for day {d} at line {lineno}")
            values = value.split()
            if len(values) != len(_THERAPY_FIELDS):
                raise ValueError(f"therapy row at line {lineno} holds {len(values)} "
                                 f"values, expected {len(_THERAPY_FIELDS)}")
            bucket["therapy"] = _snapshot_from(values)
        elif kind == "M":
            bucket["measurements"].append(adv.Measurement(
                value=float(value), timestamp=float(minute) + offset, slot=aux))
        elif kind == "I":
            bucket["insulin"].append(adv.InsulinRecord(
                dose_u=float(value), kind=aux, timestamp=float(minute) + offset))
        elif kind == "C":
            slot, duration, announced = aux.split(":")
            bucket["meals"].append(MealEvent(
                slot=int(slot), minute=int(minute), duration_min=int(duration),
                cho_g=float(value),
                announced_g=None if announced == "-" else float(announced)))
        elif kind == "U":
            bucket["total"] = float(value)
        else:
            raise ValueError(f"unknown trace kind {kind!r} at line {lineno}")

    expected = range(1, days + 1)
    if sorted(per_day) != list(expected):
        missing = sorted(set(expected) - set(per_day))
        extra = sorted(set(per_day) - set(expected))
        raise ValueError(f"expected days 1 to {days}: missing {missing}, "
                         f"unexpected {extra}")
    day_traces = []
    for d in expected:
        bucket = per_day[d]
        if bucket["therapy"] is None or bucket["total"] is None:
            raise ValueError(f"day {d} incomplete; file truncated?")
        day_traces.append(DayTrace(
            day=d, measurements=bucket["measurements"],
            insulin=bucket["insulin"], meals=bucket["meals"],
            therapy=bucket["therapy"], total_insulin_u=bucket["total"]))

    result = TrialResult(patient=params, arm=arm, scenario=scenario, days=days,
                         day_traces=day_traces, glucose=glucose, final_agents=agents,
                         transfer_entropy_bits=te, risk_class=risk)
    extra = {k: v for k, v in fields.items() if k not in _RESULT_HEADERS}
    return result, extra
