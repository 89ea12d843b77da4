"""Trial engine: day scheduling, meal sampling and misestimation, injection
timing, the rescue controller, and the three-phase pipeline (two-week
collection under the static advisor, initialization, on-line learning).

run_trial is single-threaded per patient. It binds the patient kernel to
the trial's numpy buffers once and runs each day as one minute-sorted table
of events. The kernel's step integrates the minutes up to the next event and
stops early where the rescue fires; there, and at each event, one handler of
the Trial state takes the minute, reads glucose from the kernel state and
deposits what it delivers before the step integrates that minute. The Trial
keeps each fact once: a day's DayTrace, the only record of its events, holds
the schedule's meals and their announced grams, the handlers append readings
and doses to it, and the kernel writes the day's minute glucose straight
into its row of the trial's one (days, 1440) array. The collection log, an
open post-meal window's readings, the basal agent's readings, the overnight
readings, the previous day's total dose and the insulin on board are derived
from those records. Beyond them the ABBA arm keeps only learner memory, and
every agent steps through advisor.learn and advisor.act. The cohort runner
fans out with disjoint per-patient seed streams derived from the master
seed, so the arm never perturbs its twin's meals, announcement errors or
sensitivity draws. Reading noise is shared too until one arm has a rescue
the other lacks: rescue readings draw from the same SMBG stream.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import math
import operator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import advisor as adv
from . import initialisation as init
from . import patient as pat
from .patient import MINUTES_PER_DAY

ABBA = "abba"
BBA = "bba"
ARMS = (ABBA, BBA)

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

# The slot label of each SMBG reading the protocol takes.
PRE_MEAL_SLOTS = ("pre_breakfast", "pre_lunch", "pre_dinner")
POST_PRANDIAL_SLOT = "post_prandial"
BEDTIME_SLOT = "bedtime"
RESCUE_SLOT = "rescue"
READING_SLOTS = (*PRE_MEAL_SLOTS, POST_PRANDIAL_SLOT, BEDTIME_SLOT, RESCUE_SLOT)
# The kind of the dose each reading may answer, at its minute; a rescue answers none.
_SLOT_KINDS = {**dict.fromkeys(PRE_MEAL_SLOTS, adv.BOLUS_KIND),
               POST_PRANDIAL_SLOT: adv.CORRECTION_KIND, BEDTIME_SLOT: adv.BASAL_KIND}

_TRIAL_TAG = 0x7121A1


@dataclass(frozen=True)
class ScenarioSpec:
    id: str
    misestimation: tuple[float, float] = (0.70, 1.10)
    interday_sensitivity: float = 0.0
    correction_boluses: bool = False


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
    pat.HYPO, so one hypoglycaemic episode triggers one rescue. The step of
    `pat.integrate` polls it every minute it steps; the compiled kernel
    transcribes `poll`.

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
class TherapySnapshot:
    icr: tuple[float, float, float]
    ps: tuple[float, float, float]
    cf: float
    basal: float


@dataclass
class DayTrace:
    """One trial day's events, the only record of them: the therapy active
    that day, the schedule's MealPlans, the grams announced for slots 0-2
    (the snack is never announced), and the SMBG readings and insulin
    deliveries in the order they were taken. Trial opens it at the start of
    the day and its handlers append to it; the total insulin is derived.
    An on-line day's minute glucose is row `day - 1 - init.COLLECTION_DAYS`
    of TrialResult.glucose. A rescue is the reading of slot RESCUE_SLOT
    taken the minute it fires."""
    day: int
    therapy: TherapySnapshot
    meals: tuple[MealPlan, ...]
    announced: tuple[float, ...]
    measurements: list = dataclasses.field(default_factory=list)
    insulin: list = dataclasses.field(default_factory=list)

    @property
    def rescues(self) -> tuple:
        """The day's rescue readings, in the order they fired."""
        return tuple(m for m in self.measurements if m.slot == RESCUE_SLOT)

    @property
    def total_insulin_u(self) -> float:
        """The day's total delivered insulin: its doses summed in order, one
        float add each (sum() compensates from Python 3.12 on)."""
        total = 0.0
        for rec in self.insulin:
            total += rec.dose_u
        return total


@dataclass
class TrialResult:
    """One patient's trial under one arm. The collection phase is always
    the first init.COLLECTION_DAYS days. `glucose` is the on-line days'
    plasma glucose (mg/dL): a C-order float64 array of shape
    (days - init.COLLECTION_DAYS, 1440), row d-15 for day d, a view of the
    Trial's whole array in a simulated result. `day_traces` holds every
    day's events; the first day's therapy is the starting therapy."""
    patient: pat.PatientParams
    arm: str
    scenario: str
    days: int
    day_traces: list
    glucose: np.ndarray
    final_agents: dict[adv.AgentKind, adv.AgentState] | None
    transfer_entropy_bits: float | None
    risk_class: init.RiskClass | None


def initial_therapy_for(params: pat.PatientParams,
                        rng: np.random.Generator) -> adv.TherapyParams:
    """Starting therapy: simulator-derived for T1D, weight-based for T2D,
    then the protocol's one-time +/-10% uniform perturbation on ICRs and basal."""
    if params.diabetes_type == pat.T1D:
        basal, icr, cf = dataclasses.astuple(pat.nominal_therapy(params))
    else:
        _, basal, icr, cf = init.t2d_initial_therapy(params.body_weight)
    icr_slots = [icr * float(rng.uniform(0.9, 1.1)) for _ in range(3)]
    basal_p = basal * float(rng.uniform(0.9, 1.1))
    return adv.TherapyParams(icr=icr_slots, ps=[1.0, 1.0, 1.0], cf=cf, basal=basal_p)


def _trial_streams(master_seed: int, spec: ScenarioSpec,
                   params: pat.PatientParams) -> dict[str, np.random.Generator]:
    type_code = 1 if params.diabetes_type == pat.T1D else 2
    root = np.random.SeedSequence(
        [_TRIAL_TAG, int(master_seed), int(spec.id[1:]), type_code, params.id])
    names = ("schedule", "announce", "smbg", "cgm", "sens", "therapy", "agents")
    children = root.spawn(len(names))
    return {n: np.random.default_rng(c) for n, c in zip(names, children)}


def _snapshot(therapy: adv.TherapyParams) -> TherapySnapshot:
    return TherapySnapshot(icr=tuple(therapy.icr), ps=tuple(therapy.ps),
                           cf=therapy.cf, basal=therapy.basal)


class Trial:
    """One patient's trial under one arm, as the state events act on.

    Holds the therapy, the current day's open DayTrace, the finished days'
    DayTraces, the kernel state `y`, the trial's minute glucose, the day's
    per-minute carbohydrate delivery `cho`, the seed streams and, in the ABBA
    arm only, the agents and their memory: each slot's last post-meal
    features, the open window and the last bedtime's basal state. The agents
    exist from the last collection day's midnight on, exactly the days that
    learn. A window's readings, the basal agent's and the overnight pair are
    derived from the DayTraces. A handler takes only the minute, reads true
    plasma glucose from `y` and deposits what it delivers: the rescue's
    grams into `cho`, boluses and the basal shot (U) into their depots of `y`.
    """

    def __init__(self, params: pat.PatientParams, advisor_kind: str,
                 spec: ScenarioSpec, master_seed: int, days: int):
        self.params = params
        self.adaptive = advisor_kind == ABBA
        self.spec = spec
        self.streams = _trial_streams(master_seed, spec, params)
        self.therapy = initial_therapy_for(params, self.streams["therapy"])
        self.beta = adv.beta_for(params.diabetes_type)
        self.bundle: dict[adv.AgentKind, adv.AgentState] | None = None
        self.te_bits: float | None = None
        self.risk: init.RiskClass | None = None

        # Learner memory, kept by the adaptive arm only. The open post-meal
        # window is (slot, index of its first reading today, the ((kind,
        # state), ...) its pre-meal actions read, or None), or None.
        self.slot_features: dict[int, adv.FeatureVector] = {}
        self.window: tuple | None = None
        self.basal_state: np.ndarray | None = None  # last bedtime's

        self.day_traces: list[DayTrace] = []
        self.y = np.array(pat.equilibrium_state(params, self.therapy.basal))
        self.glucose = np.empty((days, MINUTES_PER_DAY), dtype=_GLUCOSE_DTYPE)
        self.cho = np.zeros(MINUTES_PER_DAY)

    def start_day(self, day: int) -> list:
        """Draw day `day`'s schedule with its meal announcements, fill the
        day's per-minute CHO delivery (g) into `self.cho`, and open its
        DayTrace.

        Returns the day's events as (minute, handler) pairs sorted by
        minute: each announced meal's pre-meal reading, its post-prandial
        reading (S4 only, when before the bedtime injection), and the
        bedtime injection. No two share a minute: the windows of MEAL_TABLE
        and BASAL_WINDOW keep them apart.
        """
        self.day_offset = (day - 1) * MINUTES_PER_DAY
        sched = sample_day(self.spec, self.streams["schedule"])

        cho = self.cho
        cho.fill(0.0)
        for meal in sched.meals:
            intake = cho[meal.start_minute:meal.start_minute + meal.duration_min]
            intake += meal.cho_g / meal.duration_min
        announced_meals = [meal for meal in sched.meals if meal.bolus_minute is not None]
        rng = self.streams["announce"]
        self.today = DayTrace(
            day=day, therapy=_snapshot(self.therapy), meals=sched.meals,
            announced=tuple(announce_cho(meal.cho_g, self.spec, rng)
                            for meal in announced_meals))

        events = [(meal.bolus_minute, functools.partial(self.pre_meal, meal))
                  for meal in announced_meals]
        if self.spec.correction_boluses:
            events += [(m, functools.partial(self.post_prandial, meal))
                       for meal in announced_meals
                       if (m := meal.start_minute + POST_PRANDIAL_DELAY) < sched.basal_minute]
        events.append((sched.basal_minute, self.bedtime))
        return sorted(events, key=lambda event: event[0])

    def _read(self, minute: int, slot: str) -> float:
        value = pat.read_smbg(self.y.item(pat.PLASMA_GLUCOSE), self.streams["smbg"])
        self.today.measurements.append(adv.Measurement(
            value=value, timestamp=self.day_offset + minute, slot=slot))
        return value

    def _deliver(self, dose: float, kind: str, minute: int, depot: int) -> None:
        self.today.insulin.append(adv.InsulinRecord(
            dose_u=dose, kind=kind, timestamp=self.day_offset + minute))
        self.y[depot] += dose

    def _overnight(self) -> np.ndarray:
        """The overnight pair of today's first reading, taken before any
        handler asks, and yesterday's last (none on day 1)."""
        last_night = self.day_traces[-1].measurements[-1].value if self.day_traces else None
        return adv.overnight_delta(self.today.measurements[0].value, last_night)

    def _since_last_bedtime(self) -> list[float]:
        """The basal agent's readings: those after yesterday's bedtime reading
        (none on day 1), which can only be rescues, then today's."""
        yesterday = self.day_traces[-1].measurements if self.day_traces else []
        after = len(yesterday)
        while after and yesterday[after - 1].slot == RESCUE_SLOT:
            after -= 1
        return [m.value for m in (*yesterday[after:], *self.today.measurements)]

    def _iob(self, minute: int) -> float:
        # Records older than yesterday's are past DIA_MIN, which iob skips.
        yesterday = self.day_traces[-1].insulin if self.day_traces else []
        return adv.iob([*yesterday, *self.today.insulin], self.day_offset + minute)

    def _slot_states(self, slot: int, features: adv.FeatureVector) -> tuple:
        """((kind, state), ...) of the slot's ICR and PS agents; a 2-dim state
        is the feature pair alone, so the two agents share it."""
        icr, ps = adv.ICR_AGENTS[slot], adv.PS_AGENTS[slot]
        s_ps = adv.build_state(ps, features)
        if icr.state_dim == ps.state_dim:
            return ((icr, s_ps), (ps, s_ps))
        return ((icr, adv.build_state(icr, features, self._overnight())), (ps, s_ps))

    def _close_window(self) -> None:
        """End the open post-meal window with the reading just taken: the
        slot's agents learn from the states their pre-meal actions read."""
        if self.window is None:
            return
        slot, first, states = self.window
        f_new = adv.bolus_features([m.value for m in self.today.measurements[first:]])
        if states is not None:
            for (kind, s_t), (_, s_n) in zip(states, self._slot_states(slot, f_new)):
                adv.learn(self.bundle[kind], s_t, s_n, self.beta)
        self.slot_features[slot] = f_new
        self.window = None

    def rescue(self, minute: int) -> None:
        """Rescue carbohydrate fired: the patient takes a reading and
        RESCUE_GRAMS of fast glucose."""
        self._read(minute, RESCUE_SLOT)
        self.cho[minute] += RESCUE_GRAMS

    def pre_meal(self, meal: MealPlan, minute: int) -> None:
        """Pre-meal reading, the slot's ICR/PS actions, then the meal bolus."""
        slot = meal.slot
        reading = self._read(minute, PRE_MEAL_SLOTS[slot])
        if self.adaptive:
            self._close_window()
            states = None
            if self.bundle is not None:    # day 1 closed every slot's first window
                f_prev = self.slot_features[slot]
                states = self._slot_states(slot, f_prev)
                for kind, s_t in states:
                    adv.act(self.bundle[kind], s_t, f_prev, self.therapy)
            self.window = (slot, len(self.today.measurements), states)
        dose = adv.bolus_recommendation(self.today.announced[slot], reading,
                                        self.therapy, slot, self._iob(minute))
        if dose > 0.0:
            self._deliver(dose, adv.BOLUS_KIND, minute, pat.RAPID_DEPOT)

    def post_prandial(self, meal: MealPlan, minute: int) -> None:
        """S4's post-prandial reading and correction bolus above the hyper bound."""
        reading = self._read(minute, POST_PRANDIAL_SLOT)
        dose = adv.correction_bolus(reading, self.therapy, self.therapy.ps[meal.slot],
                                    self._iob(minute))
        if dose is not None and dose > 0.0:
            self._deliver(dose, adv.CORRECTION_KIND, minute, pat.RAPID_DEPOT)

    def bedtime(self, minute: int) -> None:
        """Bedtime reading, the basal agent's step, then the basal injection."""
        self._read(minute, BEDTIME_SLOT)
        if self.adaptive:
            self._close_window()
            feats = adv.bolus_features(self._since_last_bedtime())
            s_now = adv.build_state(adv.AgentKind.BASAL, feats, self._overnight())
            if self.bundle is not None:    # day 14's bedtime set the state learned from
                agent = self.bundle[adv.AgentKind.BASAL]
                adv.learn(agent, self.basal_state, s_now, self.beta)
                adv.act(agent, s_now, feats, self.therapy,
                        prev_tdd=self.day_traces[-1].total_insulin_u)
            self.basal_state = s_now
        self._deliver(self.therapy.basal, adv.BASAL_KIND, minute, pat.LONG_DEPOT)

    def midnight(self) -> None:
        """Close the day, whose minute glucose the kernel wrote into its row of
        the trial's array, and on the last collection day initialise the ABBA
        agents."""
        today = self.today
        self.day_traces.append(today)
        if today.day == init.COLLECTION_DAYS and self.adaptive:
            self.bundle, self.te_bits, self.risk = init.initialise_agents(
                self._collection_log(), self.params.diabetes_type, self.streams["agents"])

    def _collection_log(self) -> init.CollectionLog:
        """The collection weeks as the initialisation reads them: a CGM sample
        every CGM_INTERVAL_MIN, read in one draw from the strided view
        glucose[:COLLECTION_DAYS, ::CGM_INTERVAL_MIN] (day by day, in minute
        order), the insulin delivered, and the basal rate, which only changes
        in the on-line phase."""
        cgm = pat.read_smbg(
            self.glucose[:init.COLLECTION_DAYS, ::init.CGM_INTERVAL_MIN],
            self.streams["cgm"]).reshape(-1)
        return init.CollectionLog(
            cgm=cgm,
            cgm_times=np.arange(0, init.COLLECTION_DAYS * MINUTES_PER_DAY,
                                init.CGM_INTERVAL_MIN, dtype=float),
            insulin_records=tuple(r for t in self.day_traces[:init.COLLECTION_DAYS]
                                  for r in t.insulin),
            basal_rates=np.full(len(cgm), self.therapy.basal / MINUTES_PER_DAY))


def run_trial(params: pat.PatientParams, advisor_kind: str, spec: ScenarioSpec,
              master_seed: int, days: int) -> TrialResult:
    """Simulate one patient under one advisor arm for `days` days, the first
    init.COLLECTION_DAYS of them the collection phase.

    Environment randomness (meals, misestimation, readings, sensitivity) is
    seeded independently of the arm, so paired arms face the same world. The
    dawn effect is on for a type 1 patient and off for a type 2 one.
    `pat.load_kernel()`'s kernel, bound once to the trial's state,
    constants, sensitivity and carbohydrate rows and glucose array, steps
    every minute of the day. Its step is called up to the next minute of
    the day's event table, and returns early at a minute where its rescue
    poll fires; there Trial.rescue takes the minute. At each event minute
    the day loop polls the rescue too, then calls the event's handler; what
    they deposit enters the step called again from that minute, whose
    second poll is a no-op (see RescueController), and which then steps it.
    The result's glucose is the on-line days' rows of the Trial's array,
    whose collection rows only the initialisation reads.
    """
    if advisor_kind not in ARMS:
        raise ValueError(f"unknown advisor arm {advisor_kind!r}")
    if days <= init.COLLECTION_DAYS:
        raise ValueError("trial must extend past the collection phase")

    trial = Trial(params, advisor_kind, spec, master_seed, days)
    sensitivity = pat.SensitivitySchedule(
        dawn_enabled=params.diabetes_type == pat.T1D,
        interday_variability_pct=spec.interday_sensitivity)
    dawn = pat.dawn_day(sensitivity.dawn_enabled)
    sens = np.empty(MINUTES_PER_DAY)                   # dawn * the day's factor
    step = pat.load_kernel()(trial.y, np.array(pat._model_constants(params)), sens,
                             trial.cho, trial.glucose)
    rescue = RescueController()

    for day in range(1, days + 1):
        np.multiply(dawn, pat.draw_interday_factor(sensitivity, trial.streams["sens"]),
                    out=sens)
        minute = 0
        for stop, handler in (*trial.start_day(day), (MINUTES_PER_DAY, None)):
            while (minute := step(day - 1, minute, stop, rescue)) < stop:
                trial.rescue(minute)                # its rescue poll fired
            if handler is None:
                break
            if rescue.poll(trial.y.item(pat.PLASMA_GLUCOSE)) > 0.0:
                trial.rescue(stop)
            handler(stop)
        trial.midnight()

    return TrialResult(patient=params, arm=advisor_kind, scenario=spec.id, days=days,
                       day_traces=trial.day_traces,
                       glucose=trial.glucose[init.COLLECTION_DAYS:],
                       final_agents=trial.bundle, transfer_entropy_bits=trial.te_bits,
                       risk_class=trial.risk)


# --- trace persistence ------------------------------------------------------------
#
# One trial is stored as a pair of files with one stem. The .npy holds the
# on-line days' minute plasma glucose (mg/dL): one C-order little-endian
# float64 array of shape (days - 14, 1440), row d-15 for day d. No command
# reads the collection days' minutes back, and re-running the trace's config
# and seed reproduces them. The .txt is a columnar text file with
# one row per event, its minute a whole number of minutes into the day:
#
#     day,minute,kind,value,aux
#
# Kind codes:
#     T  the therapy active that day, at minute 0, written on day 1 and on
#        each day whose therapy differs from the day before; its value is the
#        eight fields icr1 icr2 icr3 ps1 ps2 ps3 cf basal, space-separated
#     M  SMBG reading, aux = its slot (one of READING_SLOTS), or slot:dose
#        when a dose in units, of kind _SLOT_KINDS[slot], answers it; a rescue
#        is the reading of slot `rescue` taken the minute it fires, no dose
#     C  one MealPlan of the day, at its start minute: value = grams eaten,
#        aux = slot:duration:announced, with the grams announced for slots
#        0-2 from the day's announced tuple and "-" for the snack, slot 3
#     U  the day's total delivered insulin, DayTrace's derived total, at
#        minute 1439: the mark of a complete day
#
# A day is its T row if it has one, its M and C rows, then its U row; days
# run 1 to `# days` in order. A day without a T row keeps the therapy of the
# day before. The header lines before the column names hold each trial fact
# once: `# days` is the trial length, the collection phase is always its
# first init.COLLECTION_DAYS days, and the starting therapy is day 1's T row.
# An ABBA trace also holds the final agent bundle as header lines
# `# agent.<agent>.<field> <values>`, one per line of advisor.bundle_to_text.
# The .npy is TrialResult.glucose as it is, written and digested in place with
# no copy, and the text's `# glucose` header, the sha256 of the array's bytes,
# binds the two files together.
#
# The reader accepts only the bytes the writer writes; only v11 is read.
# trace_from_text builds each day once, in one pass, and opens a day at its
# first row. Day 1 opens with its T row, and any other day's T row is its
# first row; a T row that repeats the day before's therapy is never written,
# so the rewrite below rejects it. A row only becomes a record, and names its
# line when its meaning is wrong: its minute is an integer inside the day,
# every number in its value and aux fields is finite and at least 0, a reading
# lies within [SMBG_FLOOR, SMBG_CEIL], a bedtime reading has a dose and a
# rescue none, and a meal lasts a minute or more, is over by minute 1440 and,
# unless it is the snack, is announced within the scenario's misestimation of
# its grams. The day check runs once, at the U row, and names the day and that
# row's line: its C rows are slots 0 to 3 in order; its readings run in minute
# order, a minute's rescue before its one other reading; it holds one reading
# of each pre-meal slot, BOLUS_LEAD_RANGE minutes before its meal, one bedtime
# reading, and post_prandial readings exactly where the scenario takes them
# (S4 only, POST_PRANDIAL_DELAY after each main meal's start, before the
# bedtime minute). `# transfer_entropy` and `# risk_class` read "-" exactly
# when there is no agent bundle. The reader then rewrites the parsed trial,
# every float with repr() as the writer writes it, and rejects a text that
# differs, naming the first differing line. So a trace's bytes identify its
# content, and a parsed pair rewrites both files byte for byte.

TRACE_SCHEMA = "abbalab-trace v11"

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


def trace_to_text(result: TrialResult, headers: dict[str, str] | None = None,
                  digest: str | None = None) -> str:
    """Serialize one trial to the columnar text trace, without its glucose.
    `digest` is the glucose digest when the caller has already computed it.
    Each dose goes on the reading it answers, in order: the next reading at
    its minute whose slot answers its kind. A dose left over raises ValueError."""
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
    lines.append(f"# glucose {digest or _digest(result.glucose)}")
    if result.final_agents is not None:
        lines.extend(_AGENT_PREFIX + line for line in
                     adv.bundle_to_text(result.final_agents).splitlines())
    lines.append("day,minute,kind,value,aux")
    therapy = None
    for trace in result.day_traces:
        d = trace.day
        if trace.therapy != therapy:            # day 1, or the therapy changed
            therapy = trace.therapy
            lines.append(f"{d},0,T,{_therapy_text(therapy)},")
        offset = (d - 1) * MINUTES_PER_DAY
        doses = iter(trace.insulin)
        dose = next(doses, None)
        for meas in trace.measurements:         # each dose on the reading it answers
            at, aux = operator.index(meas.timestamp), meas.slot
            if (dose is not None and operator.index(dose.timestamp) == at
                    and _SLOT_KINDS.get(aux) == dose.kind):
                aux, dose = f"{aux}:{_fmt(dose.dose_u)}", next(doses, None)
            lines.append(f"{d},{at - offset},M,{_fmt(meas.value)},{aux}")
        if dose is not None:
            raise ValueError(f"day {d}: no reading answers the {dose.kind} dose at "
                             f"minute {dose.timestamp - offset}")
        for meal in trace.meals:
            announced = ("-" if meal.bolus_minute is None
                         else _fmt(trace.announced[meal.slot]))
            lines.append(f"{d},{meal.start_minute},C,{_fmt(meal.cho_g)},"
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


def remove_trace(path: str | Path) -> None:
    """Delete the trace pair that `write_trace(path, ...)` writes, or what
    part of it exists."""
    path = Path(path)
    path.unlink(missing_ok=True)
    path.with_suffix(".npy").unlink(missing_ok=True)


def read_trace(path: str | Path) -> tuple[TrialResult, dict[str, str]]:
    """Load the trace pair that `write_trace(path, ...)` wrote; see
    trace_from_text. A missing, unreadable, malformed or mismatched file
    raises ValueError naming it."""
    path = Path(path)
    npy = path.with_suffix(".npy")
    try:
        with open(npy, "rb") as fh:
            glucose = np.load(fh, allow_pickle=False)
    except (OSError, EOFError, ValueError) as exc:
        raise ValueError(f"{npy.name}: cannot load the glucose array: {exc}") from None
    try:
        with open(path, newline="") as fh:     # the bytes as written, no newline translation
            return trace_from_text(fh.read(), glucose)
    except OSError as exc:
        raise ValueError(f"{path.name}: cannot read the trace text: {exc}") from None
    except ValueError as exc:
        raise ValueError(f"{path.name}: {exc}") from None


def _parse_header(lines: list[str]) -> tuple[dict[str, str], list[str], int]:
    """The header fields, the agent bundle's lines, and where the body starts.
    A repeated field keeps its last value; the rewrite in trace_from_text
    then rejects the first copy."""
    fields, bundle = {}, []
    i = 1                       # line 0 is the schema tag
    while i < len(lines) and lines[i].startswith("# "):
        if lines[i].startswith(_AGENT_PREFIX):
            bundle.append(lines[i][len(_AGENT_PREFIX):])
        else:
            key, _, rest = lines[i][2:].partition(" ")
            fields[key] = rest
        i += 1
    return fields, bundle, i


def _header_values(fields: dict[str, str], key: str, count: int) -> list[str]:
    values = fields[key].split()
    if len(values) != count:
        raise ValueError(f"trace header '{key}' holds {len(values)} values, "
                         f"expected {count}")
    return values


def _parse_field(key: str, parse, value):
    """parse(value) of header field `key`; a ValueError it raises names the field."""
    try:
        return parse(value)
    except ValueError as exc:
        raise ValueError(f"trace header '{key}' does not parse: {exc}") from None


def _amount(text: str) -> float:
    """A number of a trace row's value field: every one is a finite quantity
    at or above zero (a dose, a reading, grams, a therapy factor)."""
    x = float(text)
    if not 0.0 <= x < math.inf:
        raise ValueError(f"{text!r} is not a finite number >= 0")
    return x


def _patient_from_values(raw: list[str]) -> pat.PatientParams:
    return pat.PatientParams(id=int(raw[0]), diabetes_type=raw[1],
                             **{f: float(v) for f, v in zip(_PATIENT_FIELDS[2:], raw[2:])})


def _risk_from_text(text: str) -> init.RiskClass | None:
    if text == "-":
        return None
    variability, nocturnal = text.split(":")
    return init.RiskClass(variability=variability, nocturnal_risk=nocturnal)


def _close_day(today: DayTrace, meals: list[tuple], spec: ScenarioSpec,
                lineno: int) -> DayTrace:
    """The day check, run when the U row at `lineno` closes `today`; its errors
    name the day and that line. `meals` holds the day's C rows as MealPlan
    fields, the announced grams or None in place of the bolus minute, which
    is the minute of the meal's pre-meal reading."""
    where, offset = f"day {today.day} at line {lineno}", (today.day - 1) * MINUTES_PER_DAY
    slots = [meal[0] for meal in meals]
    if slots != [0, 1, 2, 3]:
        raise ValueError(f"{where} holds meals of slots {slots}, expected slots 0 to 3 "
                         "once each, in order")
    order = [(m.timestamp, m.slot != RESCUE_SLOT) for m in today.measurements]
    if not all(map(operator.lt, order, order[1:])):
        raise ValueError(f"{where} holds readings out of order: they run in minute "
                         "order, a minute's rescue before its one other reading")
    taken = {slot: [] for slot in READING_SLOTS}     # each slot's minutes in the day
    for m in today.measurements:
        taken[m.slot].append(m.timestamp - offset)
    for slot in (*PRE_MEAL_SLOTS, BEDTIME_SLOT):
        if len(taken[slot]) != 1:
            raise ValueError(f"{where} holds {len(taken[slot])} {slot} readings, "
                             "expected one")
    due = [meal[1] + POST_PRANDIAL_DELAY for meal in meals[:3] if spec.correction_boluses]
    post = [minute for minute in due if minute < taken[BEDTIME_SLOT][0]]
    if taken[POST_PRANDIAL_SLOT] != post:
        raise ValueError(f"{where} holds post_prandial readings at minutes "
                         f"{taken[POST_PRANDIAL_SLOT]}; {spec.id} takes them at {post}")
    today.meals = tuple(MealPlan(*meal[:4], None if meal[4] is None
                                 else taken[PRE_MEAL_SLOTS[meal[0]]][0]) for meal in meals)
    lead_lo, lead_hi = BOLUS_LEAD_RANGE
    for meal in today.meals[:3]:
        if not lead_lo <= meal.start_minute - meal.bolus_minute <= lead_hi:
            raise ValueError(f"{where} holds its {PRE_MEAL_SLOTS[meal.slot]} reading at "
                             f"minute {meal.bolus_minute} for a meal at minute "
                             f"{meal.start_minute}: it comes {lead_lo} to {lead_hi} "
                             "minutes before its meal")
    today.announced = tuple(meal[4] for meal in meals[:3])
    return today


def trace_from_text(text: str, glucose: np.ndarray) -> tuple[TrialResult, dict[str, str]]:
    """Parse a text trace and its on-line glucose array, of shape
    (days - init.COLLECTION_DAYS, 1440), back into a TrialResult,
    with an ABBA trial's final agents, plus the other header fields, so that a
    rerun of the analytics carries the provenance lines through to its outputs.
    `glucose` becomes the result's glucose whole, copied only if it is not
    C-ordered. Only the text trace_to_text writes parses: any other raises
    ValueError naming its first wrong row, field or day, or else its first
    line that the rewrite changes."""
    lines = text.splitlines()
    if not lines or lines[0] != f"# {TRACE_SCHEMA}":
        raise ValueError(f"unsupported trace schema; expected '# {TRACE_SCHEMA}'")
    fields, bundle, body_start = _parse_header(lines)
    missing = [k for k in _RESULT_HEADERS if k not in fields]
    if missing:
        raise ValueError(f"trace header missing fields: {', '.join(missing)}")
    if body_start >= len(lines) or lines[body_start] != "day,minute,kind,value,aux":
        raise ValueError("trace column header missing; file truncated?")

    params = _parse_field("patient", _patient_from_values,
                          _header_values(fields, "patient", len(_PATIENT_FIELDS)))
    arm = fields["arm"]
    if arm not in ARMS:
        raise ValueError(f"trace arm {arm!r} is not {ABBA} or {BBA}")
    scenario = fields["scenario"]
    if scenario not in SCENARIOS:
        raise ValueError(f"trace scenario {scenario!r} is not one of "
                         f"{sorted(SCENARIOS)}")
    spec = SCENARIOS[scenario]
    if (arm == ABBA) != bool(bundle):
        raise ValueError(f"{arm} trace {'lacks' if arm == ABBA else 'holds'} "
                         "an agent bundle")
    agents = adv.bundle_from_text("\n".join(bundle)) if bundle else None
    (days_text,) = _header_values(fields, "days", 1)
    days = _parse_field("days", int, days_text)
    te = _parse_field("transfer_entropy", lambda text: None if text == "-" else _amount(text),
                      fields["transfer_entropy"])
    risk = _parse_field("risk_class", _risk_from_text, fields["risk_class"])
    for key, value in (("transfer_entropy", te), ("risk_class", risk)):
        if (value is None) == bool(bundle):
            raise ValueError(f"{arm} trace {'lacks' if bundle else 'holds'} a {key} value")

    if days <= init.COLLECTION_DAYS:
        raise ValueError("trial shorter than the collection phase")
    (digest,) = _header_values(fields, "glucose", 1)
    if not isinstance(glucose, np.ndarray) or glucose.dtype != _GLUCOSE_DTYPE:
        found = getattr(glucose, "dtype", type(glucose).__name__)
        raise ValueError(f"glucose array holds {found}, expected {_GLUCOSE_DTYPE.str}")
    shape = (days - init.COLLECTION_DAYS, MINUTES_PER_DAY)
    if glucose.shape != shape:
        raise ValueError(f"glucose array has shape {glucose.shape}, expected {shape}")
    glucose = np.ascontiguousarray(glucose)
    if _digest(glucose) != digest:
        raise ValueError("glucose array does not match the trace's glucose digest")

    day_traces: list[DayTrace] = []
    today = None        # open from its first row to its U row
    for lineno, line in enumerate(lines[body_start + 1:], body_start + 2):
        parts = line.split(",", 4)
        if len(parts) != 5:
            raise ValueError(f"malformed trace row at line {lineno}: {line!r}")
        day, minute, kind, value, aux = parts
        if kind not in ("T", "M", "C", "U"):
            raise ValueError(f"unknown trace kind {kind!r} at line {lineno}")
        try:
            d, at = int(day), int(minute)
            if kind == "T":
                numbers = [_amount(v) for v in value.split()]
            elif kind == "C":
                slot, duration, announced = aux.split(":")
                slot, duration = int(slot), int(duration)
                cho, announced = _amount(value), (None if announced == "-"
                                                  else _amount(announced))
            else:
                number = _amount(value)
                aux, dosed, dose = aux.partition(":")
                dose = _amount(dose) if dosed else None
        except ValueError as exc:
            raise ValueError(f"malformed trace row at line {lineno}: {exc}") from None
        if not 0 <= at < MINUTES_PER_DAY:
            raise ValueError(f"minute {minute} is outside the day at line {lineno}")
        expected = len(day_traces) + 1 if today is None else today.day
        if d != expected:
            raise ValueError(f"{kind} row for day {d} at line {lineno} is out of order: "
                             f"days run 1 to {days}, each from its first row to its U row")
        if today is None:                       # this row opens day d
            if kind == "T":
                if len(numbers) != len(_THERAPY_FIELDS):
                    raise ValueError(f"therapy row at line {lineno} holds {len(numbers)} "
                                     f"values, expected {len(_THERAPY_FIELDS)}")
                therapy = TherapySnapshot(icr=tuple(numbers[:3]), ps=tuple(numbers[3:6]),
                                          cf=numbers[6], basal=numbers[7])
            elif day_traces:
                therapy = day_traces[-1].therapy        # unchanged since the day before
            else:
                raise ValueError(f"day 1 opens at line {lineno} without its T row")
            today = DayTrace(day=d, meals=(), announced=(), therapy=therapy)
            offset, meals = (d - 1) * MINUTES_PER_DAY, []
        elif kind == "T":
            raise ValueError(f"T row for day {d} at line {lineno} is not its day's first row")
        if kind == "M":
            if aux not in READING_SLOTS:
                raise ValueError(f"unknown reading slot {aux!r} at line {lineno}")
            if not pat.SMBG_FLOOR <= number <= pat.SMBG_CEIL:
                raise ValueError(f"reading {value} at line {lineno} is outside "
                                 f"[{pat.SMBG_FLOOR}, {pat.SMBG_CEIL}]")
            today.measurements.append(adv.Measurement(
                value=number, timestamp=at + offset, slot=aux))
            if dose is not None:
                if aux == RESCUE_SLOT:
                    raise ValueError(f"rescue reading at line {lineno} holds a dose")
                today.insulin.append(adv.InsulinRecord(
                    dose_u=dose, kind=_SLOT_KINDS[aux], timestamp=at + offset))
            elif aux == BEDTIME_SLOT:
                raise ValueError(f"bedtime reading at line {lineno} holds no basal dose")
        elif kind == "C":
            if duration < 1:
                raise ValueError(f"meal of {duration} minutes at line {lineno}")
            if at + duration > MINUTES_PER_DAY:
                raise ValueError(f"meal at line {lineno} ends at minute "
                                 f"{at + duration}, after the day")
            if (announced is None) != (slot == 3):
                raise ValueError(f"meal slot {slot} at line {lineno} is "
                                 + ("announced" if slot == 3 else "not announced"))
            lo, hi = spec.misestimation
            if announced is not None and not lo * cho <= announced <= hi * cho:
                raise ValueError(f"meal slot {slot} at line {lineno} is announced as "
                                 f"{announced} g, outside {spec.id}'s {lo} to {hi} times "
                                 f"the {cho} g eaten")
            meals.append((slot, at, duration, cho, announced))
        elif kind == "U":
            day_traces.append(_close_day(today, meals, spec, lineno))
            today = None
    if len(day_traces) != days:
        raise ValueError(f"trace holds {len(day_traces)} complete days, expected {days}")

    result = TrialResult(patient=params, arm=arm, scenario=scenario, days=days,
                         day_traces=day_traces, glucose=glucose, final_agents=agents,
                         transfer_entropy_bits=te, risk_class=risk)
    extra = {k: v for k, v in fields.items() if k not in _RESULT_HEADERS}
    written = trace_to_text(result, extra, digest)
    if text != written:
        found, expected = text.splitlines(True) + [""], written.splitlines(True) + [""]
        n = next(n for n, pair in enumerate(zip(found, expected)) if pair[0] != pair[1])
        raise ValueError(f"trace text is not as written at line {n + 1}: "
                         f"found {found[n]!r}, expected {expected[n]!r}")
    return result, extra
