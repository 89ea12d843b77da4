import dataclasses
import functools
import hashlib
import math
import re

import numpy as np
import pytest

from abbalab import advisor as adv
from abbalab import initialisation as init
from abbalab import patient as pat
from abbalab import protocol as proto


def _patient(dtype="T1D", seed=11):
    return pat.generate_cohort(1, dtype, seed)[0]


# --- day sampling -----------------------------------------------------------------

def test_breakfast_cho_stays_in_table_range():
    rng = np.random.default_rng(31)
    for _ in range(10_000):
        sched = proto.sample_day(rng)
        breakfast = sched.meals[0]
        assert 42.0 <= breakfast.cho_g <= 98.0
        assert 420 <= breakfast.start_minute <= 540


def test_exactly_one_snack_in_a_listed_window():
    rng = np.random.default_rng(32)
    for _ in range(2000):
        sched = proto.sample_day(rng)
        snacks = [m for m in sched.meals if m.slot == 3]
        assert len(snacks) == 1
        s = snacks[0]
        assert any(lo <= s.start_minute <= hi for lo, hi in proto.SNACK_WINDOWS)
        assert s.bolus_minute is None


def test_lunch_cho_mean_matches_uniform_distribution():
    rng = np.random.default_rng(33)
    draws = [proto.sample_day(rng).meals[1].cho_g for _ in range(10_000)]
    assert abs(np.mean(draws) - 100.0) < 2.0


def test_bolus_leads_meal_by_five_to_fifteen_minutes():
    rng = np.random.default_rng(34)
    for _ in range(2000):
        sched = proto.sample_day(rng)
        for meal in sched.meals:
            if meal.bolus_minute is None:
                continue
            lead = meal.start_minute - meal.bolus_minute
            assert 5 <= lead <= 15


def test_basal_injection_after_last_meal_inside_window():
    rng = np.random.default_rng(35)
    for _ in range(2000):
        sched = proto.sample_day(rng)
        assert proto.BASAL_WINDOW[0] <= sched.basal_minute < proto.BASAL_WINDOW[1]
        last_intake = max(m.start_minute + m.duration_min for m in sched.meals)
        assert sched.basal_minute >= min(last_intake, proto.BASAL_WINDOW[0])


# --- announcement -----------------------------------------------------------------

def test_announce_s1_interval():
    rng = np.random.default_rng(36)
    spec = proto.SCENARIOS["S1"]
    draws = [proto.announce_cho(100.0, spec, rng) for _ in range(5000)]
    assert min(draws) >= 70.0 and max(draws) <= 110.0


def test_announce_s3_interval():
    rng = np.random.default_rng(37)
    spec = proto.SCENARIOS["S3"]
    draws = [proto.announce_cho(100.0, spec, rng) for _ in range(5000)]
    assert min(draws) >= 50.0 and max(draws) <= 150.0
    assert min(draws) < 70.0 and max(draws) > 110.0


# --- rescue controller ----------------------------------------------------------------

def test_rescue_fires_below_threshold():
    rc = proto.RescueController()
    assert rc.poll(29.0) == 20.0


def test_rescue_quiet_above_threshold():
    rc = proto.RescueController()
    assert rc.poll(35.0) == 0.0


def test_rescue_fires_once_until_rearmed():
    rc = proto.RescueController()
    assert rc.poll(29.0) == 20.0
    assert rc.poll(28.0) == 0.0          # still below, not re-armed
    assert rc.poll(55.0) == 0.0          # recovering but below re-arm level
    assert rc.poll(69.9) == 0.0          # just below the re-arm level
    assert rc.poll(29.0) == 0.0          # so a second dip stays silent
    assert rc.poll(75.0) == 0.0          # re-arms here
    assert rc.poll(29.0) == 20.0         # second event
    assert rc.poll(70.0) == 0.0          # re-arms exactly at the level
    assert rc.poll(29.0) == 20.0         # third event


def test_rescue_count_monotone_in_threshold():
    trace = np.concatenate([np.linspace(80, 24, 40), np.linspace(24, 90, 40),
                            np.linspace(90, 28, 40), np.linspace(28, 100, 40)])

    def count(threshold):
        rc = proto.RescueController(threshold=threshold)
        return sum(1 for g in trace if rc.poll(float(g)) > 0.0)

    assert count(25.0) <= count(30.0) <= count(35.0)


# --- trials -------------------------------------------------------------------------

def test_bba_therapy_is_static_from_day_15_to_90():
    res = proto.run_trial(_patient(), proto.BBA, proto.SCENARIOS["S1"],
                          master_seed=3, days=90)
    t15 = res.day_traces[14].therapy
    t90 = res.day_traces[89].therapy
    assert t15 == t90
    assert t15 == res.day_traces[0].therapy
    assert all(t.therapy == t15 for t in res.day_traces)


def test_abba_trial_is_deterministic():
    spec = proto.SCENARIOS["S1"]
    a = proto.run_trial(_patient(), proto.ABBA, spec, master_seed=5, days=25)
    b = proto.run_trial(_patient(), proto.ABBA, spec, master_seed=5, days=25)
    assert a.transfer_entropy_bits == b.transfer_entropy_bits
    assert a.glucose.shape == b.glucose.shape == (25 - init.COLLECTION_DAYS,
                                                  proto.MINUTES_PER_DAY)
    assert (a.glucose == b.glucose).all()
    for ta, tb in zip(a.day_traces, b.day_traces):
        assert ta.therapy == tb.therapy
        assert [m.value for m in ta.measurements] == [m.value for m in tb.measurements]
        assert [r.dose_u for r in ta.insulin] == [r.dose_u for r in tb.insulin]


@pytest.mark.parametrize("scenario", list(proto.SCENARIOS))
@pytest.mark.parametrize("dtype, pid", [(pat.T1D, 6), (pat.T2D, 1)])
def test_both_arms_write_the_same_collection_days(dtype, pid, scenario):
    """A patient's ABBA and BBA traces hold the same text rows for days 1 to
    14 (T, M with their doses, C, U): both arms run the static advisor on the
    same draws until the agents start. A trace stores no collection-day
    glucose on that ground, as a re-run of its config and seed reproduces
    it. ROADMAP item 1's rescue stream must keep it: these patients (seed 1)
    have rescues in the collection phase of every scenario."""
    params = pat.generate_cohort(pid + 1, dtype, 1)[pid]
    rows = {}
    for arm in proto.ARMS:
        res = proto.run_trial(params, arm, proto.SCENARIOS[scenario], master_seed=1,
                              days=init.COLLECTION_DAYS + 1)
        lines = proto.trace_to_text(res).splitlines()
        body = lines[lines.index("day,minute,kind,value,aux") + 1:]
        rows[arm] = [line for line in body
                     if int(line.split(",")[0]) <= init.COLLECTION_DAYS]
    assert any(line.endswith(",rescue") for line in rows[proto.BBA])
    assert {line.split(",")[0] for line in rows[proto.BBA]} == \
        {str(d) for d in range(1, init.COLLECTION_DAYS + 1)}
    assert rows[proto.ABBA] == rows[proto.BBA]


def test_abba_updates_therapy_after_collection():
    res = proto.run_trial(_patient(), proto.ABBA, proto.SCENARIOS["S1"],
                          master_seed=7, days=30)
    assert res.final_agents is not None
    assert res.transfer_entropy_bits >= 0.0
    assert res.risk_class is not None
    late = res.day_traces[-1].therapy
    assert late != res.day_traces[0].therapy


def test_phase_isolation_no_therapy_changes_in_collection():
    res = proto.run_trial(_patient(), proto.ABBA, proto.SCENARIOS["S1"],
                          master_seed=9, days=20)
    for trace in res.day_traces[:14]:
        assert trace.therapy == res.day_traces[0].therapy


def test_event_ordering_within_each_day():
    res = proto.run_trial(_patient(), proto.ABBA, proto.SCENARIOS["S1"],
                          master_seed=13, days=20)
    for trace in res.day_traces:
        offset = (trace.day - 1) * proto.MINUTES_PER_DAY
        basal_recs = [r for r in trace.insulin if r.kind == "basal"]
        assert len(basal_recs) == 1
        basal_minute = basal_recs[0].timestamp - offset
        assert proto.BASAL_WINDOW[0] <= basal_minute < proto.BASAL_WINDOW[1]
        meal_starts = {m.slot: m.start_minute for m in trace.meals if m.slot < 3}
        for rec in trace.insulin:
            minute = rec.timestamp - offset
            assert minute <= basal_minute
            if rec.kind == "bolus":
                lead = [start - minute for start in meal_starts.values()
                        if 5 <= start - minute <= 15]
                assert lead, f"bolus at {minute} has no meal 5-15 min later"


def test_measurement_protocol_each_day():
    res = proto.run_trial(_patient(), proto.BBA, proto.SCENARIOS["S1"],
                          master_seed=17, days=20)
    for trace in res.day_traces:
        slots = [m.slot for m in trace.measurements]
        for expected in ("pre_breakfast", "pre_lunch", "pre_dinner", "bedtime"):
            assert slots.count(expected) == 1
        assert len(slots) == 4 + slots.count("rescue")


def test_s4_corrections_only_at_high_post_prandial_readings():
    res = proto.run_trial(_patient(), proto.ABBA, proto.SCENARIOS["S4"],
                          master_seed=19, days=40)
    n_corrections = 0
    for trace in res.day_traces:
        readings = {m.timestamp: m for m in trace.measurements}
        for rec in trace.insulin:
            if rec.kind != "correction":
                continue
            n_corrections += 1
            m = readings[rec.timestamp]
            assert m.slot == "post_prandial"
            assert m.value > 180.0
    assert n_corrections > 0


def test_s1_has_no_correction_boluses():
    res = proto.run_trial(_patient(), proto.ABBA, proto.SCENARIOS["S1"],
                          master_seed=19, days=25)
    kinds = {r.kind for t in res.day_traces for r in t.insulin}
    assert "correction" not in kinds


def test_trial_rejects_unknown_arm_and_short_horizon():
    with pytest.raises(ValueError):
        proto.run_trial(_patient(), "manual", proto.SCENARIOS["S1"], master_seed=1,
                        days=90)
    with pytest.raises(ValueError):
        proto.run_trial(_patient(), proto.BBA, proto.SCENARIOS["S1"],
                        master_seed=1, days=14)


def test_rescue_threshold_may_reach_but_not_exceed_the_rearm_level(monkeypatch):
    # Above pat.HYPO, glucose held between the two would fire the rescue
    # every other minute: fire, re-arm at or above HYPO, fire again. So the
    # kernel's second poll of an event minute is a no-op only up to HYPO.
    assert pat.RESCUE <= pat.HYPO
    # At the level itself this patient's rescue on day 20 fires at the
    # pre-breakfast minute, where both the driver and the kernel poll: it is
    # taken once, before the event's reading.
    monkeypatch.setattr(proto, "RescueController",
                        functools.partial(proto.RescueController, threshold=pat.HYPO))
    params = pat.generate_cohort(8, "T1D", 3)[7]
    res = proto.run_trial(params, proto.BBA, proto.SCENARIOS["S1"], master_seed=3,
                          days=20)
    same_minute = [(a.slot, b.slot) for t in res.day_traces
                   for a, b in zip(t.measurements, t.measurements[1:])
                   if a.timestamp == b.timestamp]
    assert same_minute == [("rescue", "pre_breakfast")]


@pytest.mark.parametrize("scenario", sorted(proto.SCENARIOS))
def test_a_days_events_fall_on_distinct_minutes_in_order(scenario):
    spec = proto.SCENARIOS[scenario]
    trial = proto.Trial(_patient(), proto.BBA, spec, master_seed=43, days=15)
    post_prandials = 0
    for day in range(1, 5001):
        *meal_events, (basal_minute, bedtime) = events = trial.start_day(day)
        minutes = [minute for minute, _ in events]
        assert all(a < b for a, b in zip(minutes, minutes[1:]))
        assert bedtime == trial.bedtime
        assert proto.BASAL_WINDOW[0] <= basal_minute < proto.BASAL_WINDOW[1]
        announced = [m for m in trial.today.meals if m.bolus_minute is not None]
        expected = [(m.bolus_minute, trial.pre_meal, m) for m in announced]
        if spec.correction_boluses:
            expected += [(m.start_minute + proto.POST_PRANDIAL_DELAY, trial.post_prandial, m)
                         for m in announced
                         if m.start_minute + proto.POST_PRANDIAL_DELAY < basal_minute]
        post_prandials += len(expected) - 3
        assert sorted(expected, key=lambda e: e[0]) == \
            [(minute, handler.func, *handler.args) for minute, handler in meal_events]
    assert (post_prandials > 0) == spec.correction_boluses


def test_no_post_prandial_reading_on_the_bedtime_minute(monkeypatch):
    # About one S4 day in 8,000 has dinner at 20:00 and the basal shot at
    # 22:00, the minute of dinner's post-prandial reading, which is dropped.
    meals = (proto.MealPlan(0, 480, 20, 60.0, 470), proto.MealPlan(1, 780, 20, 80.0, 770),
             proto.MealPlan(2, 1200, 20, 70.0, 1190), proto.MealPlan(3, 1000, 5, 10.0, None))
    monkeypatch.setattr(proto, "sample_day", lambda rng: proto.DaySchedule(meals, 1320))
    trial = proto.Trial(_patient(), proto.BBA, proto.SCENARIOS["S4"], master_seed=43, days=15)
    events = trial.start_day(1)
    assert [minute for minute, _ in events] == [470, 600, 770, 900, 1190, 1320]
    assert events[-1][1] == trial.bedtime


def test_paired_arms_share_the_same_meal_sequence():
    spec = proto.SCENARIOS["S1"]
    a = proto.run_trial(_patient(), proto.ABBA, spec, master_seed=23, days=20)
    b = proto.run_trial(_patient(), proto.BBA, spec, master_seed=23, days=20)
    for ta, tb in zip(a.day_traces, b.day_traces):
        assert (ta.meals, ta.announced) == (tb.meals, tb.announced)


def test_abba_trial_keeps_clamps_guard_and_non_negative_doses():
    # T1D seed 1, patient 6: ABBA rescues on day 15 and changes basal on S1.
    params = pat.generate_cohort(7, "T1D", 1)[6]
    res = proto.run_trial(params, proto.ABBA, proto.SCENARIOS["S1"],
                          master_seed=1, days=90)
    start = res.day_traces[0].therapy
    assert any(t.rescues for t in res.day_traces[init.COLLECTION_DAYS:])
    basal_changes = 0
    for prev, trace in zip([None] + res.day_traces, res.day_traces):
        (basal,) = [r.dose_u for r in trace.insulin if r.kind == "basal"]
        now = (*trace.therapy.icr, *trace.therapy.ps, trace.therapy.basal, basal)
        initial = (*start.icr, *start.ps, start.basal, start.basal)
        assert all(0.5 * a0 <= a <= 2.0 * a0 for a, a0 in zip(now, initial))
        assert all(r.dose_u >= 0.0 for r in trace.insulin)
        if basal != trace.therapy.basal:      # changed at tonight's bedtime
            basal_changes += 1
            assert basal >= 0.25 * prev.total_insulin_u
    assert basal_changes > 0


def test_basal_guard_reverts_a_cut_below_a_quarter_of_yesterdays_dose(monkeypatch):
    # T2D seed 3, S4, patient 2: day 15's basal step proposes 18.66 U/day
    # (the 0.5x clamp), below a quarter of day 14's 81.04 U, and is reverted.
    apply_action, basal_steps = adv.apply_action, []

    def recording(kind, p, current, a_init, m, prev_tdd=None):
        applied = apply_action(kind, p, current, a_init, m, prev_tdd=prev_tdd)
        if kind.is_basal:
            basal_steps.append((apply_action(kind, p, current, a_init, m),
                                applied, current, prev_tdd))
        return applied

    monkeypatch.setattr(adv, "apply_action", recording)
    params = pat.generate_cohort(3, "T2D", 3)[2]
    res = proto.run_trial(params, proto.ABBA, proto.SCENARIOS["S4"],
                          master_seed=3, days=15)
    yesterday = res.day_traces[-2].total_insulin_u
    ((proposed, applied, current, prev_tdd),) = basal_steps
    assert prev_tdd == yesterday
    assert proposed < 0.25 * yesterday
    assert applied == current == res.day_traces[-1].therapy.basal
    (basal,) = [r.dose_u for r in res.day_traces[-1].insulin if r.kind == "basal"]
    assert basal == current


def test_the_basal_agent_reads_a_rescue_taken_after_the_last_bedtime(monkeypatch):
    # No simulated trial has such a day, so two ABBA days are driven by hand
    # at the starting state, with a rescue after day 1's bedtime reading.
    bolus_features, windows = adv.bolus_features, []

    def recording(window):
        windows.append(list(window))
        return bolus_features(window)

    monkeypatch.setattr(adv, "bolus_features", recording)
    trial = proto.Trial(_patient(), proto.ABBA, proto.SCENARIOS["S1"], master_seed=43,
                        days=15)
    for day in (1, 2):
        for minute, handler in trial.start_day(day):
            handler(minute)
        if day == 1:
            trial.rescue(proto.MINUTES_PER_DAY - 1)
        trial.midnight()
    day1, day2 = trial.day_traces
    assert [m.slot for m in day1.measurements[-2:]] == [proto.BEDTIME_SLOT, proto.RESCUE_SLOT]
    assert windows[-1] == [day1.measurements[-1].value, *(m.value for m in day2.measurements)]


# --- trace persistence -------------------------------------------------------------

def _assert_same_trial(a, b):
    assert a.glucose.shape == b.glucose.shape == (a.days - init.COLLECTION_DAYS,
                                                  proto.MINUTES_PER_DAY)
    assert (a.glucose.view(np.int64) == b.glucose.view(np.int64)).all()
    assert b.glucose.dtype == np.float64 and b.glucose.flags.writeable
    assert b.glucose.flags.c_contiguous
    for ta, tb in zip(a.day_traces, b.day_traces, strict=True):
        assert ta.therapy == tb.therapy
        assert ta.measurements == tb.measurements
        assert ta.insulin == tb.insulin
        assert ta.meals == tb.meals
        assert ta.announced == tb.announced
        assert ta.total_insulin_u == tb.total_insulin_u


@pytest.mark.parametrize("scenario, arm", [
    (scenario, arm) for scenario in proto.SCENARIOS for arm in proto.ARMS])
def test_trace_text_round_trip_is_exact(tmp_path, scenario, arm):
    res = proto.run_trial(_patient(), arm, proto.SCENARIOS[scenario],
                          master_seed=29, days=16)
    kinds = {r.kind for t in res.day_traces for r in t.insulin}
    assert (adv.CORRECTION_KIND in kinds) == (scenario == "S4")
    headers = {"config_hash": "deadbeef", "master_seed": "29"}
    proto.write_trace(tmp_path / "a.txt", res, headers)
    back, extra = proto.read_trace(tmp_path / "a.txt")
    assert extra == headers
    _assert_same_trial(res, back)
    proto.write_trace(tmp_path / "b.txt", back, extra)
    for suffix in (".txt", ".npy"):
        assert (tmp_path / f"a{suffix}").read_bytes() == \
            (tmp_path / f"b{suffix}").read_bytes()


@pytest.mark.parametrize("scenario, dtype", [
    (scenario, dtype) for scenario in proto.SCENARIOS for dtype in ("T1D", "T2D")])
def test_trace_writes_a_therapy_row_only_where_the_therapy_changed(tmp_path, scenario,
                                                                   dtype):
    # Day 1 and each day whose therapy differs from the day before hold a T
    # row; a day without one reads back the therapy in force the day before.
    adapted = []
    for params in pat.generate_cohort(2, dtype, 3):
        for arm in proto.ARMS:
            res = proto.run_trial(params, arm, proto.SCENARIOS[scenario], master_seed=3,
                                  days=30)
            path = tmp_path / f"p{params.id:03d}_{arm}.txt"
            proto.write_trace(path, res)
            back, _ = proto.read_trace(path)
            therapy = [t.therapy for t in res.day_traces]
            assert [t.therapy for t in back.day_traces] == therapy
            changed = [d for d, (before, now) in enumerate(zip([None, *therapy], therapy), 1)
                       if now != before]
            rows = [int(line.split(",")[0]) for line in path.read_text().splitlines()
                    if line.split(",")[2:3] == ["T"]]
            assert rows == changed
            if arm == proto.BBA:
                assert rows == [1]
            else:
                adapted.append(len(rows) > 1)
    assert any(adapted)


def test_trial_and_trace_keep_whole_minutes():
    res = proto.run_trial(_patient(), proto.ABBA, proto.SCENARIOS["S4"],
                          master_seed=29, days=16)
    back, _ = proto.trace_from_text(proto.trace_to_text(res), res.glucose)
    for trial in (res, back):
        records = [r for t in trial.day_traces for r in (*t.measurements, *t.insulin)]
        assert records and all(type(r.timestamp) is int for r in records)
    reading = res.day_traces[1].measurements[0]
    res.day_traces[1].measurements[0] = dataclasses.replace(
        reading, timestamp=float(reading.timestamp))
    with pytest.raises(TypeError, match="'float' object cannot be interpreted as an integer"):
        proto.trace_to_text(res)


def _basal_a_minute_late(trace):
    basal = trace.insulin[-1]
    trace.insulin[-1] = dataclasses.replace(basal, timestamp=basal.timestamp + 1)
    return "basal", basal.timestamp + 1


def _basal_as_bolus(trace):
    basal = trace.insulin[-1]
    trace.insulin[-1] = dataclasses.replace(basal, kind=adv.BOLUS_KIND)
    return "bolus", basal.timestamp


def _doses_swapped(trace):
    trace.insulin[:2] = trace.insulin[1::-1]
    return "bolus", trace.insulin[1].timestamp


@pytest.mark.parametrize("edit", [_basal_a_minute_late, _basal_as_bolus, _doses_swapped],
                         ids=["no_reading_at_its_minute", "reading_of_another_kind",
                              "out_of_order"])
def test_trace_writer_refuses_a_dose_no_reading_answers(edit):
    # Each dose is written on the reading it answers, so one that answers
    # none, or none in order, has no row to go on.
    res = proto.run_trial(_patient(), proto.BBA, proto.SCENARIOS["S1"],
                          master_seed=29, days=15)
    kind, timestamp = edit(res.day_traces[1])
    with pytest.raises(ValueError, match=f"^day 2: no reading answers the {kind} dose "
                                         f"at minute {timestamp - proto.MINUTES_PER_DAY}$"):
        proto.trace_to_text(res)


def test_trace_pair_holds_the_glucose_array_and_binds_it_by_digest(tmp_path):
    res = proto.run_trial(_patient(), proto.BBA, proto.SCENARIOS["S1"],
                          master_seed=29, days=15)
    proto.write_trace(tmp_path / "p000_bba.txt", res)
    glucose = np.load(tmp_path / "p000_bba.npy", allow_pickle=False)
    assert glucose.dtype.str == "<f8" and glucose.shape == (1, proto.MINUTES_PER_DAY)
    assert glucose.flags.c_contiguous
    assert (glucose.view(np.int64) == res.glucose.view(np.int64)).all()
    text = (tmp_path / "p000_bba.txt").read_text()
    digest = hashlib.sha256(glucose.tobytes()).hexdigest()
    assert f"\n# glucose {digest}\n" in text
    assert sum(",T," in line for line in text.splitlines()) == 1    # BBA never adapts


def test_trial_glucose_is_one_c_order_array():
    # _assert_same_trial checks the array a trace read returns.
    res = proto.run_trial(_patient(), proto.ABBA, proto.SCENARIOS["S1"],
                          master_seed=31, days=20)
    g = res.glucose                                     # days 15 to 20
    assert g.shape == (6, proto.MINUTES_PER_DAY) and g.dtype == np.float64
    assert g.flags.c_contiguous
    assert not any(hasattr(t, "glucose") for t in res.day_traces)


def test_write_trace_peaks_under_half_the_trial_glucose(tmp_path, traced_peak):
    res = proto.run_trial(_patient(), proto.ABBA, proto.SCENARIOS["S1"],
                          master_seed=31, days=90)
    peak = traced_peak(proto.write_trace, tmp_path / "a.txt", res)
    assert peak <= 0.5 * res.glucose.nbytes, peak / res.glucose.nbytes


def _rescue_trial():
    # T1D seed 1, patient 6 has rescues on both arms within 20 days.
    params = pat.generate_cohort(7, "T1D", 1)[6]
    return proto.run_trial(params, proto.BBA, proto.SCENARIOS["S1"],
                           master_seed=1, days=20)


def test_trace_round_trip_is_exact_with_rescues(tmp_path):
    res = _rescue_trial()
    assert any(t.rescues for t in res.day_traces)
    proto.write_trace(tmp_path / "a.txt", res)
    back, _ = proto.read_trace(tmp_path / "a.txt")
    _assert_same_trial(res, back)
    assert proto.trace_to_text(back) == (tmp_path / "a.txt").read_text()


def _assert_same_agents(a, b):
    assert list(a) == list(b)
    for kind in a:
        for field in dataclasses.fields(adv.AgentState):
            x, y = getattr(a[kind], field.name), getattr(b[kind], field.name)
            if isinstance(x, np.ndarray):
                assert x.dtype == y.dtype == np.float64, (kind, field.name)
                assert (x.view(np.int64) == y.view(np.int64)).all(), (kind, field.name)
            else:
                assert type(x) is type(y) and x == y, (kind, field.name)


def test_trace_restores_the_final_agents_of_an_abba_trial(tmp_path):
    res = proto.run_trial(_patient(), proto.ABBA, proto.SCENARIOS["S1"],
                          master_seed=29, days=20)
    path = tmp_path / "p000_abba.txt"
    proto.write_trace(path, res, {"config_hash": "deadbeef"})
    back, extra = proto.read_trace(path)
    assert extra == {"config_hash": "deadbeef"}          # no agent key leaks
    assert sum(a.step_count for a in back.final_agents.values()) > 0
    _assert_same_agents(res.final_agents, back.final_agents)
    assert proto.trace_to_text(back, extra) == path.read_text()

    bba_path, _ = _written_bba_trace(tmp_path)
    assert "# agent." not in bba_path.read_text()
    assert proto.read_trace(bba_path)[0].final_agents is None


def _bba_trace():
    """The text lines and glucose array of a 15-day BBA trial."""
    res = proto.run_trial(_patient(), proto.BBA, proto.SCENARIOS["S1"],
                          master_seed=29, days=15)
    return proto.trace_to_text(res).splitlines(), res.glucose


def _written_bba_trace(tmp_path):
    """A 16-day BBA trial's trace pair under tmp_path, two on-line days of
    glucose: the .txt and .npy paths."""
    res = proto.run_trial(_patient(), proto.BBA, proto.SCENARIOS["S1"],
                          master_seed=29, days=16)
    path = tmp_path / "p000_bba.txt"
    proto.write_trace(path, res)
    return path, path.with_suffix(".npy")


def test_read_trace_rejects_a_missing_glucose_file(tmp_path):
    path, npy = _written_bba_trace(tmp_path)
    npy.unlink()
    with pytest.raises(ValueError, match="p000_bba.npy"):
        proto.read_trace(path)


@pytest.mark.parametrize("keep", [
    lambda n: n - 4, lambda n: n - 8 * proto.MINUTES_PER_DAY, lambda n: 50,
    lambda n: 0], ids=["part_value", "one_day", "header", "empty"])
def test_read_trace_rejects_a_truncated_glucose_file(tmp_path, keep):
    path, npy = _written_bba_trace(tmp_path)
    raw = npy.read_bytes()
    npy.write_bytes(raw[:keep(len(raw))])
    with pytest.raises(ValueError, match="p000_bba.npy"):
        proto.read_trace(path)


def test_trace_rejects_a_glucose_array_of_the_wrong_dtype(tmp_path):
    path, npy = _written_bba_trace(tmp_path)
    glucose = np.load(npy)
    for wrong in (glucose.astype("<f4"), glucose.astype(">f8")):
        np.save(npy, wrong)
        with pytest.raises(ValueError, match="p000_bba.txt: glucose array holds"):
            proto.read_trace(path)


def test_trace_rejects_a_glucose_array_of_the_wrong_shape():
    lines, glucose = _bba_trace()
    for wrong in (glucose[:, :-1], glucose[:-1], glucose.reshape(-1)):
        with pytest.raises(ValueError, match="glucose array has shape"):
            proto.trace_from_text("\n".join(lines), np.ascontiguousarray(wrong))


def test_trace_rejects_a_glucose_array_that_does_not_match_its_digest(tmp_path):
    path, npy = _written_bba_trace(tmp_path)
    glucose = np.load(npy)
    glucose[0, 700] = np.nextafter(glucose[0, 700], np.inf)     # one ulp, one minute
    np.save(npy, glucose)
    with pytest.raises(ValueError, match="p000_bba.txt: glucose array does not match"):
        proto.read_trace(path)
    lines, original = _bba_trace()
    with pytest.raises(ValueError, match="does not match"):       # day 15 read backwards
        proto.trace_from_text("\n".join(lines), np.ascontiguousarray(original[:, ::-1]))


def _therapy_row(lines, day):
    (i,) = [i for i, line in enumerate(lines) if line.startswith(f"{day},0,T,")]
    return i


def test_trace_rejects_a_therapy_row_of_the_wrong_value_count():
    lines, glucose = _bba_trace()
    i = _therapy_row(lines, 1)
    day, minute, kind, value, aux = lines[i].split(",")
    lines[i] = ",".join([day, minute, kind, " ".join(value.split()[:7]), aux])
    with pytest.raises(ValueError, match=f"therapy row at line {i + 1} holds 7 values"):
        proto.trace_from_text("\n".join(lines), glucose)


def test_trace_rejects_a_second_therapy_row():
    lines, glucose = _bba_trace()
    i = _therapy_row(lines, 1)
    lines.insert(i + 1, lines[i])
    with pytest.raises(ValueError, match=rf"^T row for day 1 at line {i + 2} is not its "
                                         "day's first row$"):
        proto.trace_from_text("\n".join(lines), glucose)


def test_trace_rejects_a_therapy_row_after_its_days_first_row():
    res = proto.run_trial(_patient(), proto.ABBA, proto.SCENARIOS["S1"],
                          master_seed=29, days=16)
    lines = proto.trace_to_text(res).splitlines()
    i = _therapy_row(lines, 16)             # day 15's agents changed the therapy
    lines[i], lines[i + 1] = lines[i + 1], lines[i]
    with pytest.raises(ValueError, match=rf"^T row for day 16 at line {i + 2} is not its "
                                         "day's first row$"):
        proto.trace_from_text("\n".join(lines), res.glucose)


def test_trace_rejects_a_day_without_therapy():
    # Day 1 has no day before whose therapy it could keep.
    lines, glucose = _bba_trace()
    i = _therapy_row(lines, 1)
    del lines[i]
    with pytest.raises(ValueError, match=rf"^day 1 opens at line {i + 1} without its T row$"):
        proto.trace_from_text("\n".join(lines), glucose)


def _with_header(lines, key, edit):
    """`lines` with header `key`'s values passed through `edit`."""
    (i,) = [i for i, line in enumerate(lines) if line.startswith(f"# {key} ")]
    lines[i] = " ".join([f"# {key}", *edit(lines[i].split()[2:])])
    return "\n".join(lines)


@pytest.mark.parametrize("key, edit, count", [
    ("patient", lambda v: v[:-1], "10 values, expected 11"),
    ("patient", lambda v: [], "0 values, expected 11"),
    ("patient", lambda v: v + ["1.0"], "12 values, expected 11"),
    ("days", lambda v: v + ["14"], "2 values, expected 1"),
    ("days", lambda v: [], "0 values, expected 1"),
    ("glucose", lambda v: v + v, "2 values, expected 1"),
], ids=["patient_short", "patient_empty", "patient_extra", "days_extra",
        "days_short", "glucose_extra"])
def test_trace_rejects_a_header_of_the_wrong_value_count(key, edit, count):
    lines, glucose = _bba_trace()
    with pytest.raises(ValueError, match=f"'{key}' holds {count}"):
        proto.trace_from_text(_with_header(lines, key, edit), glucose)


@pytest.mark.parametrize("key, edit, message", [
    ("days", lambda v: ["x"], "invalid literal for int() with base 10: 'x'"),
    ("transfer_entropy", lambda v: ["x"], "could not convert string to float: 'x'"),
    ("transfer_entropy", lambda v: ["nan"], "'nan' is not a finite number >= 0"),
    ("transfer_entropy", lambda v: ["inf"], "'inf' is not a finite number >= 0"),
    ("transfer_entropy", lambda v: ["-0.5"], "'-0.5' is not a finite number >= 0"),
    ("risk_class", lambda v: ["a:b:c"], "too many values to unpack"),
    ("risk_class", lambda v: ["foo:bar"], "unknown variability label 'foo'"),
    ("risk_class", lambda v: ["normal:foo"], "unknown nocturnal risk label 'foo'"),
    ("patient", lambda v: ["x", *v[1:]], "invalid literal for int() with base 10: 'x'"),
    ("patient", lambda v: [*v[:3], "abc", *v[4:]], "could not convert string to float: 'abc'"),
], ids=["days", "transfer_entropy", "transfer_entropy_nan", "transfer_entropy_inf",
        "transfer_entropy_negative", "risk_class_parts", "risk_class_variability",
        "risk_class_nocturnal", "patient_id", "patient_value"])
def test_trace_names_a_header_value_that_does_not_parse(key, edit, message):
    lines, glucose = _abba_trace()
    with pytest.raises(ValueError, match=f"^trace header '{key}' does not parse: ") as err:
        proto.trace_from_text(_with_header(lines, key, edit), glucose)
    assert message in str(err.value)


@pytest.mark.parametrize("key, value", [
    ("arm", "xyz"), ("arm", "BBA"), ("arm", ""), ("scenario", "S9"),
    ("scenario", "s1"),
])
def test_trace_rejects_an_unknown_arm_or_scenario(key, value):
    lines, glucose = _bba_trace()
    (i,) = [i for i, line in enumerate(lines) if line.startswith(f"# {key} ")]
    lines[i] = f"# {key} {value}"
    with pytest.raises(ValueError, match=f"trace {key} '{value}' is not"):
        proto.trace_from_text("\n".join(lines), glucose)


@pytest.mark.parametrize("code, edit, message", [
    ("M", lambda aux: "bolus:" + aux.split(":")[1], "unknown reading slot 'bolus'"),
    ("M", lambda aux: "lunchtime", "unknown reading slot 'lunchtime'"),
], ids=["insulin_kind", "reading_slot"])
def test_trace_rejects_a_row_with_an_unknown_label(code, edit, message):
    lines, glucose = _bba_trace()
    i = next(i for i, line in enumerate(lines) if line.split(",")[2:3] == [code])
    day, minute, kind, value, aux = lines[i].split(",")
    lines[i] = ",".join([day, minute, kind, value, edit(aux)])
    with pytest.raises(ValueError, match=f"{message} at line {i + 1}"):
        proto.trace_from_text("\n".join(lines), glucose)


@pytest.mark.parametrize("code, field, text, message", [
    ("M", 0, "x", "invalid literal for int() with base 10: 'x'"),
    ("M", 1, "x", "invalid literal for int() with base 10: 'x'"),
    ("M", 3, "x", "could not convert string to float: 'x'"),
    ("C", 4, "0:15", "not enough values to unpack"),
    ("M", 1, "99999", "minute 99999 is outside the day"),
    ("C", 1, "-5", "minute -5 is outside the day"),
    ("M", 4, "pre_breakfast:-1.5", "'-1.5' is not a finite number >= 0"),
    ("M", 3, "nan", "'nan' is not a finite number >= 0"),
    ("M", 3, "inf", "'inf' is not a finite number >= 0"),
    ("T", 3, "1.0 1.0 1.0 1.0 1.0 1.0 1.0 -inf", "'-inf' is not a finite number >= 0"),
    ("C", 3, "-5.0", "'-5.0' is not a finite number >= 0"),
    ("M", 1, "100.5", "invalid literal for int() with base 10: '100.5'"),
    ("M", 1, "437.0", "invalid literal for int() with base 10: '437.0'"),
    ("M", 4, "pre_breakfast:x", "could not convert string to float: 'x'"),
    ("M", 4, "pre_breakfast:", "could not convert string to float: ''"),
    ("M", 4, "pre_breakfast:1.5:240.0", "could not convert string to float: '1.5:240.0'"),
    ("T", 1, "700", "trace text is not as written at line"),
    ("U", 1, "3", "trace text is not as written at line"),
], ids=["day", "minute", "value", "meal_aux", "minute_after_the_day",
        "minute_before_the_day", "negative_dose", "nan_reading", "inf_reading",
        "infinite_basal", "negative_meal", "part_minute", "float_minute", "dose_text",
        "empty_dose", "second_dose", "therapy_off_minute_0", "total_off_minute_1439"])
def test_trace_rejects_a_malformed_row(code, field, text, message):
    lines, glucose = _bba_trace()
    i = next(i for i, line in enumerate(lines) if line.split(",")[2:3] == [code])
    parts = lines[i].split(",")
    parts[field] = text
    lines[i] = ",".join(parts)
    with pytest.raises(ValueError, match=rf"at line {i + 1}\b") as err:
        proto.trace_from_text("\n".join(lines), glucose)
    assert message in str(err.value)


def _day_rows(lines, day, code):
    """Indices of day `day`'s rows of kind `code`."""
    return [i for i, line in enumerate(lines) if line.split(",")[:3:2] == [str(day), code]]


def _closing_line(lines):
    """The line of day 2's U row, which the day check names."""
    return _day_rows(lines, 2, "U")[0] + 1


def _row_of(lines, code, slot):
    """The index of day 2's first row of kind `code` whose last field, up to
    a reading's dose, is `slot`."""
    return next(i for i in _day_rows(lines, 2, code)
                if lines[i].rsplit(",", 1)[1].split(":")[0] == slot)


def _edit_meal(slot, edit):
    """An edit of day 2's meal of slot `slot`, its aux fields passed through
    `edit`; it returns the line the parser names."""
    def apply(lines):
        i = _day_rows(lines, 2, "C")[slot]
        day, minute, kind, value, aux = lines[i].split(",")
        lines[i] = ",".join([day, minute, kind, value, ":".join(edit(aux.split(":")))])
        return i + 1
    return apply


def _breakfast_as_slot_seven(lines):
    _edit_meal(0, lambda f: ["7", *f[1:]])(lines)
    return _closing_line(lines)


def _repeat_lunch(lines):
    i = _day_rows(lines, 2, "C")[1]
    lines.insert(i + 1, lines[i])
    return _closing_line(lines)


def _drop_meals(lines):
    rows = _day_rows(lines, 2, "C")
    del lines[rows[0]:rows[-1] + 1]
    return _closing_line(lines)


def _drop_pre_lunch_reading(lines):
    del lines[_row_of(lines, "M", "pre_lunch")]
    return _closing_line(lines)


def _reading_of_three(lines):
    i = _day_rows(lines, 2, "M")[0]
    day, minute, kind, value, aux = lines[i].split(",")
    lines[i] = ",".join([day, minute, kind, "3.0", aux])
    return i + 1


def _drop_bedtime_reading(lines):
    del lines[_row_of(lines, "M", "bedtime")]
    return _closing_line(lines)


def _drop_basal_dose(lines):
    i = _row_of(lines, "M", "bedtime")
    lines[i] = lines[i].rsplit(":", 1)[0]
    return i + 1


def _second_basal_dose(lines):
    """A second bedtime reading a minute later, with a basal dose of 0.0 U,
    which leaves the day's total as it is."""
    i = _row_of(lines, "M", "bedtime")
    day, minute, kind, value, _ = lines[i].split(",")
    lines.insert(i + 1, f"{day},{int(minute) + 1},{kind},{value},bedtime:0.0")
    return _closing_line(lines)


def _second_bedtime_and_basal_dose(lines):
    i = _row_of(lines, "M", "bedtime")
    lines.insert(i + 1, lines[i])
    return _closing_line(lines)


def _repeated_rescue(before):
    """An edit that gives day 2 two copies of a rescue at its pre_lunch minute,
    which a rescue may share, `before` of them ahead of the pre_lunch reading."""
    def apply(lines):
        i = _row_of(lines, "M", "pre_lunch")
        rescue = lines[i].rsplit(",", 1)[0] + ",rescue"
        lines[i:i + 1] = [rescue] * before + [lines[i]] + [rescue] * (2 - before)
        return _closing_line(lines)
    return apply


def _dosed_rescue(lines):
    """A rescue at day 2's bedtime minute, ahead of that reading, holding its dose."""
    i = _row_of(lines, "M", "bedtime")
    lines.insert(i, lines[i].replace(",bedtime:", ",rescue:"))
    return i + 1


def _pre_lunch_at(minute):
    """An edit that moves day 2's pre_lunch reading, and its bolus, to `minute`."""
    def apply(lines):
        i = _row_of(lines, "M", "pre_lunch")
        day, _, kind, value, aux = lines[i].split(",")
        lines[i] = ",".join([day, str(minute), kind, value, aux])
        return _closing_line(lines)
    return apply


def _swapped_rows(code):
    """An edit that swaps day 2's first two rows of kind `code`."""
    def apply(lines):
        i = _day_rows(lines, 2, code)[0]
        lines[i:i + 2] = lines[i + 1], lines[i]
        return _closing_line(lines)
    return apply


def _row_after(code, slot, new_row):
    """An edit that puts, after day 2's first row of kind `code` and slot
    `slot`, the row `new_row(day, minute, value)` builds from that row's
    fields, and sets the day's U total to match its doses."""
    def apply(lines):
        i = _row_of(lines, code, slot)
        day, minute, _, value, _ = lines[i].split(",")
        lines.insert(i + 1, new_row(day, int(minute), value))
        total = 0.0
        for j in _day_rows(lines, 2, "M"):          # in order, as the writer sums them
            total += float(lines[j].rsplit(",", 1)[1].partition(":")[2] or 0.0)
        lines[_closing_line(lines) - 1] = f"2,1439,U,{total!r},"
        return _closing_line(lines)
    return apply


def _snack_past_midnight(lines):
    """Day 2's snack at minute 1439, lasting 30 minutes."""
    i = _day_rows(lines, 2, "C")[3]
    day, minute, kind, value, aux = lines[i].split(",")
    lines[i] = ",".join([day, "1439", kind, value, "3:30:-"])
    return i + 1


@pytest.mark.parametrize("edit, message", [
    (_repeat_lunch, "day 2 at line {} holds meals of slots [0, 1, 1, 2, 3], expected "
                    "slots 0 to 3 once each, in order"),
    (_drop_meals, "day 2 at line {} holds meals of slots [], expected slots 0 to 3"),
    (_breakfast_as_slot_seven, "day 2 at line {} holds meals of slots [7, 1, 2, 3]"),
    (_edit_meal(3, lambda f: [f[0], f[1], "12.0"]), "meal slot 3 at line {} is announced"),
    (_edit_meal(1, lambda f: [f[0], f[1], "-"]), "meal slot 1 at line {} is not announced"),
    (_edit_meal(0, lambda f: [f[0], "0", f[2]]), "meal of 0 minutes at line {}"),
    (_drop_pre_lunch_reading, "day 2 at line {} holds 0 pre_lunch readings, expected one"),
    (_reading_of_three, "reading 3.0 at line {} is outside [20.0, 600.0]"),
    (_drop_bedtime_reading, "day 2 at line {} holds 0 bedtime readings, expected one"),
    (_second_basal_dose, "day 2 at line {} holds 2 bedtime readings, expected one"),
    (_drop_basal_dose, "bedtime reading at line {} holds no basal dose"),
    (_second_bedtime_and_basal_dose, "day 2 at line {} holds readings out of order"),
    (_repeated_rescue(0),
     "day 2 at line {} holds readings out of order: they run in minute order, a "
     "minute's rescue before its one other reading"),
    (_repeated_rescue(1), "day 2 at line {} holds readings out of order"),
    (_swapped_rows("M"), "day 2 at line {} holds readings out of order"),
    (_snack_past_midnight, "meal at line {} ends at minute 1469, after the day"),
    (_row_after("M", "pre_lunch", lambda day, minute, value:
                f"{day},{minute + 3},M,{value},pre_lunch"),
     "day 2 at line {} holds 2 pre_lunch readings, expected one"),
    (_row_after("M", "pre_lunch", lambda day, minute, value:
                f"{day},{minute + 130},M,{value},post_prandial"),
     "day 2 at line {} holds post_prandial readings at minutes"),
    (_dosed_rescue, "rescue reading at line {} holds a dose"),
    (_row_after("M", "pre_lunch", lambda day, minute, value:
                f"{day},{minute + 130},M,{value},post_prandial:1.5"),
     "day 2 at line {} holds post_prandial readings at minutes"),
    (_pre_lunch_at(788), "day 2 at line {} holds its pre_lunch reading at minute 788 "
                         "for a meal at minute 758: it comes 5 to 15 minutes before "
                         "its meal"),
    (_pre_lunch_at(742), "day 2 at line {} holds its pre_lunch reading at minute 742 "
                         "for a meal at minute 758"),
], ids=["repeated_slot", "no_meals", "meal_slot_out_of_range", "announced_snack",
        "unannounced_meal", "zero_duration", "no_pre_meal_reading",
        "reading_under_the_floor", "no_bedtime_reading", "second_basal_dose",
        "no_basal_dose", "second_bedtime_and_basal_dose", "repeated_rescue",
        "rescue_either_side_of_a_reading", "swapped_readings", "meal_past_midnight",
        "second_pre_meal_reading", "post_prandial_reading_in_s1", "dose_on_a_rescue_row",
        "correction_in_s1", "pre_meal_reading_after_its_meal",
        "pre_meal_reading_16_minutes_early"])
def test_trace_rejects_a_malformed_day(edit, message):
    lines, glucose = _bba_trace()
    lineno = edit(lines)
    with pytest.raises(ValueError) as err:
        proto.trace_from_text("\n".join(lines), glucose)
    assert str(err.value).startswith(message.format(lineno))


def test_trace_reads_announced_grams_within_the_misestimation_interval_only():
    # lo * cho and hi * cho bound every announcement exactly: multiplying
    # by a positive float rounds monotonically.
    lines, glucose = _bba_trace()
    i = _day_rows(lines, 2, "C")[1]
    day, minute, kind, value, aux = lines[i].split(",")
    slot, duration, _ = aux.split(":")
    lo, hi = proto.SCENARIOS["S1"].misestimation
    for bound, beyond in ((lo * float(value), -math.inf), (hi * float(value), math.inf)):
        for announced, parses in ((bound, True), (math.nextafter(bound, beyond), False)):
            lines[i] = f"{day},{minute},{kind},{value},{slot}:{duration}:{announced!r}"
            if parses:
                proto.trace_from_text("\n".join(lines) + "\n", glucose)
                continue
            with pytest.raises(ValueError, match=rf"^meal slot 1 at line {i + 1} is "
                                                 rf"announced as {announced!r} g, outside "
                                                 rf"S1's {lo} to {hi} times the {value} g"):
                proto.trace_from_text("\n".join(lines) + "\n", glucose)


def _s4_abba_trace():
    """The text lines and glucose array of a 15-day S4 ABBA trial, which
    delivers correction boluses."""
    res = proto.run_trial(_patient(), proto.ABBA, proto.SCENARIOS["S4"],
                          master_seed=29, days=15)
    return proto.trace_to_text(res).splitlines(), res.glucose


def _one_ulp_more(row):
    day, minute, kind, value, aux = row.split(",")
    return ",".join([day, minute, kind, repr(math.nextafter(float(value), math.inf)),
                     aux])


@pytest.mark.parametrize("trace", [_bba_trace, _s4_abba_trace],
                         ids=["s1_bba", "s4_abba"])
@pytest.mark.parametrize("edit, message", [
    (lambda row: [row, row], r"U row for day 15 at line \d+ is out of order"),
    (lambda row: [_one_ulp_more(row)], r"trace text is not as written at line \d+: "
                                       r"found '15,1439,U,"),
], ids=["second_row", "one_ulp_off"])
def test_trace_rejects_a_day_total_other_than_the_sum_of_its_doses(trace, edit,
                                                                   message):
    lines, glucose = trace()
    proto.trace_from_text("\n".join(lines) + "\n", glucose)   # as written, it parses
    (i,) = [i for i, line in enumerate(lines) if line.startswith("15,1439,U,")]
    lines[i:i + 1] = edit(lines[i])
    with pytest.raises(ValueError, match=message):
        proto.trace_from_text("\n".join(lines), glucose)


@pytest.mark.parametrize("key, message", [
    ("arm", "abba trace lacks an agent bundle"),
    ("config_hash", "trace text is not as written at line 2: found '# config_hash aaaa\\n', "
                    "expected '# config_hash bbbb\\n'"),
], ids=["arm", "config_hash"])
def test_trace_rejects_a_header_given_twice(key, message):
    # The parse keeps the second value: an abba arm then wants a bundle, and
    # the rewrite of config_hash differs at the first copy.
    lines, glucose = _bba_trace()
    lines[1:1] = ["# config_hash aaaa"]
    (i,) = [i for i, line in enumerate(lines) if line.startswith(f"# {key} ")]
    lines.insert(i + 1, f"# {key} {'abba' if key == 'arm' else 'bbbb'}")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        proto.trace_from_text("\n".join(lines), glucose)


def _abba_trace():
    """The text lines and glucose array of a 15-day ABBA trial."""
    res = proto.run_trial(_patient(), proto.ABBA, proto.SCENARIOS["S1"],
                          master_seed=29, days=15)
    return proto.trace_to_text(res).splitlines(), res.glucose


def _with_bundle(lines, edit):
    """The trace text with its agent bundle's header lines passed through `edit`."""
    bundle = [line for line in lines if line.startswith("# agent.")]
    rest = [line for line in lines if not line.startswith("# agent.")]
    at = lines.index(bundle[0]) if bundle else rest.index("day,minute,kind,value,aux")
    return "\n".join(rest[:at] + edit(bundle) + rest[at:])


def test_trace_rejects_an_abba_trace_without_its_bundle():
    lines, glucose = _abba_trace()
    with pytest.raises(ValueError, match="abba trace lacks an agent bundle"):
        proto.trace_from_text(_with_bundle(lines, lambda bundle: []), glucose)


@pytest.mark.parametrize("trace, edits, message", [
    (_abba_trace, {"transfer_entropy": "-"}, "abba trace lacks a transfer_entropy value"),
    (_abba_trace, {"risk_class": "-"}, "abba trace lacks a risk_class value"),
    (_abba_trace, {"transfer_entropy": "-", "risk_class": "-"},
     "abba trace lacks a transfer_entropy value"),
    (_bba_trace, {"transfer_entropy": "0.25"}, "bba trace holds a transfer_entropy value"),
    (_bba_trace, {"risk_class": "normal:high"}, "bba trace holds a risk_class value"),
    (_bba_trace, {"transfer_entropy": "0.25", "risk_class": "normal:high"},
     "bba trace holds a transfer_entropy value"),
], ids=["abba_without_te", "abba_without_risk", "abba_without_both", "bba_with_te",
        "bba_with_risk", "bba_with_both"])
def test_trace_rejects_initialisation_headers_other_than_its_arm_holds(trace, edits,
                                                                      message):
    lines, glucose = trace()
    proto.trace_from_text("\n".join(lines) + "\n", glucose)     # as written, both parse
    for key, value in edits.items():
        text = _with_header(lines, key, lambda v: [value])
    with pytest.raises(ValueError, match=f"^{message}$"):
        proto.trace_from_text(text, glucose)


def test_trace_rejects_a_bba_trace_with_a_bundle():
    lines, glucose = _bba_trace()
    abba, _ = _abba_trace()
    foreign = [line for line in abba if line.startswith("# agent.")]
    with pytest.raises(ValueError, match="bba trace holds an agent bundle"):
        proto.trace_from_text(_with_bundle(lines, lambda bundle: foreign), glucose)


@pytest.mark.parametrize("edit, message", [
    (lambda b: b[:-1], "agent field PS3.frozen_faults missing"),
    (lambda b: b[:17], "agent field ICR1.lr_c missing"),
    (lambda b: [b[0] + " x", *b[1:]], "agent field Basal.theta: could not convert"),
    (lambda b: [b[0].rsplit(" ", 1)[0], *b[1:]], "theta must have dim 4 for Basal"),
    (lambda b: b + ["# agent.Basal.omega 1.0"],
     r"trace text is not as written at line \d+: found '# agent.Basal.omega 1.0\\n'"),
    (lambda b: b + b[:1],
     r"trace text is not as written at line \d+: found '# agent.Basal.theta "),
], ids=["cut_last_line", "cut_mid_agent", "not_a_number", "short_vector",
        "unknown_field", "repeated_field"])
def test_trace_rejects_a_malformed_agent_bundle(edit, message):
    lines, glucose = _abba_trace()
    assert len([line for line in lines if line.startswith("# agent.")]) == 7 * 10
    with pytest.raises(ValueError, match=message):
        proto.trace_from_text(_with_bundle(lines, edit), glucose)


@pytest.mark.parametrize("tag", ["some-other-format v11",
                                 *(f"abbalab-trace v{n}" for n in range(1, 11))],
                         ids=["other_format", *(f"v{n}" for n in range(1, 11))])
def test_trace_rejects_wrong_schema(tag):
    # The tag alone rejects an older schema, so a whole v11 text stands in for each.
    lines, glucose = _abba_trace()
    lines[0] = f"# {tag}"
    with pytest.raises(ValueError, match="unsupported trace schema"):
        proto.trace_from_text("\n".join(lines), glucose)


def test_trace_rejects_days_other_than_one_to_days():
    lines, glucose = _bba_trace()                          # days 1 to 15
    relabelled = [f"16,{line[3:]}" if line.startswith("15,") else line
                  for line in lines]
    with pytest.raises(ValueError, match=r"M row for day 16 at line \d+ is out of order"):
        proto.trace_from_text("\n".join(relabelled), glucose)


@pytest.mark.parametrize("cut", [
    lambda text: "\n".join(text.splitlines()[:-200]),
    lambda text: text[:len(text) - len(text.splitlines()[-1]) // 2],
    lambda text: text[:-1],
], ids=["200_lines", "mid_last_row", "final_newline"])
def test_trace_rejects_truncation(cut):
    res = proto.run_trial(_patient(), proto.BBA, proto.SCENARIOS["S1"],
                          master_seed=29, days=16)
    text = proto.trace_to_text(res)
    with pytest.raises(ValueError):
        proto.trace_from_text(cut(text), res.glucose)


def test_read_trace_rejects_crlf_line_endings(tmp_path):
    path, _ = _written_bba_trace(tmp_path)
    path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    with pytest.raises(ValueError, match=r"^p000_bba\.txt: trace text is not as written "
                                         r"at line 1: found '# abbalab-trace v11\\r\\n'"):
        proto.read_trace(path)


def _respell(code, field, respell, day=2):
    """An edit that respells field `field` of the first row of kind `code`
    on day `day`; the parse is unchanged, only the bytes differ."""
    def apply(lines):
        i = _day_rows(lines, day, code)[0]
        parts = lines[i].split(",")
        parts[field] = respell(parts[field])
        lines[i] = ",".join(parts)
    return apply


def _respell_header(prefix, respell):
    def apply(lines):
        i = next(i for i, line in enumerate(lines) if line.startswith(prefix))
        key, first, *rest = lines[i].split(" ")[1:]
        lines[i] = " ".join(["#", key, respell(first), *rest])
    return apply


def _swap(first, second):
    """An edit that swaps day 2's last row of kind `first` with its first of kind `second`."""
    def apply(lines):
        i, j = _day_rows(lines, 2, first)[-1], _day_rows(lines, 2, second)[0]
        lines[i], lines[j] = lines[j], lines[i]
    return apply


def _respell_dose(respell):
    """An edit that respells the dose of day 2's first dosed reading."""
    def apply(lines):
        i = next(i for i in _day_rows(lines, 2, "M") if ":" in lines[i])
        head, dose = lines[i].rsplit(":", 1)
        lines[i] = f"{head}:{respell(dose)}"
    return apply


def _repeat_header(key):
    def apply(lines):
        i = next(i for i, line in enumerate(lines) if line.startswith(f"# {key} "))
        lines.insert(i, lines[i])
    return apply


def _repeat_therapy(lines):
    """Open day 2, whose therapy is day 1's, with day 1's T row."""
    assert not _day_rows(lines, 2, "T")
    i = _day_rows(lines, 2, "M")[0]
    lines.insert(i, "2" + lines[_therapy_row(lines, 1)][1:])


def _exponent(text):
    return format(float(text), ".16e")


_NON_CANONICAL_EDITS = {
    "day_plus": _respell("T", 0, lambda day: "+" + day, day=1),
    "day_space": _respell("M", 0, lambda day: " " + day),
    "minute_zero_padded": _respell("M", 1, lambda minute: "0" + minute),
    "meal_minute_zero_padded": _respell("C", 1, lambda minute: "0" + minute),
    "total_in_exponent_form": _respell("U", 3, _exponent),
    "days_plus": _respell_header("# days ", lambda days: "+" + days),
    "dose_in_exponent_form": _respell_dose(_exponent),
    "dose_and_meal_swapped": _swap("M", "C"),       # the last reading, bedtime's, is dosed
    "header_repeated": _repeat_header("scenario"),
    "therapy_repeated": _repeat_therapy,
}


@pytest.fixture(scope="module")
def short_traces():
    """The text lines and glucose arrays of 15-day BBA and ABBA trials."""
    return {"bba": _bba_trace(), "abba": _abba_trace()}


@pytest.mark.parametrize("arm, edit", [
    *(pytest.param(arm, edit, id=f"{arm}-{name}")
      for arm in ("bba", "abba") for name, edit in _NON_CANONICAL_EDITS.items()),
    pytest.param("abba", _respell_header("# agent.Basal.theta ", _exponent),
                 id="abba-agent_value_in_exponent_form"),
])
def test_trace_rejects_every_non_canonical_edit(short_traces, arm, edit):
    # Each edit parses to the same trial as the text it changes; only the
    # rewrite tells them apart.
    lines, glucose = short_traces[arm]
    lines = list(lines)
    proto.trace_from_text("\n".join(lines) + "\n", glucose)
    edit(lines)
    with pytest.raises(ValueError, match=r"^trace text is not as written at line \d+: "):
        proto.trace_from_text("\n".join(lines) + "\n", glucose)
