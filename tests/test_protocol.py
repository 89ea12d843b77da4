import base64
import dataclasses
import hashlib

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
    spec = proto.SCENARIOS["S1"]
    for _ in range(10_000):
        sched = proto.sample_day(spec, rng)
        breakfast = sched.meals[0]
        assert 42.0 <= breakfast.cho_g <= 98.0
        assert 420 <= breakfast.start_minute <= 540


def test_exactly_one_snack_in_a_listed_window():
    rng = np.random.default_rng(32)
    spec = proto.SCENARIOS["S1"]
    for _ in range(2000):
        sched = proto.sample_day(spec, rng)
        snacks = [m for m in sched.meals if m.slot == 3]
        assert len(snacks) == 1
        s = snacks[0]
        assert any(lo <= s.start_minute <= hi for lo, hi in proto.SNACK_WINDOWS)
        assert s.bolus_minute is None


def test_lunch_cho_mean_matches_uniform_distribution():
    rng = np.random.default_rng(33)
    spec = proto.SCENARIOS["S1"]
    draws = [proto.sample_day(spec, rng).meals[1].cho_g for _ in range(10_000)]
    assert abs(np.mean(draws) - 100.0) < 2.0


def test_bolus_leads_meal_by_five_to_fifteen_minutes():
    rng = np.random.default_rng(34)
    spec = proto.SCENARIOS["S1"]
    for _ in range(2000):
        sched = proto.sample_day(spec, rng)
        for meal in sched.meals:
            if meal.bolus_minute is None:
                continue
            lead = meal.start_minute - meal.bolus_minute
            assert 5 <= lead <= 15


def test_basal_injection_after_last_meal_inside_window():
    rng = np.random.default_rng(35)
    spec = proto.SCENARIOS["S1"]
    for _ in range(2000):
        sched = proto.sample_day(spec, rng)
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
    assert t15 == res.initial_therapy
    assert all(t.therapy == t15 for t in res.day_traces)


def test_abba_trial_is_deterministic():
    spec = proto.SCENARIOS["S1"]
    a = proto.run_trial(_patient(), proto.ABBA, spec, master_seed=5, days=25)
    b = proto.run_trial(_patient(), proto.ABBA, spec, master_seed=5, days=25)
    assert a.transfer_entropy_bits == b.transfer_entropy_bits
    assert a.glucose.shape == b.glucose.shape == (25, proto.MINUTES_PER_DAY)
    assert (a.glucose == b.glucose).all()
    for ta, tb in zip(a.day_traces, b.day_traces):
        assert ta.therapy == tb.therapy
        assert [m.value for m in ta.measurements] == [m.value for m in tb.measurements]
        assert [r.dose_u for r in ta.insulin] == [r.dose_u for r in tb.insulin]


def test_abba_updates_therapy_after_collection():
    res = proto.run_trial(_patient(), proto.ABBA, proto.SCENARIOS["S1"],
                          master_seed=7, days=30)
    assert res.final_agents is not None
    assert res.transfer_entropy_bits >= 0.0
    assert res.risk_class is not None
    late = res.day_traces[-1].therapy
    assert late != res.initial_therapy


def test_phase_isolation_no_therapy_changes_in_collection():
    res = proto.run_trial(_patient(), proto.ABBA, proto.SCENARIOS["S1"],
                          master_seed=9, days=20)
    for trace in res.day_traces[:14]:
        assert trace.therapy == res.initial_therapy


def test_event_ordering_within_each_day():
    res = proto.run_trial(_patient(), proto.ABBA, proto.SCENARIOS["S1"],
                          master_seed=13, days=20)
    for trace in res.day_traces:
        offset = (trace.day - 1) * proto.MINUTES_PER_DAY
        basal_recs = [r for r in trace.insulin if r.kind == "basal"]
        assert len(basal_recs) == 1
        basal_minute = basal_recs[0].timestamp - offset
        assert proto.BASAL_WINDOW[0] <= basal_minute < proto.BASAL_WINDOW[1]
        meal_starts = {m.slot: m.minute for m in trace.meals if m.slot < 3}
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


def test_rescue_threshold_may_reach_but_not_exceed_the_rearm_level():
    # Above pat.HYPO, glucose held between the two would fire the rescue
    # every other minute: fire, re-arm at or above HYPO, fire again.
    params = pat.generate_cohort(8, "T1D", 3)[7]
    with pytest.raises(ValueError, match="re-arm level"):
        proto.run_trial(params, proto.BBA, proto.SCENARIOS["S1"], master_seed=3,
                        days=20, rescue_threshold=pat.HYPO + 5.0)
    # At the level itself this patient's rescue on day 20 fires at the
    # pre-breakfast minute, where both the driver and the kernel poll: it is
    # taken once, before the event's reading.
    res = proto.run_trial(params, proto.BBA, proto.SCENARIOS["S1"], master_seed=3,
                          days=20, rescue_threshold=pat.HYPO)
    same_minute = [(a.slot, b.slot) for t in res.day_traces
                   for a, b in zip(t.measurements, t.measurements[1:])
                   if a.timestamp == b.timestamp]
    assert same_minute == [("rescue", "pre_breakfast")]


def test_paired_arms_share_the_same_meal_sequence():
    spec = proto.SCENARIOS["S1"]
    a = proto.run_trial(_patient(), proto.ABBA, spec, master_seed=23, days=20)
    b = proto.run_trial(_patient(), proto.BBA, spec, master_seed=23, days=20)
    for ta, tb in zip(a.day_traces, b.day_traces):
        assert [(m.slot, m.minute, m.cho_g) for m in ta.meals] == \
            [(m.slot, m.minute, m.cho_g) for m in tb.meals]


def test_abba_trial_keeps_clamps_guard_and_non_negative_doses():
    # T1D seed 1, patient 6: ABBA rescues on day 15 and changes basal on S1.
    params = pat.generate_cohort(7, "T1D", 1)[6]
    res = proto.run_trial(params, proto.ABBA, proto.SCENARIOS["S1"],
                          master_seed=1, days=90)
    start = res.initial_therapy
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


# --- trace persistence -------------------------------------------------------------

def _assert_same_trial(a, b):
    assert a.glucose.shape == b.glucose.shape == (a.days, proto.MINUTES_PER_DAY)
    assert (a.glucose.view(np.int64) == b.glucose.view(np.int64)).all()
    assert b.glucose.dtype == np.float64 and b.glucose.flags.writeable
    assert b.glucose.flags.c_contiguous
    for ta, tb in zip(a.day_traces, b.day_traces, strict=True):
        assert ta.therapy == tb.therapy
        assert ta.measurements == tb.measurements
        assert ta.insulin == tb.insulin
        assert ta.meals == tb.meals
        assert ta.total_insulin_u == tb.total_insulin_u


def test_trace_text_round_trip_is_exact(tmp_path):
    res = proto.run_trial(_patient(), proto.ABBA, proto.SCENARIOS["S1"],
                          master_seed=29, days=16)
    headers = {"config_hash": "deadbeef", "master_seed": "29"}
    proto.write_trace(tmp_path / "a.txt", res, headers)
    back, extra = proto.read_trace(tmp_path / "a.txt")
    assert extra == headers
    _assert_same_trial(res, back)
    proto.write_trace(tmp_path / "b.txt", back, extra)
    for suffix in (".txt", ".npy"):
        assert (tmp_path / f"a{suffix}").read_bytes() == \
            (tmp_path / f"b{suffix}").read_bytes()


def test_trace_pair_holds_the_glucose_array_and_binds_it_by_digest(tmp_path):
    res = proto.run_trial(_patient(), proto.BBA, proto.SCENARIOS["S1"],
                          master_seed=29, days=15)
    proto.write_trace(tmp_path / "p000_bba.txt", res)
    glucose = np.load(tmp_path / "p000_bba.npy", allow_pickle=False)
    assert glucose.dtype.str == "<f8" and glucose.shape == (15, proto.MINUTES_PER_DAY)
    assert glucose.flags.c_contiguous
    assert (glucose.view(np.int64) == res.glucose.view(np.int64)).all()
    text = (tmp_path / "p000_bba.txt").read_text()
    digest = hashlib.sha256(glucose.tobytes()).hexdigest()
    assert f"\n# glucose {digest}\n" in text
    assert sum(",T," in line for line in text.splitlines()) == 15


def test_trial_glucose_is_one_c_order_array():
    # _assert_same_trial checks the array a trace read returns.
    res = proto.run_trial(_patient(), proto.ABBA, proto.SCENARIOS["S1"],
                          master_seed=31, days=20)
    g = res.glucose
    assert g.shape == (20, proto.MINUTES_PER_DAY) and g.dtype == np.float64
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


def test_trace_rejects_wrong_schema():
    with pytest.raises(ValueError):
        proto.trace_from_text("# some-other-format v9\n",
                              np.zeros((0, proto.MINUTES_PER_DAY)))


def _bba_trace():
    """The text lines and glucose array of a 15-day BBA trial."""
    res = proto.run_trial(_patient(), proto.BBA, proto.SCENARIOS["S1"],
                          master_seed=29, days=15)
    return proto.trace_to_text(res).splitlines(), res.glucose


def _written_bba_trace(tmp_path):
    """A 15-day BBA trial's trace pair under tmp_path: the .txt and .npy paths."""
    res = proto.run_trial(_patient(), proto.BBA, proto.SCENARIOS["S1"],
                          master_seed=29, days=15)
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
    glucose[1, 700] = np.nextafter(glucose[1, 700], np.inf)     # one ulp, one minute
    np.save(npy, glucose)
    with pytest.raises(ValueError, match="p000_bba.txt: glucose array does not match"):
        proto.read_trace(path)
    lines, original = _bba_trace()
    with pytest.raises(ValueError, match="does not match"):       # days 1, 2 swapped
        proto.trace_from_text("\n".join(lines), original[[1, 0, *range(2, 15)]])


def _therapy_row(lines, day):
    (i,) = [i for i, line in enumerate(lines) if line.startswith(f"{day},0,T,")]
    return i


def test_trace_rejects_a_therapy_row_of_the_wrong_value_count():
    lines, glucose = _bba_trace()
    i = _therapy_row(lines, 2)
    day, minute, kind, value, aux = lines[i].split(",")
    lines[i] = ",".join([day, minute, kind, " ".join(value.split()[:7]), aux])
    with pytest.raises(ValueError, match=f"therapy row at line {i + 1} holds 7 values"):
        proto.trace_from_text("\n".join(lines), glucose)


def test_trace_rejects_a_second_therapy_row():
    lines, glucose = _bba_trace()
    i = _therapy_row(lines, 2)
    lines.insert(i + 1, lines[i])
    with pytest.raises(ValueError, match="second therapy row for day 2"):
        proto.trace_from_text("\n".join(lines), glucose)


def test_trace_rejects_a_day_without_therapy():
    lines, glucose = _bba_trace()
    del lines[_therapy_row(lines, 2)]
    with pytest.raises(ValueError, match="day 2 incomplete"):
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


@pytest.mark.parametrize("key", ["arm", "config_hash"])
def test_trace_rejects_a_header_given_twice(key):
    lines, glucose = _bba_trace()
    lines[1:1] = ["# config_hash aaaa"]
    (i,) = [i for i, line in enumerate(lines) if line.startswith(f"# {key} ")]
    lines.insert(i + 1, f"# {key} {'abba' if key == 'arm' else 'bbbb'}")
    with pytest.raises(ValueError, match=f"trace header '{key}' given twice"):
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
    (lambda b: b + ["# agent.Basal.omega 1.0"], "unknown agent field 'Basal.omega'"),
    (lambda b: b + b[:1], "agent field Basal.theta given twice"),
], ids=["cut_last_line", "cut_mid_agent", "not_a_number", "short_vector",
        "unknown_field", "repeated_field"])
def test_trace_rejects_a_malformed_agent_bundle(edit, message):
    lines, glucose = _abba_trace()
    assert len([line for line in lines if line.startswith("# agent.")]) == 7 * 10
    with pytest.raises(ValueError, match=message):
        proto.trace_from_text(_with_bundle(lines, edit), glucose)


def test_trace_rejects_a_v5_file():
    """The ABBA trace as v5 wrote it: no agent lines (v5 kept the final
    bundle in a checkpoint file of its own)."""
    lines, glucose = _abba_trace()
    v5 = _with_bundle(lines, lambda bundle: []).replace(
        f"# {proto.TRACE_SCHEMA}", "# abbalab-trace v5", 1)
    with pytest.raises(ValueError, match="unsupported trace schema"):
        proto.trace_from_text(v5, glucose)


def test_trace_rejects_a_v6_file():
    """The ABBA trace as v6 wrote it: `# days` also held the collection days,
    an `# initial_therapy` header repeated day 1's therapy, each agent had
    gamma, lam and alpha_sp lines, and each I row's aux ended in the insulin
    action time."""
    lines, glucose = _abba_trace()
    day1_therapy = lines[_therapy_row(lines, 1)].split(",")[3]
    v6 = ["# abbalab-trace v6"]
    for line in lines[1:]:
        parts = line.split(",")
        if line.startswith("# days "):
            line += f" {init.COLLECTION_DAYS}"
        elif line.startswith("# glucose "):
            v6.append(f"# initial_therapy {day1_therapy}")
        elif len(parts) == 5 and parts[2] == "I":
            line += f":{adv.DIA_MIN!r}"
        v6.append(line)
        if line.startswith("# agent.") and ".lr_c " in line:
            agent = line.split(".")[1]
            v6 += [f"# agent.{agent}.gamma {adv.GAMMA!r}",
                   f"# agent.{agent}.lam {adv.LAMBDA!r}",
                   f"# agent.{agent}.alpha_sp {adv.ALPHA_SP!r}"]
    assert sum(line.startswith("# agent.") for line in v6) == 7 * 13
    assert sum(line.endswith(",bolus:240.0") for line in v6) > 0
    with pytest.raises(ValueError, match="unsupported trace schema"):
        proto.trace_from_text("\n".join(v6), glucose)


def _v4_lines():
    """The BBA trace as schema v4 wrote it: no glucose header, eight T rows a
    day named in aux, then the day's glucose as one G row of base64."""
    lines, glucose = _bba_trace()
    v4 = ["# abbalab-trace v4"]
    for line in lines[1:]:
        parts = line.split(",")
        if line.startswith("# glucose "):
            continue
        if len(parts) == 5 and parts[2] == "T":
            day = int(parts[0])
            v4.extend(f"{day},0,T,{v},{name}"
                      for name, v in zip(proto._THERAPY_FIELDS, parts[3].split()))
            raw = glucose[day - 1].astype("<f8").tobytes()
            v4.append(f"{day},0,G,{base64.b64encode(raw).decode()},")
        else:
            v4.append(line)
    return v4, glucose


def test_trace_rejects_a_v4_file():
    v4, glucose = _v4_lines()
    assert sum(",0,T," in line for line in v4) == 8 * 15
    assert sum(",0,G," in line for line in v4) == 15
    with pytest.raises(ValueError, match="unsupported trace schema"):
        proto.trace_from_text("\n".join(v4), glucose)


def _repr_glucose_lines(schema, per_minute):
    """The BBA trace as an older schema wrote it: the v4 rows with G rows of
    repr() text, one per minute (v1) or one per day (v2)."""
    v4, glucose = _v4_lines()
    old = [f"# abbalab-trace {schema}"]
    for line in v4[1:]:
        parts = line.split(",")
        if len(parts) != 5 or parts[2] != "G":
            old.append(line)
            continue
        day = int(parts[0])
        values = glucose[day - 1].tolist()
        if per_minute:
            old.extend(f"{day},{m},G,{g!r}," for m, g in enumerate(values))
        else:
            old.append(f"{day},0,G,{' '.join(map(repr, values))},")
    return old, glucose


def test_trace_rejects_a_v1_file():
    v1, glucose = _repr_glucose_lines("v1", per_minute=True)
    assert len(v1) > 15 * proto.MINUTES_PER_DAY
    with pytest.raises(ValueError, match="unsupported trace schema"):
        proto.trace_from_text("\n".join(v1), glucose)


def test_trace_rejects_a_v3_file():
    """The rescue trial as v3 wrote it: the v4 rows plus, before each day's U
    row, an R row repeating each rescue reading's minute and value."""
    res = _rescue_trial()
    rescues = {t.day: t.rescues for t in res.day_traces}
    v3 = ["# abbalab-trace v3"]
    for line in proto.trace_to_text(res).splitlines()[1:]:
        parts = line.split(",")
        if len(parts) == 5 and parts[2] == "U":
            day = int(parts[0])
            offset = (day - 1) * proto.MINUTES_PER_DAY
            v3.extend(f"{day},{int(m.timestamp) - offset},R,{m.value!r},"
                      for m in rescues[day])
        v3.append(line)
    assert sum(",R," in line for line in v3) == sum(map(len, rescues.values())) > 0
    with pytest.raises(ValueError, match="unsupported trace schema"):
        proto.trace_from_text("\n".join(v3), res.glucose)


def test_trace_rejects_a_v2_file():
    v2, glucose = _repr_glucose_lines("v2", per_minute=False)
    assert [len(line.split(",")[3].split(" ")) for line in v2 if ",0,G," in line] \
        == [proto.MINUTES_PER_DAY] * 15
    with pytest.raises(ValueError, match="unsupported trace schema"):
        proto.trace_from_text("\n".join(v2), glucose)


def test_trace_rejects_days_other_than_one_to_days():
    lines, glucose = _bba_trace()                          # days 1 to 15
    relabelled = [f"16,{line[3:]}" if line.startswith("15,") else line
                  for line in lines]
    with pytest.raises(ValueError, match=r"missing \[15\], unexpected \[16\]"):
        proto.trace_from_text("\n".join(relabelled), glucose)


def test_trace_rejects_truncation():
    res = proto.run_trial(_patient(), proto.BBA, proto.SCENARIOS["S1"],
                          master_seed=29, days=16)
    text = proto.trace_to_text(res)
    truncated = "\n".join(text.splitlines()[:-200])
    with pytest.raises(ValueError):
        proto.trace_from_text(truncated, res.glucose)
