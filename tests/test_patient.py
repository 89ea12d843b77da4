import dataclasses
import hashlib
import math
import re
import subprocess
import tempfile
from array import array
from pathlib import Path

import numpy as np
import pytest

from abbalab import patient as pat
from abbalab import protocol as proto


# --- cohort sampling ----------------------------------------------------------

def test_cohort_deterministic_under_fixed_seed():
    a = pat.generate_cohort(101, "T1D", seed=7)
    b = pat.generate_cohort(101, "T1D", seed=7)
    assert a == b


def test_cohort_t1d_mean_weight_in_published_band():
    cohort = pat.generate_cohort(101, "T1D", seed=7)
    mean_w = np.mean([p.body_weight for p in cohort])
    assert 62.7 <= mean_w <= 76.7


def test_cohort_t2d_all_have_residual_secretion():
    cohort = pat.generate_cohort(101, "T2D", seed=7)
    assert all(p.residual_insulin_secretion_gain > 0 for p in cohort)


def test_cohort_t2d_mean_weight_within_ten_percent():
    cohort = pat.generate_cohort(101, "T2D", seed=7)
    mean_w = np.mean([p.body_weight for p in cohort])
    assert abs(mean_w - 95.0) / 95.0 < 0.10


def test_cohort_rejects_invalid_n():
    with pytest.raises(ValueError):
        pat.generate_cohort(0, "T1D", seed=1)


# --- ODE stepping ---------------------------------------------------------------

def _t1d_patient():
    return pat.generate_cohort(1, "T1D", seed=11)[0]


# Glucose at 120 mg/dL with every depot and insulin state empty.
EMPTY_STATE = (0.0,) * 8 + (120.0,)


def _step(y, consts, cho_g=0.0, rapid_u=0.0, long_u=0.0):
    """Deposit the inputs into the gut and insulin depots, then integrate one
    minute at unit sensitivity (no dawn effect, no day-to-day variation)."""
    y = (y[0] + cho_g, y[1], y[2] + rapid_u, y[3], y[4] + long_u, *y[5:])
    return pat._rk4_minute(y, consts, 1.0)


def test_equilibrium_holds_over_a_day():
    p = _t1d_patient()
    basal = pat.nominal_therapy(p).basal_u_per_day
    consts = pat._model_constants(p)
    y = pat.equilibrium_state(p, basal)
    g0 = y[8]
    rate = basal / pat.MINUTES_PER_DAY
    for _ in range(1440):
        y = _step(y, consts, long_u=rate)
    assert abs(y[8] - g0) < 1.0


def test_meal_raises_glucose():
    p = _t1d_patient()
    consts = pat._model_constants(p)
    y = pat.equilibrium_state(p, pat.nominal_therapy(p).basal_u_per_day)
    y = _step(y, consts, cho_g=60.0)
    series = [y[8]]
    for _ in range(60):
        y = _step(y, consts)
        series.append(y[8])
    diffs = np.diff(series)
    assert (diffs > 0).all()


def test_insulin_lowers_glucose():
    p = _t1d_patient()
    consts = pat._model_constants(p)
    y = pat.equilibrium_state(p, pat.nominal_therapy(p).basal_u_per_day)
    y = _step(y, consts, rapid_u=5.0)
    series = [y[8]]
    for _ in range(120):
        y = _step(y, consts)
        series.append(y[8])
    diffs = np.diff(series)
    # Absorption through two compartments delays onset by a few minutes.
    assert (diffs[10:] < 0).all()
    assert series[-1] < series[0]


def test_compartments_stay_nonnegative_under_input_fuzz():
    p = _t1d_patient()
    consts = pat._model_constants(p)
    y = EMPTY_STATE
    rng = np.random.default_rng(5)
    n = 100_000
    cho = np.where(rng.random(n) < 0.01, rng.uniform(0, 30, n), 0.0)
    rapid = np.where(rng.random(n) < 0.01, rng.uniform(0, 10, n), 0.0)
    longu = np.where(rng.random(n) < 0.005, rng.uniform(0, 40, n), 0.0)
    for i in range(n):
        y = _step(y, consts, cho_g=cho[i], rapid_u=rapid[i], long_u=longu[i])
        if min(y) < 0.0:
            raise AssertionError(f"negative compartment at step {i}: {y}")


def test_higher_basal_gives_lower_fasting_glucose():
    p = _t1d_patient()
    doses = [5.0, 10.0, 20.0, 30.0]
    levels = [pat.fasting_glucose(p, d) for d in doses]
    assert all(a >= b for a, b in zip(levels, levels[1:]))
    assert levels[0] > levels[-1]


def test_t2d_secretion_lowers_steady_glucose():
    p = pat.generate_cohort(1, "T2D", seed=9)[0]
    g_with = pat.fasting_glucose(p, 0.0)
    no_secretion = dataclasses.replace(p, residual_insulin_secretion_gain=0.0)
    g_without = pat.fasting_glucose(no_secretion, 0.0)
    assert np.isfinite(g_with)
    assert g_with < g_without


# --- SMBG ----------------------------------------------------------------------

def test_smbg_zero_noise_passthrough():
    rng = np.random.default_rng(0)
    assert pat.read_smbg(150.0, rng, cv=0.0) == 150.0


def test_smbg_unbiased_at_five_percent_cv():
    rng = np.random.default_rng(42)
    draws = np.array([pat.read_smbg(150.0, rng, cv=0.05) for _ in range(100_000)])
    assert abs(draws.mean() - 150.0) < 0.5


def test_smbg_clamps_at_floor():
    rng = np.random.default_rng(1)
    readings = [pat.read_smbg(25.0, rng, cv=0.5) for _ in range(2000)]
    assert min(readings) >= 20.0


def test_smbg_reads_an_array_of_any_shape_value_for_value():
    g = np.linspace(15.0, 650.0, 12)
    scalar_rng = np.random.default_rng(5)
    scalar = np.array([pat.read_smbg(float(x), scalar_rng) for x in g])
    flat = pat.read_smbg(g, np.random.default_rng(5))
    assert (flat.view(np.int64) == scalar.view(np.int64)).all()
    square = pat.read_smbg(g.reshape(3, 4), np.random.default_rng(5))
    assert square.shape == (3, 4)
    assert (square.reshape(-1).view(np.int64) == flat.view(np.int64)).all()
    # A strided 2-D view reads as its values in C order, as the collection
    # log reads every fifth minute of each collection day.
    days = np.full((3, 20), 100.0)
    days[:, ::5] = g.reshape(3, 4)
    strided = pat.read_smbg(days[:, ::5], np.random.default_rng(5))
    assert (strided.reshape(-1).view(np.int64) == flat.view(np.int64)).all()


# --- sensitivity schedule --------------------------------------------------------

def test_dawn_multiplier_at_six_am():
    sched = pat.SensitivitySchedule(dawn_enabled=True)
    assert pat.dawn_multiplier(sched, 360.0) == 0.5


def test_dawn_multiplier_outside_window():
    sched = pat.SensitivitySchedule(dawn_enabled=True)
    assert pat.dawn_multiplier(sched, 720.0) == 1.0


def test_dawn_multiplier_mid_ramp():
    sched = pat.SensitivitySchedule(dawn_enabled=True)
    assert pat.dawn_multiplier(sched, 255.0) == pytest.approx(0.75, abs=1e-12)


def test_interday_factor_range_and_disabled_case():
    rng = np.random.default_rng(3)
    sched = pat.SensitivitySchedule(interday_variability_pct=0.30)
    draws = [pat.draw_interday_factor(sched, rng) for _ in range(1000)]
    assert min(draws) >= 0.70 and max(draws) <= 1.30
    flat = pat.SensitivitySchedule()
    assert pat.draw_interday_factor(flat, rng) == 1.0


# --- compiled kernel ------------------------------------------------------------

# (type, seed, patient, scenario, days): patient 6 has rescues in both arms,
# S4 adds correction boluses, S2 the +/-30% day-to-day sensitivity factor.
KERNEL_TRIALS = (("T1D", 1, 6, "S1", 90), ("T2D", 3, 0, "S4", 30),
                 ("T1D", 3, 1, "S2", 30))


def _build(cache_dir, flags=pat.KERNEL_FLAGS):
    try:
        return pat.compiled_integrate(pat.build_kernel(cache_dir, flags))
    except (OSError, subprocess.CalledProcessError) as exc:
        pytest.skip(f"the compiled kernel cannot be built here: {exc}")


def _traces(kernel):
    """The trace pair of both arms of every KERNEL_TRIALS trial under
    `kernel`: (text, bytes of the .npy glucose array) each."""
    pairs = []
    with pytest.MonkeyPatch.context() as mp, tempfile.TemporaryDirectory() as tmp:
        mp.setattr(pat, "_kernel", kernel)
        path = Path(tmp) / "trace.txt"
        for dtype, seed, pid, scenario, days in KERNEL_TRIALS:
            params = pat.generate_cohort(pid + 1, dtype, seed)[pid]
            for arm in (proto.ABBA, proto.BBA):
                result = proto.run_trial(params, arm, proto.SCENARIOS[scenario],
                                         master_seed=seed, days=days)
                proto.write_trace(path, result)
                pairs.append((path.read_text(), path.with_suffix(".npy").read_bytes()))
    return pairs


def _mismatches(pairs, reference):
    labels = [(trial, arm) for trial in KERNEL_TRIALS for arm in (proto.ABBA, proto.BBA)]
    return [label for label, a, b in zip(labels, pairs, reference) if a != b]


@pytest.fixture(scope="module")
def compiled():
    return _build(pat.KERNEL_SOURCE.parent / "__pycache__")


@pytest.fixture(scope="module")
def python_traces():
    pairs = _traces(pat.integrate)
    rescue_row = re.compile(r"^\d+,[\d.]+,M,[\d.]+,rescue$", re.MULTILINE)
    assert rescue_row.search(pairs[0][0]) and rescue_row.search(pairs[1][0])  # both arms
    return pairs


# The first 16 hex digits of the sha256 of each python_traces pair (the text,
# then the .npy bytes), in order. A change of trace schema re-pins them too:
# schema v7 dropped the values that never vary (the collection days, the
# initial therapy header, each agent's gamma, lam and alpha_sp, and each I
# row's insulin action time) and bumped its tag, so these differ from v6's
# although every .npy and every other value is the same.
TRACE_DIGESTS = ("79c4de443694ae56", "b3c4d625d2f86401",     # T1D seed 1 p6 S1
                 "bb2bb10bf9525008", "fa2dda771959b707",     # T2D seed 3 p0 S4
                 "413311b2fb46efe4", "6330f144e6109386")     # T1D seed 3 p1 S2


def test_python_traces_keep_their_pinned_digests(python_traces):
    """The kernel tests run both kernels through one driver, so a change to
    the driver or the Trial state moves both sides alike; these digests
    catch it. A change that moves the numbers on purpose re-pins them, as
    ROADMAP item 1 (common random numbers across arms) will."""
    digests = [hashlib.sha256(text.encode() + npy).hexdigest()[:16]
               for text, npy in python_traces]
    assert digests == list(TRACE_DIGESTS)


def test_compiled_kernel_reproduces_the_python_traces(compiled, python_traces):
    assert _mismatches(_traces(compiled), python_traces) == []


def test_kernel_flags_keep_traces_under_native_tuning(python_traces, tmp_path):
    """-march=native lets the compiler emit FMA wherever the CPU has it;
    -ffp-contract=off must still keep every product and sum rounded apart."""
    kernel = _build(tmp_path, (*pat.KERNEL_FLAGS, "-march=native"))
    assert _mismatches(_traces(kernel), python_traces) == []


def _rescue_day(kernel, sens):
    """One fasting day stepped the way run_trial steps it: a minute where the
    rescue fires gets its grams in `cho`, and the kernel is called again from
    that minute, which it polls a second time before stepping it."""
    p = _t1d_patient()
    consts = array("d", pat._model_constants(p))
    y = array("d", pat.equilibrium_state(p, 20.0))
    cho = array("d", bytes(8 * pat.MINUTES_PER_DAY))
    g_out = array("d", bytes(8 * pat.MINUTES_PER_DAY))
    rescue, fired, m = proto.RescueController(), [], 0
    while (m := kernel(y, consts, sens, cho, g_out, m, pat.MINUTES_PER_DAY,
                       rescue)) < pat.MINUTES_PER_DAY:
        fired.append(m)
        cho[m] += proto.RESCUE_GRAMS
    return fired, g_out


def test_rescues_fire_and_rearm_alike_in_both_kernels(compiled):
    # Sensitivity switched between 10x and 0 every two hours takes glucose
    # below the rescue threshold, back above the re-arm level and down again
    # within one segment, with no event minute to re-arm the controller.
    sens = array("d", [10.0 if m // 120 % 2 == 0 else 0.0
                       for m in range(pat.MINUTES_PER_DAY)])
    fired, glucose = _rescue_day(pat.integrate, sens)
    assert len(fired) == 3
    assert _rescue_day(compiled, sens) == (fired, glucose)


def test_non_finite_sensitivity_faults_in_both_kernels(compiled):
    p = _t1d_patient()
    consts = array("d", pat._model_constants(p))
    sens = array("d", [1.0] * pat.MINUTES_PER_DAY)
    sens[100] = math.nan
    cho = array("d", bytes(8 * pat.MINUTES_PER_DAY))
    faults, glucose = [], []
    for kernel in (pat.integrate, compiled):
        y = array("d", pat.equilibrium_state(p, 20.0))
        g_out = array("d", bytes(8 * pat.MINUTES_PER_DAY))
        with pytest.raises(pat.SimulationFault) as info:
            kernel(y, consts, sens, cho, g_out, 0, pat.MINUTES_PER_DAY,
                   proto.RescueController())
        faults.append(str(info.value))
        glucose.append(g_out)
    assert "G=nan" in faults[0]
    assert faults[0] == faults[1]                   # the message holds the state
    assert glucose[0] == glucose[1]
    assert glucose[0][99] > 0.0 and glucose[0][100] == 0.0


def test_without_a_compiler_trials_run_the_python_kernel(tmp_path, monkeypatch, capsys):
    source = tmp_path / "_kernel.c"
    source.write_bytes(pat.KERNEL_SOURCE.read_bytes())
    monkeypatch.setattr(pat, "KERNEL_SOURCE", source)     # an empty cache beside it
    monkeypatch.setattr(pat, "_kernel", None)
    monkeypatch.setenv("PATH", str(tmp_path))             # no cc
    assert pat.load_kernel() is pat.integrate
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "compiled kernel unavailable" in err[0]
    assert pat.load_kernel() is pat.integrate             # chosen once per process
    assert capsys.readouterr().err == ""
