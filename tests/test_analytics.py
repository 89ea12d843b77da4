import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import special, stats

from abbalab import analytics as ana
from abbalab import patient as pat
from abbalab import protocol as proto


# --- range metrics -------------------------------------------------------------

def test_time_in_ranges_constant_in_range():
    assert ana.time_in_ranges(np.full(1440, 120.0)) == (100.0, 0.0, 0.0, 0.0)


def test_time_in_ranges_even_split():
    series = np.concatenate([np.full(720, 60.0), np.full(720, 200.0)])
    assert ana.time_in_ranges(series) == (0.0, 50.0, 0.0, 50.0)


def test_time_in_ranges_severe_low_is_counted_in_both_bands():
    tir, tbr1, tbr2, tar = ana.time_in_ranges(np.full(100, 45.0))
    assert (tir, tbr1, tbr2, tar) == (0.0, 100.0, 100.0, 0.0)


def test_ranges_partition_identity_on_random_series():
    rng = np.random.default_rng(41)
    for _ in range(200):
        series = rng.uniform(20.0, 400.0, rng.integers(10, 3000))
        tir, tbr1, tbr2, tar = ana.time_in_ranges(series)
        assert tir + tbr1 + tar == pytest.approx(100.0, abs=1e-9)
        assert tbr2 <= tbr1


# --- event counting ---------------------------------------------------------------

def test_short_dip_is_not_an_event():
    series = np.full(200, 100.0)
    series[50:60] = 65.0                      # 10 minutes below
    assert ana.count_events(series) == (0, 0)


def test_two_separated_dips_are_two_events():
    series = np.full(200, 100.0)
    series[10:40] = 65.0                      # 30-minute dip
    series[70:100] = 65.0                     # 30-minute recovery, then again
    assert ana.count_events(series)[0] == 2


def test_all_in_range_day_has_no_events():
    assert ana.count_events(np.full(1440, 110.0)) == (0, 0)


def test_brief_recovery_does_not_split_an_event():
    series = np.full(200, 100.0)
    series[10:40] = 65.0
    series[45:75] = 65.0                      # only 5 in-range minutes between
    assert ana.count_events(series)[0] == 1


def test_hyper_events_counted_symmetrically():
    series = np.full(200, 100.0)
    series[20:50] = 220.0
    assert ana.count_events(series) == (0, 1)


def test_no_tbr_implies_no_hypo_events():
    rng = np.random.default_rng(42)
    for _ in range(100):
        series = rng.uniform(70.0, 400.0, 1440)
        _, tbr1, _, _ = ana.time_in_ranges(series)
        if tbr1 == 0.0:
            assert ana.count_events(series)[0] == 0


def _count_runs_by_minute(beyond, persist, rearm):
    """Reference: the per-minute state machine that _count_runs must equal."""
    count, in_event, true_run, false_run = 0, False, 0, 0
    for flag in beyond:
        if flag:
            true_run, false_run = true_run + 1, 0
            if not in_event and true_run >= persist:
                in_event, count = True, count + 1
        else:
            true_run, false_run = 0, false_run + 1
            if in_event and false_run >= rearm:
                in_event = False
    return count


@pytest.mark.parametrize("persist,rearm", [(15, 15), (1, 1), (3, 20), (20, 3)])
def test_run_counting_matches_the_minute_loop(persist, rearm):
    rng = np.random.default_rng(49)
    for case in range(600):
        if case % 2:                          # blocky: runs of random lengths
            lengths = rng.integers(1, 2 * max(persist, rearm) + 2, 40)
            b = np.repeat(np.arange(lengths.size) % 2 == rng.integers(2), lengths)
        else:
            b = rng.random(int(rng.integers(0, 300))) < rng.random()
        assert ana._count_runs(b, persist, rearm) == \
            _count_runs_by_minute(b, persist, rearm)


def test_run_counting_edge_cases():
    persist, rearm = ana.EVENT_PERSIST_MIN, ana.EVENT_REARM_MIN
    cases = {
        "empty": np.zeros(0, dtype=bool),
        "all true": np.ones(100, dtype=bool),
        "exactly persist": np.r_[np.zeros(5), np.ones(persist), np.zeros(5)] > 0,
        "persist - 1": np.r_[np.zeros(5), np.ones(persist - 1), np.zeros(5)] > 0,
        "gap of rearm - 1": np.r_[np.ones(persist), np.zeros(rearm - 1),
                                  np.ones(persist)] > 0,
        "gap of rearm": np.r_[np.ones(persist), np.zeros(rearm),
                              np.ones(persist)] > 0,
    }
    expected = {"empty": 0, "all true": 1, "exactly persist": 1, "persist - 1": 0,
                "gap of rearm - 1": 1, "gap of rearm": 2}
    for name, b in cases.items():
        assert ana._count_runs(b, persist, rearm) == expected[name], name
        assert _count_runs_by_minute(b, persist, rearm) == expected[name], name


# --- risk indices -----------------------------------------------------------------

def test_lbgi_zero_point():
    assert ana.lbgi(np.full(100, 112.5)) == pytest.approx(0.0, abs=1e-3)


def test_lbgi_ignores_the_high_side():
    assert ana.lbgi(np.full(100, 250.0)) == 0.0


def test_lbgi_flags_sustained_lows():
    assert ana.lbgi(np.full(100, 50.0)) > 5.0


def _where_low_risk(g):
    """The low-glucose risk as one np.where over full-length temporaries."""
    f = 1.509 * (np.log(g) ** 1.084 - 5.381)
    return np.where(f < 0, 10 * f * f, 0)


def _assert_low_risk_bits(g):
    before = g.copy()
    risk = ana._low_risk(g)
    expected = _where_low_risk(g)
    assert risk.shape == g.shape and risk.dtype == np.float64
    assert (risk.view(np.int64) == expected.view(np.int64)).all()
    assert (g == before).all()
    return expected


def test_low_risk_is_bit_equal_to_the_where_form_across_the_zero_crossing():
    g0 = math.exp(5.381 ** (1 / 1.084))             # f = 0 at about 112.5 mg/dL
    assert 112.4 < g0 < 112.6
    ulps = np.arange(-600, 601, dtype=np.int64)
    g = (np.array([g0]).view(np.int64) + ulps).view(np.float64)
    expected = _assert_low_risk_bits(g)
    assert (expected > 0).any() and (expected == 0).any()


def test_low_risk_is_bit_equal_at_the_glucose_floor_and_ceiling():
    g = np.array([pat.GLUCOSE_FLOOR, pat.GLUCOSE_CEIL])
    expected = _assert_low_risk_bits(g)
    assert expected[0] > 0 and expected[1] == 0


@pytest.mark.parametrize("bad", [0.5, 0.0, -3.0, math.nan])
def test_low_risk_rejects_glucose_below_one_and_nan(bad):
    # Below 1 mg/dL the log is negative and f is NaN, as it is for NaN
    # glucose; np.where would score either as no risk.
    g = np.array([pat.GLUCOSE_FLOOR, bad, 120.0])
    with pytest.raises(ValueError, match="at least 1 mg/dL"):
        ana._low_risk(g)
    with pytest.raises(ValueError, match="at least 1 mg/dL"):
        ana.lbgi(g.reshape(1, 3))
    assert ana.lbgi(np.array([1.0])) == float(_where_low_risk(np.array([1.0]))[0])


@pytest.mark.parametrize("n", [1, ana._RISK_CHUNK - 1, ana._RISK_CHUNK,
                               ana._RISK_CHUNK + 1, 3 * ana._RISK_CHUNK + 17])
def test_low_risk_is_bit_equal_on_lengths_off_the_chunk(n):
    rng = np.random.default_rng(n)
    _assert_low_risk_bits(rng.uniform(pat.GLUCOSE_FLOOR, pat.GLUCOSE_CEIL, n))


def test_lbgi_of_a_2d_series_is_bit_equal_to_the_where_form():
    rng = np.random.default_rng(61)
    g = rng.uniform(pat.GLUCOSE_FLOOR, 250.0, (7, proto.MINUTES_PER_DAY))
    expected = _assert_low_risk_bits(g)
    assert ana.lbgi(g) == float(np.mean(expected))


def test_hba1c_at_mean_148():
    estimate = ana.estimate_hba1c(np.full(1440, 148.0))
    assert estimate == pytest.approx((148.0 + 46.7) / 28.7, abs=1e-9)
    assert round(estimate, 2) == 6.78


def test_hba1c_at_mean_154():
    estimate = ana.estimate_hba1c(np.full(1440, 154.0))
    assert round(estimate, 2) == 6.99


def test_hba1c_is_affine_not_proportional():
    base = ana.estimate_hba1c(np.full(100, 150.0))
    doubled = ana.estimate_hba1c(np.full(100, 300.0))
    assert doubled != pytest.approx(2.0 * base, rel=1e-6)
    assert doubled == pytest.approx(base + 150.0 / 28.7, abs=1e-9)


# --- normality test ----------------------------------------------------------------

def test_lilliefors_accepts_normal_samples():
    rng = np.random.default_rng(43)
    accepted = sum(ana.lilliefors(rng.standard_normal(1000))[1] > 0.05
                   for _ in range(100))
    assert accepted >= 90


def test_lilliefors_rejects_exponential():
    rng = np.random.default_rng(44)
    _, p = ana.lilliefors(rng.exponential(size=1000))
    assert p < 0.01


def test_lilliefors_rejects_constant_by_convention():
    _, p = ana.lilliefors(np.full(50, 3.0))
    assert p == 0.0


def test_lilliefors_needs_five_observations():
    with pytest.raises(ValueError):
        ana.lilliefors(np.array([1.0, 2.0, 3.0]))


# --- in-house tails against scipy.special ---------------------------------------------

def test_average_ranks_match_scipy_rankdata_on_ties():
    rng = np.random.default_rng(50)
    for n in list(range(0, 40)) + [101, 500]:
        for levels in (1, 2, 3, 7, 1000):
            x = rng.integers(0, levels, n) * 0.5
            assert (ana._average_ranks(x) == stats.rankdata(x)).all()


def test_normal_tail_matches_scipy_ndtr():
    # scipy and ana both take erfc of a rounded x / sqrt(2), and scipy's erfc
    # rounds x^2 inside exp(-x^2), so the far left tail may differ by x^2 ulps.
    x = np.concatenate([np.linspace(-37.0, 8.0, 90_001),
                        np.random.default_rng(51).standard_normal(10_000)])
    ref = special.ndtr(x)
    got = np.array([ana.ndtr(v) for v in x.tolist()])
    rel = np.abs(got - ref) / ref
    assert (rel <= 1e-14 + x * x * 2.0 ** -52).all()
    assert rel[x >= -10.0].max() <= 1e-14
    assert ana.ndtr(0.0) == 0.5


def test_t_tail_matches_scipy_stdtr():
    t = np.concatenate([np.linspace(-40.0, 40.0, 321),
                        [-2.0, np.nextafter(-2.0, -3.0), np.nextafter(-2.0, 0.0)]])
    for df in list(range(1, 201)) + [500, 1000]:
        ref = special.stdtr(df, t)
        for ti, r in zip(t[ref >= 1e-300].tolist(), ref[ref >= 1e-300]):
            assert abs(ana.stdtr(df, ti) - r) <= 1e-12 * r, (df, ti)


def test_t_tail_closed_forms():
    for df in (1, 2, 3, 10, 101, 1000):
        assert ana.stdtr(df, 0.0) == 0.5
    for t in np.linspace(-40.0, 40.0, 161).tolist():
        u = abs(t)
        cauchy = math.atan(1.0 / u) / math.pi if u else 0.5
        df2 = 1.0 / (math.sqrt(u * u + 2.0) * (math.sqrt(u * u + 2.0) + u))
        for df, lower in ((1, cauchy), (2, df2)):
            want = lower if t <= 0.0 else 1.0 - lower
            assert ana.stdtr(df, t) == pytest.approx(want, rel=1e-14, abs=0.0), (df, t)


def test_stdtr_rejects_a_non_integer_df():
    for df in (0, -1, 2.5):
        with pytest.raises(ValueError):
            ana.stdtr(df, -1.0)


def test_five_normal_pairs_take_the_t_test_with_scipy_p():
    a = [61.0, 64.5, 66.0, 69.5, 72.0]
    b = [55.0, 60.0, 58.5, 65.0, 63.0]
    row = ana.paired_compare(a, b)
    assert row.test == "t"
    d = np.array(a) - np.array(b)
    t = d.mean() / (d.std(ddof=1) / np.sqrt(d.size))
    assert row.p_value == pytest.approx(2.0 * stats.t.sf(abs(t), d.size - 1),
                                        rel=1e-12, abs=0.0)


def _run_python(code, *args):
    """stdout of `code` run in a fresh interpreter that imports abbalab from src."""
    src = str(Path(ana.__file__).resolve().parents[1])
    code = "import sys; sys.path.insert(0, sys.argv[1]); " + code
    return subprocess.run([sys.executable, "-c", code, src, *args],
                          capture_output=True, text=True, check=True).stdout


def test_importing_the_cli_leaves_scipy_stats_unloaded():
    # subprocess only builds the compiled kernel, when no cached build exists.
    out = _run_python("import abbalab.cli; "
                      "print('scipy.stats' in sys.modules, 'scipy.special' in sys.modules, "
                      "'subprocess' in sys.modules)")
    assert out.strip() == "False False False"


def test_run_replay_and_report_need_no_scipy(tmp_path):
    config = tmp_path / "run.ini"
    config.write_text("[run]\nscenario = S1\ndiabetes_type = T1D\ncohort_size = 5\n"
                      "seed = 7\ndays = 20\narms = abba,bba\n")
    out = tmp_path / "out"
    code = ("sys.modules['scipy'] = None; import abbalab.cli as cli; "
            "from pathlib import Path; "
            "csv = Path(sys.argv[3], 'report_T1D.csv'); "
            "rc = [cli.main(['run', '--config', sys.argv[2], '--out', sys.argv[3]])]; "
            "ran = csv.read_bytes(); "
            "rc.append(cli.main(['replay', '--out', sys.argv[3]])); "
            "same = csv.read_bytes() == ran; "
            "rc.append(cli.main(['report', '--out', sys.argv[3]])); "
            "print(*rc, same)")
    stdout = _run_python(code, str(config), str(out))
    assert stdout.splitlines()[-1].split() == ["0", "0", "0", "True"]
    rows = [line.split(",") for line in (out / "report_T1D.csv").read_text().splitlines()
            if line.count(",") == 11 and line.split(",")[9] in ("t", "wilcoxon")]
    assert rows and all(row[3] == "5" for row in rows)


def test_fewer_than_five_pairs_call_no_normal_or_t_tail(monkeypatch):
    def forbidden(*args):
        raise AssertionError("fewer than five pairs need no normal or t tail")
    monkeypatch.setattr(ana, "ndtr", forbidden)
    monkeypatch.setattr(ana, "stdtr", forbidden)
    rng = np.random.default_rng(56)
    for n in range(1, 5):
        row = ana.paired_compare(rng.normal(100, 10, n), rng.normal(90, 10, n))
        assert row.test == "wilcoxon" and 0.0 < row.p_value <= 1.0
    windows = ana.standard_windows(30)
    outcomes = [_outcome(pid, arm, windows, rng.uniform(1.0, 90.0))
                for arm in ("abba", "bba") for pid in range(4)]
    report = ana.build_report(outcomes, windows)
    assert len(report.comparisons) == len(windows) * len(ana.METRIC_FIELDS)
    assert {row.test for row in report.comparisons} == {"wilcoxon"}


def _ks_stats(x):
    """Lilliefors statistic of each row of x, with scipy's ndtr as the normal CDF."""
    n = x.shape[1]
    grid = np.arange(n + 1) / n
    z = np.sort((x - x.mean(axis=1, keepdims=True))
                / x.std(axis=1, ddof=1, keepdims=True), axis=1)
    c = special.ndtr(z)
    return np.maximum((grid[1:] - c).max(axis=1), (c - grid[:-1]).max(axis=1))


def _oracle_null_stats(n, draws=50_000, chunk=10_000):
    """The statistics of `draws` seeded normal samples of size n: a
    Monte-Carlo null distribution, drawn a chunk of samples at a time."""
    rng = np.random.default_rng(np.random.SeedSequence([58, n]))
    return np.concatenate([_ks_stats(rng.standard_normal((chunk, n)))
                           for _ in range(draws // chunk)])


@pytest.mark.parametrize("n", [5, 20, 101, 200])
def test_lilliefors_p_matches_a_monte_carlo_null_at_the_gate(n):
    # The statistic of a sample of n is at least 1/(2n); p falls across that range.
    stat = np.linspace(0.5 / n, 1.0, 2001).tolist()
    p = [ana._lilliefors_p(d, n) for d in stat]
    assert max(p) <= 1.0 and all(b <= a for a, b in zip(p, p[1:]))
    lo, hi = 0.5 / n, 1.0
    for _ in range(60):                 # the closed form's 0.05 critical value
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if ana._lilliefors_p(mid, n) > 0.05 else (lo, mid)
    oracle = np.quantile(_oracle_null_stats(n), 0.95)
    assert abs(lo / oracle - 1.0) <= 0.02
    rng = np.random.default_rng(57 + n)
    samples = np.concatenate([rng.standard_normal((20, n)), rng.exponential(1.0, (20, n))])
    for x, d in zip(samples, _ks_stats(samples).tolist()):
        assert ana.lilliefors(x) == pytest.approx((d, ana._lilliefors_p(d, n)),
                                                  rel=1e-12, abs=0.0)


def test_report_path_draws_no_random_numbers(monkeypatch):
    values = np.random.default_rng(59).normal(50.0, 10.0, (2, 101))

    def forbidden(*args, **kwargs):
        raise AssertionError("the report path drew random numbers")
    monkeypatch.setattr(np.random, "default_rng", forbidden)
    monkeypatch.setattr(np.random, "SeedSequence", forbidden)
    windows = ana.standard_windows(30)
    for n in (6, 101):
        outcomes = [_outcome(pid, arm, windows, values[i, pid])
                    for i, arm in enumerate(("abba", "bba")) for pid in range(n)]
        report = ana.build_report(outcomes, windows)
        assert {row.n for row in report.comparisons} == {n}
        assert "t" in {row.test for row in report.comparisons}


# --- paired comparison ----------------------------------------------------------------

def test_identical_arms_are_not_significant():
    a = np.arange(20.0)
    row = ana.paired_compare(a, a)
    assert row.p_value == 1.0
    assert not row.significant


def test_unanimous_differences_are_significant():
    rng = np.random.default_rng(45)
    b = rng.uniform(60.0, 80.0, 20)
    a = b + 5.0
    row = ana.paired_compare(a, b, alpha=0.01)
    assert row.p_value < 0.01
    assert row.significant


def test_wilcoxon_exact_unanimous_tail():
    w, p, method = ana.wilcoxon_signed_rank(np.full(20, 5.0) +
                                            np.arange(20) * 1e-6)
    assert method == "exact"
    assert p == pytest.approx(2.0 / 2 ** 20, rel=1e-9)


def test_wilcoxon_statistic_invariant_under_monotone_transform():
    rng = np.random.default_rng(46)
    d = rng.normal(0.3, 1.0, 18)
    w1, p1, _ = ana.wilcoxon_signed_rank(d)
    w2, p2, _ = ana.wilcoxon_signed_rank(np.sign(d) * np.abs(d) ** 3)
    assert w1 == w2
    assert p1 == p2


def test_paired_power_at_unit_effect():
    rng = np.random.default_rng(47)
    hits = 0
    for _ in range(40):
        b = rng.normal(0.0, 1.0, 101)
        a = b + rng.normal(1.0, 1.0, 101)
        if ana.paired_compare(a, b, alpha=0.01).significant:
            hits += 1
    assert hits >= 38                               # >= 95% power


def test_comparison_gate_runs_exactly_one_test():
    rng = np.random.default_rng(48)
    normal_pair = (rng.normal(100, 10, 30), rng.normal(90, 10, 30))
    skewed_pair = (rng.exponential(5.0, 30) ** 2, rng.exponential(4.0, 30))
    assert ana.paired_compare(*normal_pair).test == "t"
    assert ana.paired_compare(*skewed_pair).test == "wilcoxon"


def test_paired_compare_rejects_length_mismatch():
    with pytest.raises(ValueError):
        ana.paired_compare(np.zeros(5), np.zeros(6))


# --- windows and cohort reduction -----------------------------------------------

def test_sliding_windows_cover_weeks_3_through_10():
    windows = ana.standard_windows(90)
    weekly = [w for w in windows if w.name.startswith("week")]
    assert [w.name for w in weekly] == [f"week{k}" for k in range(3, 11)]
    assert weekly[0].start_day == 15
    assert weekly[-1].end_day == 90


def test_windows_reject_trials_shorter_than_collection():
    with pytest.raises(ValueError):
        ana.standard_windows(10)


@pytest.mark.parametrize("collection_days", [13, 15])
def test_windows_start_after_the_collection_phase_alone(collection_days):
    # Below 14 a window would start in the collection phase, which the
    # trial's glucose no longer holds; above it every window would drop
    # on-line days.
    assert ana.standard_windows(30, 14) == ana.standard_windows(30)
    with pytest.raises(ValueError, match=f"^the collection phase is 14 days, "
                                         f"not {collection_days}$"):
        ana.standard_windows(30, collection_days)


def test_full_window_tir_lies_between_sliding_extremes():
    p = pat.generate_cohort(1, "T1D", 51)[0]
    res = proto.run_trial(p, proto.BBA, proto.SCENARIOS["S1"], master_seed=51,
                          days=90)
    windows = ana.standard_windows(90)
    outcome = ana.reduce_trial(res, windows)
    weekly_tir = [s.tir_pct for name, s in outcome.summaries.items()
                  if name.startswith("week")]
    full = outcome.summaries["full"].tir_pct
    assert min(weekly_tir) - 1e-9 <= full <= max(weekly_tir) + 1e-9


def test_reduce_trial_equals_each_window_reduced_from_its_own_minutes():
    p = pat.generate_cohort(1, "T1D", 53)[0]
    res = proto.run_trial(p, proto.ABBA, proto.SCENARIOS["S1"], master_seed=53,
                          days=30)
    windows = ana.standard_windows(30)
    outcome = ana.reduce_trial(res, windows)
    minutes = np.concatenate(list(res.glucose))         # day 15 on
    risk = _where_low_risk(minutes)
    for w in windows:
        span = slice((w.start_day - 15) * proto.MINUTES_PER_DAY,
                     (w.end_day - 14) * proto.MINUTES_PER_DAY)
        s = outcome.summaries[w.name]
        assert s.mean_glucose == float(np.mean(minutes[span]))
        assert s.hba1c_pct == ana.estimate_hba1c(minutes[span])
        assert s.lbgi == float(np.mean(risk[span]))
        assert (s.tir_pct, s.tbr1_pct, s.tbr2_pct, s.tar_pct) == \
            ana.time_in_ranges(minutes[span])
        assert (s.hypo_events, s.hyper_events) == ana.count_events(minutes[span])


def test_reduce_trial_rejects_a_window_in_the_collection_phase():
    # The trial's glucose starts at day 15, so a window there has no minutes.
    p = pat.generate_cohort(1, "T1D", 53)[0]
    res = proto.run_trial(p, proto.BBA, proto.SCENARIOS["S1"], master_seed=53, days=20)
    with pytest.raises(ValueError, match="^window full starts on day 14, in the "
                                         "collection phase$"):
        ana.reduce_trial(res, [ana.Window("full", 14, 20)])


@pytest.mark.parametrize("days", [90, 365])
def test_reduce_trial_peaks_under_twice_the_trial_glucose(days, traced_peak):
    p = pat.generate_cohort(1, "T1D", 54)[0]
    res = proto.run_trial(p, proto.BBA, proto.SCENARIOS["S1"], master_seed=54,
                          days=days)
    windows = ana.standard_windows(days)
    peak = traced_peak(ana.reduce_trial, res, windows)
    assert peak <= 2 * res.glucose.nbytes, peak / res.glucose.nbytes


def test_single_patient_cohort_has_zero_sd():
    p = pat.generate_cohort(1, "T1D", 52)[0]
    res = proto.run_trial(p, proto.BBA, proto.SCENARIOS["S1"], master_seed=52,
                          days=20)
    windows = ana.standard_windows(20)
    report = ana.build_report([ana.reduce_trial(res, windows)], windows)
    vals = report.metric(proto.BBA, "full", "tir_pct")
    assert vals.size == 1
    assert np.std(vals) == 0.0


@pytest.mark.parametrize("kind", ["normal", "ties", "integer"])
def test_describe_equals_numpy_median_and_percentiles(kind):
    rng = np.random.default_rng(7)
    for n in range(1, 131):             # odd and even n, one value upwards
        x = {"normal": lambda: rng.normal(60.0, 25.0, n),
             "ties": lambda: np.round(rng.uniform(0.0, 3.0, n)) * 12.5,
             "integer": lambda: rng.integers(0, 5, n).astype(float)}[kind]()
        _, _, median, (lo, hi) = ana._describe(x)
        assert (median, lo, hi) == (float(np.median(x)), float(np.percentile(x, 25)),
                                    float(np.percentile(x, 75))), n


def test_describe_of_a_sample_with_a_nan_is_nan():
    for x in ([np.nan], [3.0, np.nan, 1.0], [np.nan, 2.0, 5.0, 1.0]):
        _, _, median, (lo, hi) = ana._describe(np.array(x))
        assert all(math.isnan(v) for v in (median, lo, hi))
        assert math.isnan(np.median(x)) and math.isnan(np.percentile(x, 25))


def test_run_replay_and_report_load_neither_numpy_ma_nor_multiprocessing(tmp_path):
    config = tmp_path / "run.ini"
    config.write_text("[run]\nscenario = S1\ndiabetes_type = T1D\ncohort_size = 5\n"
                      "seed = 7\ndays = 20\narms = abba,bba\njobs = 2\n")
    code = ("sys.modules['numpy.ma'] = sys.modules['multiprocessing'] = None; "
            "import abbalab.cli as cli; "
            "rc = [cli.main(['run', '--config', sys.argv[2], '--out', sys.argv[3]]), "
            "cli.main(['replay', '--out', sys.argv[3]]), "
            "cli.main(['report', '--out', sys.argv[3]])]; "
            "print(*rc)")
    stdout = _run_python(code, str(config), str(tmp_path / "out"))
    assert stdout.splitlines()[-1].split() == ["0", "0", "0"]


def _outcome(pid, arm, windows, value=50.0, scenario="S1", diabetes_type="T1D"):
    summary = ana.GlycemicSummary(*np.full(len(ana.METRIC_FIELDS), value))
    return ana.PatientOutcome(
        patient_id=pid, arm=arm, scenario=scenario, diabetes_type=diabetes_type,
        summaries={w.name: summary for w in windows}, rescue_count=pid)


def test_build_report_requires_identical_cohorts():
    p1, p2 = pat.generate_cohort(2, "T1D", 54)
    spec = proto.SCENARIOS["S1"]
    windows = ana.standard_windows(20)
    outcomes = [ana.reduce_trial(proto.run_trial(p1, proto.ABBA, spec, 54, days=20),
                                 windows),
                ana.reduce_trial(proto.run_trial(p2, proto.BBA, spec, 54, days=20),
                                 windows)]
    with pytest.raises(ValueError, match="no patient has an outcome for every arm"):
        ana.build_report(outcomes, windows)


def test_build_report_drops_an_unpaired_patient_from_both_arms():
    windows = ana.standard_windows(30)
    outcomes = [_outcome(pid, arm, windows, value=10.0 * pid + (arm == "abba"))
                for arm, pids in (("bba", (3, 0, 2)), ("abba", (2, 1, 0)))
                for pid in pids]
    report = ana.build_report(outcomes, windows)
    assert list(report.outcomes) == ["abba", "bba"]
    assert {arm: [o.patient_id for o in arm_outcomes]
            for arm, arm_outcomes in report.outcomes.items()} == \
        {"abba": [0, 2], "bba": [0, 2]}
    assert report.metric("abba", "full", "tir_pct").tolist() == [1.0, 21.0]
    assert {row.n for row in report.comparisons} == {2}


def test_build_report_of_one_arm_makes_no_comparisons():
    windows = ana.standard_windows(30)
    report = ana.build_report([_outcome(pid, "bba", windows) for pid in (1, 0)],
                              windows)
    assert report.comparisons == []
    assert [o.patient_id for o in report.outcomes["bba"]] == [0, 1]


def test_build_report_rejects_mixed_scenarios():
    windows = ana.standard_windows(30)
    outcomes = [_outcome(0, "abba", windows),
                _outcome(0, "bba", windows, scenario="S2")]
    with pytest.raises(ValueError, match="share scenario and diabetes type"):
        ana.build_report(outcomes, windows)


def test_build_report_rejects_mixed_diabetes_types():
    windows = ana.standard_windows(30)
    outcomes = [_outcome(0, "abba", windows),
                _outcome(0, "bba", windows, diabetes_type="T2D")]
    with pytest.raises(ValueError, match="share scenario and diabetes type"):
        ana.build_report(outcomes, windows)


def test_build_report_rejects_a_third_arm():
    windows = ana.standard_windows(30)
    outcomes = [_outcome(0, arm, windows) for arm in ("abba", "bba", "xyz")]
    with pytest.raises(ValueError, match="expected one or two arms"):
        ana.build_report(outcomes, windows)


def test_build_report_rejects_no_outcomes():
    with pytest.raises(ValueError, match="no outcomes"):
        ana.build_report([], ana.standard_windows(30))


def test_report_round_trip_through_csv_and_svg():
    cohort = pat.generate_cohort(2, "T1D", 55)
    spec = proto.SCENARIOS["S1"]
    windows = ana.standard_windows(30)
    outcomes = [ana.reduce_trial(proto.run_trial(p, arm, spec, master_seed=55, days=30),
                                 windows)
                for arm in (proto.ABBA, proto.BBA) for p in cohort]
    report = ana.build_report(outcomes, windows)
    csv_text = ana.report_to_csv(report, {"master_seed": "55"})
    assert csv_text.startswith(f"# {ana.REPORT_SCHEMA}")
    assert "tir_pct" in csv_text
    svg = ana.chart_svg(report)
    assert svg.startswith("<svg") or svg.startswith("<?xml")
    assert "</svg>" in svg
