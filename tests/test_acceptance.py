"""Acceptance suite: nine end-to-end claims about the assembled lab.

Criteria 1, 2, and 4 share two simulated cohorts (20 patients per diabetes
type, scenario S1, 90 days, both advisor arms); criterion 3 adds an
11-patient sweep over every scenario. The remaining criteria are
self-contained property and fixed-value checks. Each test registers its
verdict with the conftest recorder, so the run ends with one printed
pass/fail line per criterion.
"""

import time

import numpy as np
import pytest

from abbalab import advisor as adv
from abbalab import analytics as ana
from abbalab import cli
from abbalab import initialisation as init
from abbalab import patient as pat
from abbalab import protocol as proto
from abbalab.advisor import AgentKind, FeatureVector, InsulinRecord

SEED = 1
TRIAL_DAYS = 90
MAIN_COHORT = 20
SWEEP_COHORT = 11
TYPES = ("T1D", "T2D")
ARMS = (proto.ABBA, proto.BBA)


def _run_pair(n, dtype, scenario_id):
    """Simulate n patients under both arms, reducing each trial right away
    so only the per-window summaries stay in memory."""
    spec = proto.SCENARIOS[scenario_id]
    windows = ana.standard_windows(TRIAL_DAYS)
    cohort = pat.generate_cohort(n, dtype, SEED)
    return {arm: [ana.reduce_trial(
                      proto.run_trial(p, arm, spec, master_seed=SEED,
                                      days=TRIAL_DAYS),
                      windows)
                  for p in cohort]
            for arm in ARMS}


def _metric(outcomes, window, name):
    return np.array([getattr(o.summaries[window], name) for o in outcomes],
                    dtype=float)


@pytest.fixture(scope="session")
def s1_cohorts():
    data = {}
    for dtype in TYPES:
        t0 = time.perf_counter()
        reduced = _run_pair(MAIN_COHORT, dtype, "S1")
        reduced["elapsed_s"] = time.perf_counter() - t0
        data[dtype] = reduced
    return data


@pytest.fixture(scope="session")
def scenario_margins():
    """Mean on-line TIR per arm for every scenario and diabetes type."""
    table = {}
    for dtype in TYPES:
        for sid in sorted(proto.SCENARIOS):
            reduced = _run_pair(SWEEP_COHORT, dtype, sid)
            table[(dtype, sid)] = tuple(
                float(np.mean(_metric(reduced[arm], "full", "tir_pct")))
                for arm in ARMS)
    return table


# --- criterion 1: headline comparison ------------------------------------------------

def test_criterion_1_directional_superiority_on_s1(s1_cohorts, criterion):
    problems, parts = [], []
    for dtype in TYPES:
        abba, bba = s1_cohorts[dtype][proto.ABBA], s1_cohorts[dtype][proto.BBA]
        tir_a = _metric(abba, "full", "tir_pct")
        tir_b = _metric(bba, "full", "tir_pct")
        d_tir = float(tir_a.mean() - tir_b.mean())
        tbr_a = float(_metric(abba, "full", "tbr1_pct").mean())
        tbr_b = float(_metric(bba, "full", "tbr1_pct").mean())
        hypo_a = int(_metric(abba, "full", "hypo_events").sum())
        hypo_b = int(_metric(bba, "full", "hypo_events").sum())
        row = ana.paired_compare(tir_a, tir_b, alpha=0.05,
                                 metric="tir_pct", window="full")
        if d_tir < 5.0:
            problems.append(f"{dtype} TIR gain {d_tir:+.1f}pp is below +5pp")
        if not tbr_a < tbr_b:
            problems.append(f"{dtype} TBR I {tbr_a:.2f} not below {tbr_b:.2f}")
        if hypo_a > 0.7 * hypo_b:
            problems.append(f"{dtype} hypo events {hypo_a} vs {hypo_b}: "
                            "reduction under 30%")
        if not row.p_value < 0.05:
            problems.append(f"{dtype} paired p={row.p_value:.3g} not < 0.05")
        cut = 100.0 * (1.0 - hypo_a / hypo_b) if hypo_b else float("nan")
        parts.append(f"{dtype} dTIR {d_tir:+.1f}pp, hypo -{cut:.0f}%, "
                     f"p={row.p_value:.1e}")
    elapsed = sum(s1_cohorts[d]["elapsed_s"] for d in TYPES)
    if elapsed >= 600.0:
        problems.append(f"cohort simulation took {elapsed:.0f}s, budget 600s")
    parts.append(f"{elapsed:.0f}s")
    criterion(1, "ABBA beats BBA on TIR, TBR, and hypo events (S1, n=20)",
              not problems, "; ".join(parts))
    assert not problems, "; ".join(problems)


# --- criterion 2: learning over the trial ---------------------------------------------

def test_criterion_2_abba_improves_while_bba_stays_flat(s1_cohorts, criterion):
    problems, parts = [], []
    for dtype in TYPES:
        abba, bba = s1_cohorts[dtype][proto.ABBA], s1_cohorts[dtype][proto.BBA]
        gain_a = float(_metric(abba, "last4w", "tir_pct").mean()
                       - _metric(abba, "first4w", "tir_pct").mean())
        drift_b = float(_metric(bba, "last4w", "tir_pct").mean()
                        - _metric(bba, "first4w", "tir_pct").mean())
        if not gain_a > 0.0:
            problems.append(f"{dtype} ABBA last-4w TIR gain {gain_a:+.1f}pp "
                            "is not positive")
        if not abs(drift_b) < 3.0:
            problems.append(f"{dtype} BBA drift {drift_b:+.1f}pp reaches 3pp")
        parts.append(f"{dtype} abba {gain_a:+.1f}pp, bba {drift_b:+.1f}pp")
    criterion(2, "last-4-weeks TIR grows under ABBA only",
              not problems, "; ".join(parts))
    assert not problems, "; ".join(problems)


# --- criterion 3: scenario sweep ---------------------------------------------------

def test_criterion_3_tir_advantage_holds_across_scenarios(scenario_margins,
                                                          criterion):
    problems, margins = [], {}
    for (dtype, sid), (tir_a, tir_b) in sorted(scenario_margins.items()):
        margin = tir_a - tir_b
        margins[(dtype, sid)] = margin
        if margin < 5.0:
            problems.append(f"{dtype} {sid} margin {margin:+.1f}pp below +5pp")
    worst = min(margins, key=margins.get)
    detail = (f"min margin {margins[worst]:+.1f}pp at {worst[0]} {worst[1]}, "
              f"{len(margins)} cells")
    criterion(3, "TIR advantage holds for S1-S4, n=11, both types",
              not problems, detail)
    assert not problems, "; ".join(problems)


# --- criterion 4: rescue burden ------------------------------------------------------

def test_criterion_4_fewer_rescue_activations(s1_cohorts, criterion):
    problems, parts = [], []
    for dtype in TYPES:
        total_a = sum(o.rescue_count for o in s1_cohorts[dtype][proto.ABBA])
        total_b = sum(o.rescue_count for o in s1_cohorts[dtype][proto.BBA])
        if not total_a < total_b:
            problems.append(f"{dtype} rescues {total_a} not below {total_b}")
        parts.append(f"{dtype} {total_a} vs {total_b}")
    criterion(4, "fewer rescue carbohydrates under ABBA",
              not problems, "; ".join(parts))
    assert not problems, "; ".join(problems)


# --- criterion 5: safety envelope under fuzz -------------------------------------------

def test_criterion_5_safety_invariants_under_fuzz(criterion):
    rng = np.random.default_rng(55)
    therapy = adv.TherapyParams(icr=[10.0] * 3, ps=[1.0] * 3, cf=50.0,
                                basal=24.0)
    kinds = list(AgentKind)
    n = 100_000
    proposals = rng.uniform(-30.0, 30.0, n)
    picks = rng.integers(0, len(kinds), n)
    tdds = rng.uniform(10.0, 80.0, n)
    chos = rng.uniform(0.0, 200.0, n)
    readings = rng.uniform(20.0, 600.0, n)
    iobs = rng.uniform(0.0, 15.0, n)
    slots = rng.integers(0, 3, n)
    violations = 0
    for i in range(n):
        kind = kinds[picks[i]]
        current = therapy.current(kind)
        a0 = therapy.a_init(kind)
        new = adv.apply_action(kind, float(proposals[i]), current, a0, 0.5,
                               prev_tdd=float(tdds[i]) if kind.is_basal else None)
        if not (0.5 * a0 - 1e-12 <= new <= 2.0 * a0 + 1e-12):
            violations += 1
        if kind.is_basal and new != current and new < 0.25 * tdds[i] - 1e-12:
            violations += 1
        therapy.set_current(kind, new)
        dose = adv.bolus_recommendation(float(chos[i]), float(readings[i]),
                                        therapy, int(slots[i]), float(iobs[i]))
        if dose < 0.0:
            violations += 1
        if i % 10 == 0:
            window = rng.uniform(20.0, 600.0, int(rng.integers(1, 8)))
            f = adv.bolus_features(window)
            if not (0.0 <= f.f_hyper <= 1.0 and 0.0 <= f.f_hypo <= 1.0):
                violations += 1
    criterion(5, "clamps, basal guard, dose floor, unit features under fuzz",
              violations == 0, f"{violations} violations in {n} updates")
    assert violations == 0


# --- criterion 6: critic against a brute-force oracle ---------------------------------

def test_criterion_6_critic_matches_discounted_cost_oracle(criterion):
    beta = adv.beta_for("T1D")
    s_a = np.array([1.0, 0.10])
    s_b = np.array([0.0, 0.20])
    c = adv.cost(s_a, beta)
    assert adv.cost(s_b, beta) == pytest.approx(c, abs=1e-12)
    v_a_oracle = v_b_oracle = 0.0
    for _ in range(2000):
        v_a_oracle = c + adv.GAMMA * v_b_oracle
        v_b_oracle = c + adv.GAMMA * v_a_oracle
    agent = adv.AgentState(kind=AgentKind.ICR1, theta=np.zeros(2),
                           w=np.zeros(2), z=np.zeros(2), lr_c=0.5)
    state, nxt = s_a, s_b
    err = float("inf")
    iterations = 0
    for iterations in range(1, 5001):
        adv.critic_update(agent, state, nxt, beta)
        state, nxt = nxt, state
        err = max(abs(float(agent.w @ s_a) - v_a_oracle),
                  abs(float(agent.w @ s_b) - v_b_oracle))
        if err < 1e-3:
            break
    criterion(6, "TD(lambda) value matches the two-state oracle within 1e-3",
              err < 1e-3, f"error {err:.1e} after {iterations} sweeps")
    assert err < 1e-3


# --- criterion 7: fixed-value and distribution checks ----------------------------------

def _example_checks():
    """Every hand-computable or seeded-distribution example the modules are
    built around, as (label, callable) pairs."""
    checks = []

    def check(label):
        def bind(fn):
            checks.append((label, fn))
            return fn
        return bind

    @check("cohort weight band")
    def _():
        cohort = pat.generate_cohort(101, "T1D", seed=7)
        mean_w = float(np.mean([p.body_weight for p in cohort]))
        assert 62.7 <= mean_w <= 76.7, mean_w

    @check("smbg unbiased at 5% cv")
    def _():
        rng = np.random.default_rng(1)
        draws = np.array([pat.read_smbg(150.0, rng)
                          for _ in range(100_000)])
        assert abs(float(draws.mean()) - 150.0) <= 0.5

    @check("dawn multiplier at 06:00")
    def _():
        assert pat.dawn_multiplier(360.0) == 0.5

    @check("glucose error at band edges")
    def _():
        assert adv.glucose_error(200.0) == 20.0
        assert adv.glucose_error(60.0) == -10.0

    @check("hyper feature normalization")
    def _():
        f = adv.bolus_features([200.0, 240.0])
        assert f.f_hyper == pytest.approx(40.0 / 220.0, abs=1e-9)
        assert f.f_hypo == 0.0

    @check("hypo feature normalization")
    def _():
        f = adv.bolus_features([60.0])
        assert f.f_hypo == pytest.approx(10.0 / 50.0, abs=1e-9)
        assert f.f_hyper == 0.0

    @check("overnight delta branches")
    def _():
        hyper = adv.overnight_delta(220.0, 150.0)
        assert hyper[0] == pytest.approx(70.0 / 220.0, abs=1e-9)
        assert hyper[1] == 0.0
        hypo = adv.overnight_delta(80.0, 130.0)
        assert hypo[0] == 0.0
        assert hypo[1] == pytest.approx(50.0 / 50.0, abs=1e-9)

    @check("state assembly per agent family")
    def _():
        s = adv.build_state(AgentKind.BASAL, FeatureVector(0.1, 0.0),
                            np.array([0.2, 0.0]))
        assert s.tolist() == [0.1, 0.0, 0.2, 0.0]
        assert adv.build_state(AgentKind.ICR1,
                               FeatureVector(0.1, 0.0)).tolist() == [0.1, 0.0]
        assert adv.build_state(AgentKind.PS2,
                               FeatureVector(0.0, 0.3)).tolist() == [0.0, 0.3]

    @check("asymmetric cost weights")
    def _():
        assert adv.cost([0.3, 0.0], adv.beta_for("T1D")) == pytest.approx(0.3)
        assert adv.cost([0.0, 0.3], adv.beta_for("T1D")) == pytest.approx(3.0)
        assert adv.cost([0.3, 0.0], adv.beta_for("T2D")) == pytest.approx(3.0)

    @check("critic hand step")
    def _():
        agent = adv.AgentState(kind=AgentKind.ICR1, theta=np.zeros(2),
                               w=np.array([1.0, 0.0]), z=np.array([1.0, 0.0]),
                               lr_c=0.1)
        d = adv.critic_update(agent, np.array([1.0, 0.0]), np.zeros(2),
                              adv.beta_for("T1D"))
        assert d == pytest.approx(-1.0, abs=1e-12)
        assert agent.w[0] == pytest.approx(0.9, abs=1e-12)

    @check("policy pinned to zero after an in-range day")
    def _():
        agent = adv.AgentState(kind=AgentKind.ICR1, theta=np.array([5.0, -5.0]),
                               w=np.zeros(2), z=np.zeros(2))
        assert adv.policy(agent, np.array([0.3, 0.1]),
                          FeatureVector(0.0, 0.0)) == 0.0

    @check("icr policy blend")
    def _():
        agent = adv.AgentState(kind=AgentKind.ICR1, theta=np.array([0.4, 0.0]),
                               w=np.zeros(2), z=np.zeros(2))
        p = adv.policy(agent, np.array([0.5, 0.0]), FeatureVector(0.4, 0.0))
        assert p == pytest.approx(0.08, abs=1e-9)

    @check("ps policy is pure linear")
    def _():
        agent = adv.AgentState(kind=AgentKind.PS1, theta=np.array([-0.6, 0.0]),
                               w=np.zeros(2), z=np.zeros(2))
        p = adv.policy(agent, np.array([0.5, 0.0]), FeatureVector(0.9, 0.9))
        assert p == pytest.approx(-0.3, abs=1e-12)

    @check("adam first step equals the learning rate")
    def _():
        agent = adv.AgentState(kind=AgentKind.ICR1, theta=np.zeros(2),
                               w=np.zeros(2), z=np.zeros(2), lr_a=0.1)
        adv.actor_update(agent, 0.5, np.array([1.0, 1.0]))
        assert np.allclose(agent.theta, -0.1, atol=1e-6)

    @check("gradient floor for tiny state components")
    def _():
        agent = adv.AgentState(kind=AgentKind.ICR1, theta=np.zeros(2),
                               w=np.zeros(2), z=np.zeros(2), lr_a=0.1)
        adv.actor_update(agent, 1.0, np.array([0.0, 1.0]))
        assert agent.adam_m[0] == pytest.approx(0.1 * 20.0, abs=1e-9)
        assert agent.adam_m[1] == pytest.approx(0.1 * 1.0, abs=1e-9)

    @check("therapy update, clamp, and basal guard")
    def _():
        assert adv.apply_action(AgentKind.ICR1, 0.2, 10.0, 10.0,
                                0.5) == pytest.approx(11.0)
        assert adv.apply_action(AgentKind.ICR1, 10.0, 15.0, 10.0, 0.5) == 20.0
        assert adv.apply_action(AgentKind.BASAL, -1.2, 10.0, 20.0, 0.5,
                                prev_tdd=40.0) == 10.0

    @check("iob sums linear decays")
    def _():
        recs = [InsulinRecord(4.0, "bolus", 0.0), InsulinRecord(2.0, "bolus", 120.0)]
        assert adv.iob(recs, 180.0) == pytest.approx(2.5, abs=1e-12)

    @check("meal bolus arithmetic")
    def _():
        therapy = adv.TherapyParams(icr=[10.0] * 3, ps=[1.0] * 3, cf=50.0,
                                    basal=24.0)
        assert adv.bolus_recommendation(60.0, 180.0, therapy, 0,
                                        1.0) == pytest.approx(6.4, abs=1e-9)
        therapy.ps = [1.2] * 3
        assert adv.bolus_recommendation(60.0, 180.0, therapy, 0,
                                        1.0) == pytest.approx(7.88, abs=1e-9)

    @check("correction bolus trigger and dose")
    def _():
        therapy = adv.TherapyParams(icr=[10.0] * 3, ps=[1.0] * 3, cf=40.0,
                                    basal=24.0)
        assert adv.correction_bolus(230.0, therapy, 1.0,
                                    0.0) == pytest.approx(3.0, abs=1e-9)
        assert adv.correction_bolus(170.0, therapy, 1.0, 0.0) is None

    @check("transfer entropy of independent noise")
    def _():
        rng = np.random.default_rng(12)
        assert init.transfer_entropy(rng.standard_normal(10_000),
                                     rng.standard_normal(10_000)) < 0.02

    @check("transfer entropy of a lag-one copy")
    def _():
        rng = np.random.default_rng(13)
        x = rng.integers(0, 2, 10_000).astype(float)
        y = np.concatenate([[0.0], x[:-1]])
        assert init.transfer_entropy(x, y, bins=2) == pytest.approx(1.0, abs=0.05)

    @check("policy magnitude shrinks with transfer entropy")
    def _():
        assert np.allclose(np.abs(init.init_policy_params(0.0, AgentKind.ICR1)), 0.5)
        assert np.allclose(np.abs(init.init_policy_params(1.0, AgentKind.ICR1)), 0.25)
        mags = [abs(init.init_policy_params(te, AgentKind.PS1)[0])
                for te in (0.0, 0.5, 1.5)]
        assert mags[0] > mags[1] > mags[2]

    @check("variability classification at sd 60")
    def _():
        n = init.COLLECTION_DAYS * (init.MINUTES_PER_DAY // init.CGM_INTERVAL_MIN)
        cgm = np.empty(n)
        cgm[0::2] = 90.0
        cgm[1::2] = 210.0
        log = init.CollectionLog(cgm=cgm, insulin_records=(), basal_rate=0.0)
        assert init.classify(log, "T1D").variability == "increased"

    @check("nocturnal risk classification")
    def _():
        n = init.COLLECTION_DAYS * (init.MINUTES_PER_DAY // init.CGM_INTERVAL_MIN)
        cgm = np.full(n, 140.0)
        clock = (np.arange(n) * init.CGM_INTERVAL_MIN) % init.MINUTES_PER_DAY
        overnight = np.flatnonzero(clock < init.OVERNIGHT_WINDOW[1])
        cgm[overnight[::2]] = 60.0
        log = init.CollectionLog(cgm=cgm, insulin_records=(), basal_rate=0.0)
        assert init.classify(log, "T2D").nocturnal_risk == "high"

    @check("hyperparameter table corners")
    def _():
        hp = init.select_hyperparameters(init.RiskClass("normal", "normal"), "T1D")
        assert all(hp[k]["lr_a"] == 0.1 and hp[k]["lr_c"] == 0.1
                   and hp[k]["m"] == 0.5 for k in AgentKind)
        hp = init.select_hyperparameters(init.RiskClass("increased", "normal"), "T2D")
        assert all(hp[k]["lr_a"] == 0.01 and hp[k]["m"] == 1.0 for k in AgentKind)
        hp = init.select_hyperparameters(init.RiskClass("increased", "high"), "T1D")
        assert hp[AgentKind.ICR3]["lr_a"] == 0.001

    @check("weight-based starting therapy")
    def _():
        assert init.t2d_initial_therapy(80.0) == (40.0, 20.0, 12.5, 45.0)
        assert init.t2d_initial_therapy(100.0) == (50.0, 25.0, 10.0, 36.0)

    @check("meal sampling distributions")
    def _():
        rng = np.random.default_rng(31)
        lunches = []
        for _ in range(10_000):
            sched = proto.sample_day(rng)
            breakfast = sched.meals[0]
            assert 42.0 <= breakfast.cho_g <= 98.0
            assert 420 <= breakfast.start_minute <= 540
            snacks = [m for m in sched.meals if m.slot == 3]
            assert len(snacks) == 1 and snacks[0].bolus_minute is None
            assert any(lo <= snacks[0].start_minute <= hi
                       for lo, hi in proto.SNACK_WINDOWS)
            lunches.append(sched.meals[1].cho_g)
        assert abs(float(np.mean(lunches)) - 100.0) < 2.0

    @check("announcement error intervals")
    def _():
        rng = np.random.default_rng(36)
        s1 = [proto.announce_cho(100.0, proto.SCENARIOS["S1"], rng)
              for _ in range(5000)]
        assert min(s1) >= 70.0 and max(s1) <= 110.0
        s3 = [proto.announce_cho(100.0, proto.SCENARIOS["S3"], rng)
              for _ in range(5000)]
        assert min(s3) >= 50.0 and max(s3) <= 150.0
        assert min(s3) < 70.0 and max(s3) > 110.0

    @check("rescue threshold, dose, and re-arm")
    def _():
        rc = proto.RescueController()
        assert rc.poll(29.0) == 20.0
        assert rc.poll(28.0) == 0.0
        assert rc.poll(75.0) == 0.0
        assert rc.poll(29.0) == 20.0

    @check("correction boluses gated on post-prandial readings")
    def _():
        patient = pat.generate_cohort(1, "T1D", 11)[0]
        res = proto.run_trial(patient, proto.ABBA, proto.SCENARIOS["S4"],
                              master_seed=19, days=40)
        n_corrections = 0
        for trace in res.day_traces:
            readings = {m.timestamp: m for m in trace.measurements}
            for rec in trace.insulin:
                if rec.kind != "correction":
                    continue
                n_corrections += 1
                m = readings[rec.timestamp]
                assert m.slot == "post_prandial" and m.value > 180.0
        assert n_corrections > 0

    @check("severe lows count in both below-range bands")
    def _():
        _, tbr1, tbr2, _ = ana.time_in_ranges(np.full(100, 45.0))
        assert tbr1 == 100.0 and tbr2 == 100.0

    @check("event persistence and re-arm rules")
    def _():
        series = np.full(200, 100.0)
        series[50:60] = 65.0
        assert ana.count_events(series) == (0, 0)
        series = np.full(200, 100.0)
        series[10:40] = 65.0
        series[70:100] = 65.0
        assert ana.count_events(series)[0] == 2

    @check("low blood glucose index anchors")
    def _():
        assert ana.lbgi(np.full(100, 112.5)) == pytest.approx(0.0, abs=1e-3)
        assert ana.lbgi(np.full(100, 50.0)) > 5.0

    @check("hba1c estimator anchors")
    def _():
        assert round(ana.estimate_hba1c(np.full(1440, 148.0)), 2) == 6.78
        assert round(ana.estimate_hba1c(np.full(1440, 154.0)), 2) == 6.99

    @check("normality test calibration and power")
    def _():
        rng = np.random.default_rng(44)
        accepted = sum(ana.lilliefors(rng.standard_normal(1000))[1] > 0.05
                       for _ in range(100))
        assert accepted >= 90
        _, p = ana.lilliefors(np.random.default_rng(45).exponential(size=1000))
        assert p < 0.01

    @check("signed-rank exact tail for unanimous gains")
    def _():
        _, p, method = ana.wilcoxon_signed_rank(np.full(20, 5.0)
                                                + np.arange(20) * 1e-6)
        assert method == "exact"
        assert p == pytest.approx(2.0 / 2 ** 20, rel=1e-9)

    @check("paired comparison power at unit effect")
    def _():
        rng = np.random.default_rng(47)
        hits = sum(ana.paired_compare(b + rng.normal(1.0, 1.0, 101), b,
                                      alpha=0.01).significant
                   for b in (rng.normal(0.0, 1.0, 101) for _ in range(40)))
        assert hits >= 38

    @check("sliding windows tile weeks 3 through 10")
    def _():
        weekly = [w for w in ana.standard_windows(90)
                  if w.name.startswith("week")]
        assert [w.name for w in weekly] == [f"week{k}" for k in range(3, 11)]
        assert weekly[0].start_day == 15 and weekly[-1].end_day == 90

    @check("trials shorter than the collection phase are rejected")
    def _():
        config = cli.RunConfig(days=14)
        try:
            config.validate()
        except ValueError as exc:
            assert "collection window" in str(exc)
        else:
            raise AssertionError("14-day config passed validation")

    return checks


def test_criterion_7_fixed_value_and_distribution_checks(criterion):
    failures = []
    checks = _example_checks()
    for label, fn in checks:
        try:
            fn()
        except Exception as exc:
            failures.append(f"{label}: {exc}")
    detail = f"{len(checks) - len(failures)} of {len(checks)} checks pass"
    if failures:
        detail += "; first failure " + failures[0]
    criterion(7, "hand-computed values and seeded distribution bounds",
              not failures, detail)
    assert not failures, "\n".join(failures)


# --- criterion 8: statistics calibration ------------------------------------------------

def test_criterion_8_statistics_calibration(criterion):
    rng = np.random.default_rng(808)
    trials = 1000
    rejections = sum(ana.lilliefors(rng.standard_normal(50))[1] < 0.05
                     for _ in range(trials))
    rate = rejections / trials
    _, p, method = ana.wilcoxon_signed_rank(np.full(20, 5.0)
                                            + np.arange(20) * 1e-6)
    problems = []
    if rate > 0.07:
        problems.append(f"false-rejection rate {100 * rate:.1f}% exceeds 7%")
    if method != "exact":
        problems.append(f"n=20 used the {method} path instead of exact")
    if not (p < 0.01 and p == pytest.approx(2.0 / 2 ** 20, rel=1e-9)):
        problems.append(f"unanimous-sign tail p={p:.3g}")
    criterion(8, "normality-test calibration and exact signed-rank tail",
              not problems,
              f"false rejection {100 * rate:.1f}%, exact tail p={p:.1e}")
    assert not problems, "; ".join(problems)


# --- criterion 9: byte-level determinism -----------------------------------------------

def test_criterion_9_byte_identical_reruns(tmp_path, criterion):
    body = ("[run]\n"
            "scenario = S1\n"
            "diabetes_type = T1D\n"
            "cohort_size = 2\n"
            "seed = 7\n"
            "days = 30\n"
            "arms = abba,bba\n")
    config_path = tmp_path / "run.ini"
    config_path.write_text(body)
    outs = []
    for name in ("first", "second"):
        out = tmp_path / name
        rc = cli.main(["run", "--config", str(config_path), "--out", str(out)])
        assert rc == 0
        outs.append(out)
    # config.resolved.txt records the output path itself, so it legitimately
    # differs; every simulation artifact must not.
    rels = sorted(p.relative_to(outs[0]) for p in outs[0].rglob("*")
                  if p.is_file() and p.name != "config.resolved.txt")
    mismatched = [str(rel) for rel in rels
                  if (outs[0] / rel).read_bytes() != (outs[1] / rel).read_bytes()]
    ok = not mismatched and len(rels) >= 8
    criterion(9, "identical config and seed reproduce every artifact byte",
              ok, f"{len(rels)} files compared"
                  + (f"; mismatched: {', '.join(mismatched)}" if mismatched else ""))
    assert ok, mismatched
