import math

import numpy as np
import pytest

from abbalab import initialisation as init
from abbalab.advisor import AgentKind, InsulinRecord

N_SAMPLES = init.COLLECTION_DAYS * (init.MINUTES_PER_DAY // init.CGM_INTERVAL_MIN)


def _log(cgm, records=(), basal_rates=None):
    cgm = np.asarray(cgm, dtype=float)
    times = np.arange(len(cgm)) * init.CGM_INTERVAL_MIN
    if basal_rates is None:
        basal_rates = np.zeros(len(cgm))
    return init.CollectionLog(cgm=cgm, cgm_times=times,
                              insulin_records=tuple(records),
                              basal_rates=basal_rates)


def _alternating(lo, hi, n=N_SAMPLES):
    cgm = np.empty(n)
    cgm[0::2] = lo
    cgm[1::2] = hi
    return cgm


# --- active insulin ---------------------------------------------------------------

def test_active_insulin_constant_basal_is_flat():
    basal_u_per_day = 24.0
    rates = np.full(N_SAMPLES, basal_u_per_day / init.MINUTES_PER_DAY)
    log = _log(np.full(N_SAMPLES, 120.0), basal_rates=rates)
    ai = init.active_insulin_series(log)
    assert np.allclose(ai, basal_u_per_day)


def test_active_insulin_bolus_midpoint():
    log = _log(np.full(N_SAMPLES, 120.0),
               records=[InsulinRecord(10.0, "bolus", 0.0)])
    ai = init.active_insulin_series(log)
    idx = 120 // init.CGM_INTERVAL_MIN
    assert ai[idx] == pytest.approx(5.0, abs=1e-12)
    assert ai[240 // init.CGM_INTERVAL_MIN] == 0.0


def test_active_insulin_never_negative():
    rng = np.random.default_rng(2)
    records = [InsulinRecord(float(rng.uniform(0.5, 12)), "bolus",
                             float(rng.uniform(0, 14 * 1440)))
               for _ in range(60)]
    rates = rng.uniform(0.0, 0.03, N_SAMPLES)
    log = _log(np.full(N_SAMPLES, 120.0), records=records, basal_rates=rates)
    assert (init.active_insulin_series(log) >= 0.0).all()


def _active_insulin_loop(log):
    """The series as one pass per bolus over every sample computes it: the
    reference for active_insulin_series."""
    ai = log.basal_rates * float(init.MINUTES_PER_DAY)
    for rec in log.insulin_records:
        if rec.kind == "basal":
            continue
        elapsed = log.cgm_times - rec.timestamp
        active = (elapsed >= 0.0) & (elapsed < init.DIA_MIN)
        ai = ai + np.where(active, rec.dose_u * (1.0 - elapsed / init.DIA_MIN), 0.0)
    return ai


def test_active_insulin_matches_the_per_bolus_loop_bit_for_bit():
    rng = np.random.default_rng(8)
    span = N_SAMPLES * init.CGM_INTERVAL_MIN
    for _ in range(100):
        # Doses on, between, just off and outside the sample grid, in any
        # order and overlapping, plus basal injections to skip.
        stamps = [float(rng.uniform(-300.0, span + 300.0)),
                  float(rng.integers(0, N_SAMPLES)) * init.CGM_INTERVAL_MIN,
                  math.nextafter(float(rng.integers(0, N_SAMPLES)) * init.CGM_INTERVAL_MIN,
                                 -math.inf),
                  float(rng.integers(0, span)) + 0.5]
        records = [InsulinRecord(float(rng.uniform(0.0, 12.0)),
                                 ("bolus", "correction", "basal")[rng.integers(3)],
                                 stamps[rng.integers(len(stamps))])
                   for _ in range(rng.integers(0, 80))]
        log = _log(np.full(N_SAMPLES, 120.0), records=records,
                   basal_rates=rng.uniform(0.0, 0.03, N_SAMPLES))
        assert init.active_insulin_series(log).tobytes() == _active_insulin_loop(log).tobytes()


def test_collection_log_times_must_ascend():
    times = np.arange(N_SAMPLES, dtype=float) * init.CGM_INTERVAL_MIN
    times[[10, 11]] = times[[11, 10]]
    with pytest.raises(ValueError, match="CGM times must ascend"):
        init.CollectionLog(cgm=np.full(N_SAMPLES, 120.0), cgm_times=times,
                           insulin_records=(), basal_rates=np.zeros(N_SAMPLES))


# --- transfer entropy ----------------------------------------------------------------

def test_te_independent_white_noise_is_near_zero():
    rng = np.random.default_rng(12)
    x = rng.standard_normal(10_000)
    y = rng.standard_normal(10_000)
    assert init.transfer_entropy(x, y) < 0.02


def test_te_lag_one_copy_is_one_bit():
    rng = np.random.default_rng(13)
    x = rng.integers(0, 2, 10_000).astype(float)
    y = np.concatenate([[0.0], x[:-1]])          # y_{n+1} = x_n
    te = init.transfer_entropy(x, y, bins=2)
    assert te == pytest.approx(1.0, abs=0.05)


def test_te_constant_target_is_zero():
    x = np.random.default_rng(14).standard_normal(5000)
    assert init.transfer_entropy(x, np.full(5000, 3.0)) == 0.0


def test_te_never_negative_and_shuffle_kills_coupling():
    rng = np.random.default_rng(15)
    x = rng.standard_normal(10_000)
    y = 0.8 * np.concatenate([[0.0], x[:-1]]) + 0.2 * rng.standard_normal(10_000)
    coupled = init.transfer_entropy(x, y)
    assert coupled > 0.1
    x_shuffled = rng.permutation(x)
    assert init.transfer_entropy(x_shuffled, y) < 0.02


def test_quantile_bins_equal_the_numpy_quantile_bins():
    rng = np.random.default_rng(11)
    for n in range(1, 200, 3):
        for x in (rng.normal(120.0, 40.0, n), np.round(rng.uniform(0.0, 4.0, n))):
            for bins in (2, 3, 4, 5, 7):
                qs = np.linspace(0.0, 1.0, bins + 1)[1:-1]
                edges = np.quantile(x, qs)
                s = np.sort(x).tolist()
                assert [init.linear_quantile(s, q) for q in qs.tolist()] == \
                    edges.tolist(), (n, bins)
                assert np.array_equal(init._quantile_bins(x, bins),
                                      np.searchsorted(edges, x, side="right"))


def test_te_rejects_mismatched_lengths():
    with pytest.raises(ValueError):
        init.transfer_entropy(np.zeros(100), np.zeros(99))


# --- policy initialization --------------------------------------------------------------

def test_theta_magnitude_at_zero_te():
    for kind in AgentKind:
        theta = init.init_policy_params(0.0, kind)
        assert np.allclose(np.abs(theta), 0.5)
        assert theta.shape == (kind.state_dim,)


def test_theta_magnitude_at_one_bit():
    theta = init.init_policy_params(1.0, AgentKind.ICR1)
    assert np.allclose(np.abs(theta), 0.25)


def test_theta_magnitude_decreases_with_te():
    mags = [abs(init.init_policy_params(te, AgentKind.PS1)[0])
            for te in (0.0, 0.3, 0.8, 1.5, 3.0)]
    assert all(a > b for a, b in zip(mags, mags[1:]))


def test_theta_hyper_coordinate_signs():
    assert init.init_policy_params(0.0, AgentKind.ICR1)[0] < 0
    assert init.init_policy_params(0.0, AgentKind.PS1)[0] > 0
    assert init.init_policy_params(0.0, AgentKind.BASAL)[0] > 0


def test_theta_rejects_negative_te():
    with pytest.raises(ValueError):
        init.init_policy_params(-0.1, AgentKind.ICR1)


# --- risk classification ------------------------------------------------------------------

def test_classify_high_sd_is_increased_variability():
    log = _log(_alternating(90.0, 210.0))         # SD exactly 60
    rc = init.classify(log, "T1D")
    assert rc.variability == "increased"


def test_classify_moderate_sd_and_quiet_nights_is_all_normal():
    cgm = _alternating(110.0, 190.0)              # SD exactly 40
    clock = (np.arange(N_SAMPLES) * init.CGM_INTERVAL_MIN) % init.MINUTES_PER_DAY
    overnight = np.flatnonzero(clock < init.OVERNIGHT_WINDOW[1])
    low = overnight[:int(0.05 * len(overnight))]  # 5% of overnight samples low
    cgm[low] = 65.0
    rc = init.classify(_log(cgm), "T1D")
    assert rc == init.RiskClass(variability="normal", nocturnal_risk="normal")


def test_classify_t2d_frequent_nocturnal_lows_is_high_risk():
    cgm = np.full(N_SAMPLES, 140.0)
    clock = (np.arange(N_SAMPLES) * init.CGM_INTERVAL_MIN) % init.MINUTES_PER_DAY
    overnight = np.flatnonzero(clock < init.OVERNIGHT_WINDOW[1])
    cgm[overnight[::2]] = 60.0                    # half of overnight below 70
    rc = init.classify(_log(cgm), "T2D")
    assert rc.nocturnal_risk == "high"


def test_cgm_sd_scales_linearly():
    cgm = _alternating(110.0, 190.0)
    sd1 = init.cgm_sd(_log(cgm))
    sd3 = init.cgm_sd(_log(3.0 * cgm))
    assert sd3 == pytest.approx(3.0 * sd1, rel=1e-12)


# --- hyperparameter selection -----------------------------------------------------

def test_hyperparameters_all_normal_t1d():
    hp = init.select_hyperparameters(init.RiskClass("normal", "normal"), "T1D")
    for kind in AgentKind:
        assert hp[kind]["lr_a"] == 0.1
        assert hp[kind]["lr_c"] == 0.1
        assert hp[kind]["m"] == 0.5


def test_hyperparameters_increased_variability_t2d():
    hp = init.select_hyperparameters(init.RiskClass("increased", "normal"), "T2D")
    for kind in AgentKind:
        assert hp[kind]["lr_a"] == 0.01
        assert hp[kind]["m"] == 1.0
        assert hp[kind]["lr_c"] == (0.05 if kind.is_icr else 0.01)


def test_hyperparameters_nocturnal_and_variability_slow_icr3_most():
    hp = init.select_hyperparameters(init.RiskClass("increased", "high"), "T1D")
    assert hp[AgentKind.ICR3]["lr_a"] == 0.001
    assert hp[AgentKind.ICR1]["lr_a"] == 0.01


def test_hyperparameters_cover_every_classification_cell():
    expected_icr3_lr_a = {
        ("normal", "normal"): 0.1,
        ("normal", "high"): 0.01,
        ("increased", "normal"): 0.01,
        ("increased", "high"): 0.001,
    }
    for dtype in ("T1D", "T2D"):
        for (var, noct), icr3_lr in expected_icr3_lr_a.items():
            hp = init.select_hyperparameters(init.RiskClass(var, noct), dtype)
            assert hp[AgentKind.ICR3]["lr_a"] == icr3_lr
            assert hp[AgentKind.BASAL]["m"] == init.SMOOTHING_M[dtype]


# --- T2D starting therapy -----------------------------------------------------------

def test_t2d_rules_at_80_kg():
    assert init.t2d_initial_therapy(80.0) == (40.0, 20.0, 12.5, 45.0)


def test_t2d_rules_at_100_kg():
    assert init.t2d_initial_therapy(100.0) == (50.0, 25.0, 10.0, 36.0)


def test_t2d_rules_heavier_means_lower_icr_and_cf():
    _, _, icr_a, cf_a = init.t2d_initial_therapy(70.0)
    _, _, icr_b, cf_b = init.t2d_initial_therapy(110.0)
    assert icr_b < icr_a and cf_b < cf_a


def test_t2d_rules_reject_nonpositive_weight():
    with pytest.raises(ValueError):
        init.t2d_initial_therapy(0.0)


# --- end-to-end glue -------------------------------------------------------------

def test_initialise_agents_builds_consistent_bundle():
    rng = np.random.default_rng(21)
    cgm = 150.0 + 30.0 * np.sin(np.arange(N_SAMPLES) / 17.0)
    records = [InsulinRecord(6.0, "bolus", float(m))
               for m in range(400, 14 * 1440, 1440)]
    rates = np.full(N_SAMPLES, 24.0 / init.MINUTES_PER_DAY)
    log = _log(cgm, records=records, basal_rates=rates)
    bundle, te, rc = init.initialise_agents(log, "T1D", rng)
    assert te >= 0.0
    assert rc.variability in ("normal", "increased")
    expected_mag = init.THETA_BASE / (1.0 + te)
    for kind in AgentKind:
        agent = bundle[kind]
        assert agent.theta.shape == (kind.state_dim,)
        assert np.allclose(np.abs(agent.theta), expected_mag)
        assert agent.m_smooth == 0.5
