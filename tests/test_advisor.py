import math

import numpy as np
import pytest

from abbalab import advisor as adv
from abbalab import patient as pat
from abbalab.advisor import AgentKind, FeatureVector, InsulinRecord


def _agent(kind, theta, w=None, z=None, **kw):
    dim = kind.state_dim
    return adv.AgentState(kind=kind,
                          theta=np.asarray(theta, dtype=float),
                          w=np.zeros(dim) if w is None else np.asarray(w, float),
                          z=np.zeros(dim) if z is None else np.asarray(z, float),
                          **kw)


# --- glucose error and features ---------------------------------------------------

def test_glycaemic_bands_are_ordered():
    assert (pat.RESCUE < pat.SEVERE_HYPO < pat.HYPO < adv.LOW_MORNING
            < adv.TARGET < pat.HYPER)


def test_glucose_error_above_band():
    assert adv.glucose_error(200.0) == 20.0


def test_glucose_error_in_band():
    assert adv.glucose_error(100.0) == 0.0


def test_glucose_error_below_band():
    assert adv.glucose_error(60.0) == -10.0


def test_bolus_features_all_in_range():
    f = adv.bolus_features([100.0, 120.0])
    assert (f.f_hyper, f.f_hypo) == (0.0, 0.0)


def test_bolus_features_hyper_window():
    f = adv.bolus_features([200.0, 240.0])
    assert f.f_hyper == pytest.approx(((20.0 + 60.0) / 2) / 220.0, abs=1e-9)
    assert f.f_hypo == 0.0


def test_bolus_features_hypo_window():
    f = adv.bolus_features([60.0])
    assert f.f_hypo == pytest.approx(10.0 / 50.0, abs=1e-9)
    assert f.f_hyper == 0.0


def test_features_mixed_day_has_both_components():
    f = adv.bolus_features([200.0, 60.0])
    assert f.f_hyper > 0.0 and f.f_hypo > 0.0


def test_features_clip_to_unit_interval():
    f = adv.bolus_features([600.0, 20.0])
    assert 0.0 <= f.f_hyper <= 1.0 and 0.0 <= f.f_hypo <= 1.0


# --- overnight delta ---------------------------------------------------------------

def test_overnight_delta_hyper_branch():
    b = adv.overnight_delta(220.0, 150.0)
    assert b[0] == pytest.approx(70.0 / 220.0, abs=1e-9)
    assert b[1] == 0.0


def test_overnight_delta_hypo_branch():
    b = adv.overnight_delta(80.0, 130.0)
    assert b[0] == 0.0
    assert b[1] == pytest.approx(50.0 / 50.0, abs=1e-9)


def test_overnight_delta_no_branch():
    assert (adv.overnight_delta(120.0, 120.0) == 0.0).all()


def test_overnight_delta_missing_reading():
    # Day 1 has no last night's reading.
    assert (adv.overnight_delta(220.0, None) == 0.0).all()


# --- state assembly and cost --------------------------------------------------------

def test_build_state_basal_concatenates_overnight_pair():
    s = adv.build_state(AgentKind.BASAL, FeatureVector(0.1, 0.0), np.array([0.2, 0.0]))
    assert s.tolist() == [0.1, 0.0, 0.2, 0.0]


def test_build_state_icr1_is_the_feature_pair():
    s = adv.build_state(AgentKind.ICR1, FeatureVector(0.1, 0.0))
    assert s.tolist() == [0.1, 0.0]


def test_build_state_ps2_is_the_feature_pair():
    s = adv.build_state(AgentKind.PS2, FeatureVector(0.0, 0.3))
    assert s.tolist() == [0.0, 0.3]


def test_cost_t1d_hyper_only():
    assert adv.cost([0.3, 0.0], adv.beta_for("T1D")) == pytest.approx(0.3, abs=1e-9)


def test_cost_t1d_weights_hypo_ten_times():
    assert adv.cost([0.0, 0.3], adv.beta_for("T1D")) == pytest.approx(3.0, abs=1e-9)


def test_cost_t2d_weights_hyper_ten_times():
    assert adv.cost([0.3, 0.0], adv.beta_for("T2D")) == pytest.approx(3.0, abs=1e-9)


def test_cost_in_range_is_zero():
    assert adv.cost([0.0, 0.0], adv.beta_for("T1D")) == 0.0


# --- critic ---------------------------------------------------------------------

def test_critic_null_transition():
    a = _agent(AgentKind.ICR1, [0.0, 0.0])
    d = adv.critic_update(a, np.zeros(2), np.zeros(2), adv.beta_for("T1D"))
    assert d == 0.0
    assert (a.w == 0.0).all()


def test_critic_hand_step():
    a = _agent(AgentKind.ICR1, [0.0, 0.0], w=[1.0, 0.0], z=[1.0, 0.0], lr_c=0.1)
    d = adv.critic_update(a, np.array([1.0, 0.0]), np.zeros(2), adv.beta_for("T1D"))
    assert d == pytest.approx(-1.0, abs=1e-12)
    assert a.w[0] == pytest.approx(0.9, abs=1e-12)
    assert a.w[1] == 0.0


def test_critic_matches_discounted_cost_oracle_on_two_state_chain():
    # Deterministic alternation between two feature states carrying the same
    # cost. The brute-force discounted sum is c/(1-gamma) for both states; a
    # value-iteration oracle confirms that before the TD run is checked.
    beta = adv.beta_for("T1D")
    s_a = np.array([1.0, 0.10])
    s_b = np.array([0.0, 0.20])
    c = adv.cost(s_a, beta)
    assert adv.cost(s_b, beta) == pytest.approx(c, abs=1e-12)
    v_a_oracle = v_b_oracle = 0.0
    for _ in range(2000):
        v_a_oracle = c + adv.GAMMA * v_b_oracle
        v_b_oracle = c + adv.GAMMA * v_a_oracle
    assert v_a_oracle == pytest.approx(c / (1.0 - adv.GAMMA), abs=1e-9)
    a = _agent(AgentKind.ICR1, [0.0, 0.0], lr_c=0.5)
    state, nxt = s_a, s_b
    v_a = v_b = None
    for _ in range(5000):
        adv.critic_update(a, state, nxt, beta)
        state, nxt = nxt, state
        v_a = float(a.w @ s_a)
        v_b = float(a.w @ s_b)
        if abs(v_a - v_a_oracle) < 1e-3 and abs(v_b - v_b_oracle) < 1e-3:
            break
    assert abs(v_a - v_a_oracle) < 1e-3
    assert abs(v_b - v_b_oracle) < 1e-3


@pytest.mark.parametrize("s_next", [[math.nan, 0.0], [math.inf, 0.0], [0.0, -math.inf]],
                         ids=["nan", "inf", "minus_inf"])
def test_learn_freezes_the_actor_on_a_non_finite_td_error(s_next):
    a = _agent(AgentKind.ICR1, [0.5, -0.5], w=[1.0, 0.5], z=[1.0, 0.5],
               adam_m=[0.1, 0.2], adam_v=[0.3, 0.4], step_count=7)
    before = {f: np.copy(getattr(a, f)) for f in ("theta", "adam_m", "adam_v")}
    adv.learn(a, np.array([0.4, 0.2]), np.array(s_next), adv.beta_for("T1D"))
    assert (a.frozen_faults, a.step_count) == (1, 7)
    for field, value in before.items():
        assert getattr(a, field).tobytes() == value.tobytes(), field
    adv.learn(a, np.array([0.4, 0.2]), np.array([0.3, 0.0]), adv.beta_for("T1D"))
    assert (a.frozen_faults, a.step_count) == (1, 8)          # a finite step moves it
    assert a.theta.tobytes() != before["theta"].tobytes()


# --- policy ------------------------------------------------------------------------

def test_policy_icr_all_in_range_previous_day_pins_p_to_zero():
    a = _agent(AgentKind.ICR1, [5.0, -5.0])
    p = adv.policy(a, np.array([0.3, 0.1]), FeatureVector(0.0, 0.0))
    assert p == 0.0


def test_policy_icr_blends_linear_and_supervisory():
    a = _agent(AgentKind.ICR1, [0.4, 0.0])
    p = adv.policy(a, np.array([0.5, 0.0]), FeatureVector(0.4, 0.0))
    assert p == pytest.approx(0.08, abs=1e-9)


def test_policy_ps_is_pure_linear():
    a = _agent(AgentKind.PS1, [-0.6, 0.0])
    p = adv.policy(a, np.array([0.5, 0.0]), FeatureVector(0.9, 0.9))
    assert p == pytest.approx(-0.3, abs=1e-12)


def test_policy_basal_is_pure_linear():
    a = _agent(AgentKind.BASAL, [0.5, -0.5, 0.5, -0.5])
    s = np.array([0.2, 0.0, 0.1, 0.0])
    assert adv.policy(a, s, FeatureVector(0.0, 0.0)) == pytest.approx(0.15, abs=1e-12)


def test_policy_supervisory_sign_hypo_side():
    a = _agent(AgentKind.ICR2, [0.0, 0.0])
    p = adv.policy(a, np.zeros(2), FeatureVector(0.0, 0.3))
    assert p == pytest.approx(0.5 * adv.ALPHA_SP * 0.3, abs=1e-12)
    assert p > 0.0


# --- actor / Adam --------------------------------------------------------------------

def test_actor_zero_td_error_leaves_theta():
    a = _agent(AgentKind.ICR1, [0.5, 0.5])
    a.adam_m = np.array([1.0, 1.0])
    adv.actor_update(a, 0.0, np.array([0.1, 0.1]))
    assert (a.theta == 0.5).all()
    assert a.adam_m[0] == pytest.approx(adv.ADAM_BETA1, abs=1e-12)


def test_actor_first_adam_step_is_learning_rate_sized():
    a = _agent(AgentKind.ICR1, [0.0, 0.0], lr_a=0.1)
    adv.actor_update(a, 0.5, np.array([1.0, 1.0]))
    assert a.theta[0] == pytest.approx(-0.1, abs=1e-6)
    assert a.theta[1] == pytest.approx(-0.1, abs=1e-6)


def test_actor_first_step_magnitude_identity_for_any_gradient():
    rng = np.random.default_rng(17)
    for _ in range(50):
        a = _agent(AgentKind.ICR1, [0.0, 0.0], lr_a=0.03)
        d = float(rng.uniform(0.1, 5.0)) * (1 if rng.random() < 0.5 else -1)
        s = rng.uniform(0.06, 1.0, 2) * np.where(rng.random(2) < 0.5, -1, 1)
        adv.actor_update(a, d, s)
        assert np.allclose(np.abs(a.theta), 0.03, atol=1e-6)


def test_actor_gradient_floors_small_state_components():
    a = _agent(AgentKind.ICR1, [0.0, 0.0], lr_a=0.1)
    adv.actor_update(a, 1.0, np.array([0.0, 1.0]))
    # g = (1/0.05, 1/1) = (20, 1); first Adam moment is (1-beta1) * g.
    assert a.adam_m[0] == pytest.approx(0.1 * 20.0, abs=1e-9)
    assert a.adam_m[1] == pytest.approx(0.1 * 1.0, abs=1e-9)


# --- learners against their numpy formulas ----------------------------------------
#
# The learners once did all their arithmetic in numpy. These are those bodies,
# kept as the oracle: the float learners must match them bit for bit.

def _numpy_critic_update(agent, s_t, s_next, beta):
    s_t = np.asarray(s_t, dtype=float)
    s_next = np.asarray(s_next, dtype=float)
    c_next = adv.cost(s_next, beta)
    d = c_next + adv.GAMMA * float(agent.w @ s_next) - float(agent.w @ s_t)
    if not math.isfinite(d):
        agent.frozen_faults += 1
        return d
    agent.w = agent.w + agent.lr_c * d * agent.z
    agent.z = adv.LAMBDA * agent.z + s_next
    return d


def _numpy_policy(agent, s_t, f_prev_day):
    lp = float(np.asarray(agent.theta) @ np.asarray(s_t, dtype=float))
    if not agent.kind.is_icr:
        return lp
    f0, f1 = f_prev_day
    if f0 == 0.0 and f1 == 0.0:
        return 0.0
    if (f0 > 0.0 and f1 == 0.0) or f0 > f1:
        sp = -adv.ALPHA_SP * f0
        alpha_lp = 0.5
    elif (f1 > 0.0 and f0 == 0.0) or f1 > f0:
        sp = adv.ALPHA_SP * f1
        alpha_lp = 0.5
    else:
        sp = 0.0
        alpha_lp = 1.0
    return alpha_lp * lp + (1.0 - alpha_lp) * sp


def _numpy_actor_update(agent, td_error, s_t):
    eps = adv.STATE_EPS
    s = np.asarray(s_t, dtype=float)
    floored = np.where(np.abs(s) >= eps, s, np.where(s < 0, -eps, eps))
    g = td_error / floored
    if not np.all(np.isfinite(g)):
        agent.frozen_faults += 1
        return
    if td_error == 0.0:
        agent.adam_m = adv.ADAM_BETA1 * agent.adam_m
        agent.adam_v = adv.ADAM_BETA2 * agent.adam_v
        agent.step_count += 1
        return
    agent.step_count += 1
    t = agent.step_count
    agent.adam_m = adv.ADAM_BETA1 * agent.adam_m + (1.0 - adv.ADAM_BETA1) * g
    agent.adam_v = adv.ADAM_BETA2 * agent.adam_v + (1.0 - adv.ADAM_BETA2) * g * g
    m_hat = agent.adam_m / (1.0 - adv.ADAM_BETA1 ** t)
    v_hat = agent.adam_v / (1.0 - adv.ADAM_BETA2 ** t)
    agent.theta = agent.theta - agent.lr_a * m_hat / (np.sqrt(v_hat) + adv.ADAM_EPS)


def _bits(x):
    return np.float64(x).tobytes()


def _random_state(rng, dim):
    """Components from a uniform draw, the STATE_EPS floor's edges, signed
    zeros and, rarely, a non-finite value."""
    pool = (adv.STATE_EPS, -adv.STATE_EPS, 0.0, -0.0, 0.5 * adv.STATE_EPS,
            -0.5 * adv.STATE_EPS, math.nextafter(adv.STATE_EPS, 0.0))
    s = rng.uniform(-1.0, 1.0, dim)
    for i in range(dim):
        u = rng.random()
        if u < 0.3:
            s[i] = pool[rng.integers(len(pool))]
        elif u < 0.31:
            s[i] = (math.nan, math.inf, -math.inf)[rng.integers(3)]
    return s


def _random_agent(rng, kind):
    dim = kind.state_dim
    return dict(theta=rng.normal(0.0, 0.5, dim), w=rng.normal(0.0, 0.5, dim),
                z=rng.uniform(0.0, 1.0, dim), adam_m=rng.normal(0.0, 1.0, dim),
                adam_v=rng.uniform(0.0, 4.0, dim), step_count=int(rng.integers(0, 100)),
                lr_a=float(rng.choice([0.001, 0.01, 0.1])),
                lr_c=float(rng.choice([0.01, 0.05, 0.1])))


@pytest.mark.parametrize("kind", [AgentKind.ICR1, AgentKind.PS3, AgentKind.ICR3,
                                  AgentKind.BASAL])
def test_learners_match_their_numpy_formulas_bit_for_bit(kind):
    rng = np.random.default_rng(2024 + kind.state_dim)
    fields = ("theta", "w", "z", "adam_m", "adam_v")
    steps = 0
    for _ in range(150):
        start = _random_agent(rng, kind)
        ours, oracle = adv.AgentState(kind=kind, **start), adv.AgentState(kind=kind, **start)
        for _ in range(20):
            s_t, s_n = _random_state(rng, kind.state_dim), _random_state(rng, kind.state_dim)
            f = FeatureVector(*(float(v) for v in rng.choice([0.0, 0.2, 0.5], 2)))
            beta = adv.beta_for(("T1D", "T2D")[rng.integers(2)])
            # A non-finite state makes numpy's `@` warn, in both versions.
            with np.errstate(all="ignore"):
                want = (_numpy_policy(oracle, s_t, f), _numpy_critic_update(oracle, s_t, s_n, beta))
                got = (adv.policy(ours, s_t, f), adv.critic_update(ours, s_t, s_n, beta))
            assert [_bits(v) for v in got] == [_bits(v) for v in want]
            # The critic's TD error, or a zero, non-finite or overflowing one.
            d = (got[1], got[1], 0.0, math.nan, math.inf, -math.inf, 1e308)[rng.integers(7)]
            if math.isfinite(d) or rng.random() < 0.5:
                with np.errstate(all="ignore"):
                    _numpy_actor_update(oracle, d, s_t)
                adv.actor_update(ours, d, s_t)
            assert (ours.step_count, ours.frozen_faults) == \
                (oracle.step_count, oracle.frozen_faults)
            for name in fields:
                assert getattr(ours, name).tobytes() == getattr(oracle, name).tobytes(), name
            steps += 1
    assert steps == 3000


# --- action application ---------------------------------------------------------------

def test_apply_action_multiplicative_update():
    assert adv.apply_action(AgentKind.ICR1, 0.2, 10.0, 10.0, 0.5) == pytest.approx(11.0)


def test_apply_action_clamps_to_double_initial():
    assert adv.apply_action(AgentKind.ICR1, 10.0, 15.0, 10.0, 0.5) == 20.0


def test_apply_action_clamps_to_half_initial():
    assert adv.apply_action(AgentKind.PS1, -10.0, 0.8, 1.0, 0.5) == 0.5


def test_apply_action_basal_guard_reverts():
    # Proposal lands at 4 U/day against a 40 U previous TDD: below the 25%
    # floor, so the previous value stands, and act leaves it in the therapy.
    new = adv.apply_action(AgentKind.BASAL, -1.2, 10.0, 20.0, 0.5, prev_tdd=40.0)
    assert new == 10.0
    therapy = adv.TherapyParams(icr=[10.0] * 3, ps=[1.0] * 3, cf=50.0, basal=20.0)
    therapy.basal = 10.0
    agent = _agent(AgentKind.BASAL, [-1.2, 0.0, 0.0, 0.0])    # policy: -1.2
    adv.act(agent, np.array([1.0, 0.0, 0.0, 0.0]), FeatureVector(0.0, 0.0), therapy,
            prev_tdd=40.0)
    assert therapy.basal == 10.0


def test_apply_action_basal_guard_allows_above_floor():
    new = adv.apply_action(AgentKind.BASAL, -0.2, 12.0, 20.0, 0.5, prev_tdd=40.0)
    assert new == pytest.approx(10.8)


def test_therapy_clamp_anchors_are_its_starting_values():
    therapy = adv.TherapyParams(icr=[10.0] * 3, ps=[1.0] * 3, cf=50.0, basal=20.0)
    therapy.set_current(AgentKind.BASAL, 10.0)
    therapy.set_current(AgentKind.ICR2, 12.0)
    assert [therapy.a_init(k) for k in (AgentKind.BASAL, AgentKind.ICR2, AgentKind.PS3)] \
        == [20.0, 10.0, 1.0]
    with pytest.raises(TypeError):
        adv.TherapyParams(icr=[10.0] * 3, ps=[1.0] * 3, cf=50.0, basal=10.0, basal_init=20.0)


# --- IOB -------------------------------------------------------------------------

def test_iob_linear_midpoint():
    recs = [InsulinRecord(10.0, "bolus", 0.0)]
    assert adv.iob(recs, 120.0) == pytest.approx(5.0, abs=1e-12)


def test_iob_expired():
    recs = [InsulinRecord(10.0, "bolus", 0.0)]
    assert adv.iob(recs, 300.0) == 0.0


def test_iob_sums_overlapping_boluses():
    recs = [InsulinRecord(4.0, "bolus", 0.0), InsulinRecord(2.0, "bolus", 120.0)]
    assert adv.iob(recs, 180.0) == pytest.approx(2.5, abs=1e-12)


def test_iob_ignores_basal_records():
    recs = [InsulinRecord(30.0, "basal", 0.0), InsulinRecord(2.0, "bolus", 0.0)]
    assert adv.iob(recs, 120.0) == pytest.approx(1.0, abs=1e-12)


# --- dose calculators -------------------------------------------------------------

def _therapy(icr=10.0, ps=1.0, cf=50.0, basal=24.0):
    return adv.TherapyParams(icr=[icr] * 3, ps=[ps] * 3, cf=cf, basal=basal)


def test_bolus_recommendation_direct():
    dose = adv.bolus_recommendation(60.0, 180.0, _therapy(), 0, 1.0)
    assert dose == pytest.approx(6.4, abs=1e-9)


def test_bolus_recommendation_scales_with_ps():
    dose = adv.bolus_recommendation(60.0, 180.0, _therapy(ps=1.2), 0, 1.0)
    assert dose == pytest.approx(7.88, abs=1e-9)


def test_bolus_recommendation_floors_at_zero():
    dose = adv.bolus_recommendation(0.0, 110.0, _therapy(), 0, 2.0)
    assert dose == 0.0


def test_correction_bolus_direct():
    t = _therapy(cf=40.0)
    assert adv.correction_bolus(230.0, t, 1.0, 0.0) == pytest.approx(3.0, abs=1e-9)


def test_correction_bolus_below_trigger():
    assert adv.correction_bolus(170.0, _therapy(), 1.0, 0.0) is None


def test_correction_bolus_floored_by_iob():
    assert adv.correction_bolus(230.0, _therapy(cf=40.0), 1.0, 5.0) == 0.0


# --- invariants -----------------------------------------------------------------

def test_in_range_window_is_a_fixed_point():
    window = [100.0, 140.0, 175.0, 72.0]
    f = adv.bolus_features(window)
    assert (f.f_hyper, f.f_hypo) == (0.0, 0.0)
    assert adv.cost(f.as_array(), adv.beta_for("T1D")) == 0.0
    agent = _agent(AgentKind.ICR1, [0.7, -0.7])
    p = adv.policy(agent, f.as_array(), f)
    assert p == 0.0
    assert adv.apply_action(AgentKind.ICR1, p, 12.0, 12.0, 0.5) == 12.0


def test_supervisory_policy_negative_under_pure_hyperglycaemia():
    agent = _agent(AgentKind.ICR1, [0.0, 0.0])
    f_prev = FeatureVector(0.5, 0.0)
    p = adv.policy(agent, np.zeros(2), f_prev)
    assert p < 0.0          # ICR moves down


def test_dose_rises_as_icr_falls():
    doses = [adv.bolus_recommendation(60.0, 150.0, _therapy(icr=icr), 0, 0.0)
             for icr in (12.0, 10.0, 8.0, 6.0)]
    assert all(a < b for a, b in zip(doses, doses[1:]))


def test_clamp_safety_under_fuzzed_updates():
    # Each step goes through act too, on a twin therapy: an agent whose theta
    # is (1, 0, ...) proposes the state's first component, and equal features
    # give the ICR agents the linear policy alone.
    rng = np.random.default_rng(99)
    t = _therapy(icr=10.0, ps=1.0, cf=50.0, basal=24.0)
    twin = _therapy(icr=10.0, ps=1.0, cf=50.0, basal=24.0)
    kinds = list(AgentKind)
    agents = {k: _agent(k, np.eye(k.state_dim)[0]) for k in kinds}
    n = 100_000
    ps = rng.uniform(-30.0, 30.0, n)
    picks = rng.integers(0, len(kinds), n)
    tdds = rng.uniform(10.0, 80.0, n)
    for i in range(n):
        kind = kinds[picks[i]]
        cur = t.current(kind)
        a0 = t.a_init(kind)
        prev_tdd = float(tdds[i]) if kind.is_basal else None
        new = adv.apply_action(kind, float(ps[i]), cur, a0, 0.5, prev_tdd=prev_tdd)
        if not (0.5 * a0 - 1e-12 <= new <= 2.0 * a0 + 1e-12):
            raise AssertionError(f"clamp violated at step {i}: {new} vs init {a0}")
        if kind.is_basal and new != cur and new < 0.25 * tdds[i] - 1e-12:
            raise AssertionError(f"basal guard violated at step {i}")
        t.set_current(kind, new)
        adv.act(agents[kind], np.eye(kind.state_dim)[0] * ps[i], FeatureVector(0.5, 0.5),
                twin, prev_tdd=prev_tdd)
        if twin.current(kind) != new:
            raise AssertionError(f"act set {twin.current(kind)}, not {new}, at step {i}")


def test_feature_vectors_stay_in_unit_box_under_fuzz():
    rng = np.random.default_rng(7)
    for _ in range(2000):
        window = rng.uniform(20.0, 600.0, rng.integers(1, 8))
        f = adv.bolus_features(window)
        assert 0.0 <= f.f_hyper <= 1.0
        assert 0.0 <= f.f_hypo <= 1.0


def test_doses_never_negative_under_fuzz():
    rng = np.random.default_rng(8)
    t = _therapy()
    for _ in range(5000):
        dose = adv.bolus_recommendation(float(rng.uniform(0, 200)),
                                        float(rng.uniform(20, 600)), t,
                                        int(rng.integers(0, 3)),
                                        float(rng.uniform(0, 15)))
        assert dose >= 0.0


# --- bundle serialization -------------------------------------------------------

def test_bundle_text_round_trip():
    rng = np.random.default_rng(4)
    theta = {k: rng.normal(size=k.state_dim) for k in AgentKind}
    hyper = {k: {"lr_a": 0.1, "lr_c": 0.05, "m": 0.5} for k in AgentKind}
    bundle = adv.make_bundle(theta, hyper, rng)
    bundle[AgentKind.ICR2].step_count = 17
    text = adv.bundle_to_text(bundle)
    back = adv.bundle_from_text(text)
    for kind in AgentKind:
        a, b = bundle[kind], back[kind]
        assert (a.theta == b.theta).all()
        assert (a.w == b.w).all()
        assert (a.z == b.z).all()
        assert a.step_count == b.step_count
    assert adv.bundle_to_text(back) == text


def test_bundle_rejects_text_that_is_not_a_bundle():
    with pytest.raises(ValueError, match="agent field Basal.theta missing"):
        adv.bundle_from_text("icr1.theta = 0.5 0.5\n")
