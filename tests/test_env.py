"""Transition kernels and simulators, pinned against hand-written tables.

The enumeration tests are the ground truth for everything else: the chain
oracles in oracles.py and the analytic module are only trustworthy because
the kernels here match the transition tables written out by hand.
"""

import pytest
from hypothesis import given, strategies as st

from agelab import (
    AoiEnv,
    AoiiEnv,
    QuerySpec,
    SourceSpec,
    SystemParams,
    run_policy,
)
from agelab.env import (
    INITIAL_AOI,
    INITIAL_AOII,
    SEND,
    WAIT,
    AoIIState,
    AoIState,
    aoi_transition,
    aoii_transition,
    uniform_stream,
)
from agelab.strategy import AoiiThresholdPolicy, RandomPolicy, ThresholdPolicy

import numpy as np


def iterate_outcomes(env, policy, horizon):
    """Yield the raw step outcomes of a rollout."""
    for _ in range(horizon):
        yield env.step(policy.decide(env.state))


def aoi_next_distribution(state, action, params):
    """Aggregate the kernel over all (arrival, success) events."""
    lam, p = params.lam, params.p
    dist = {}
    for arrival, pa in ((True, lam), (False, 1.0 - lam)):
        for success, ps in ((True, p), (False, 1.0 - p)):
            nxt = aoi_transition(state, action, arrival, success)
            dist[nxt] = dist.get(nxt, 0.0) + pa * ps
    return dist


def merge(*pairs):
    dist = {}
    for state, prob in pairs:
        dist[state] = dist.get(state, 0.0) + prob
    return dist


@pytest.mark.parametrize("tx,rx", [(0, 1), (2, 5), (3, 3), (0, 7)])
def test_aoi_wait_kernel_matches_table(tx, rx):
    params = SystemParams(p=0.9, lam=0.5)
    state = AoIState(tx, rx)
    expected = merge(
        (AoIState(0, rx + 1), params.lam),
        (AoIState(tx + 1, rx + 1), 1.0 - params.lam),
    )
    assert aoi_next_distribution(state, WAIT, params) == pytest.approx(expected)


@pytest.mark.parametrize("tx,rx", [(0, 1), (2, 5), (3, 3), (0, 7)])
def test_aoi_send_kernel_matches_table(tx, rx):
    params = SystemParams(p=0.9, lam=0.5)
    lam, p = params.lam, params.p
    state = AoIState(tx, rx)
    expected = merge(
        (AoIState(0, tx + 1), lam * p),
        (AoIState(tx + 1, tx + 1), (1.0 - lam) * p),
        (AoIState(0, rx + 1), lam * (1.0 - p)),
        (AoIState(tx + 1, rx + 1), (1.0 - lam) * (1.0 - p)),
    )
    assert aoi_next_distribution(state, SEND, params) == pytest.approx(expected)


@given(
    tx=st.integers(min_value=0, max_value=40),
    gap=st.integers(min_value=0, max_value=40),
    lam=st.floats(min_value=0.05, max_value=1.0),
    p=st.floats(min_value=0.05, max_value=1.0),
    action=st.sampled_from([WAIT, SEND]),
)
def test_aoi_kernel_normalizes_and_preserves_order(tx, gap, lam, p, action):
    params = SystemParams(p=p, lam=lam)
    dist = aoi_next_distribution(AoIState(tx, tx + gap), action, params)
    assert sum(dist.values()) == pytest.approx(1.0)
    for nxt in dist:
        assert 0 <= nxt.aoi_tx <= nxt.aoi_rx


def test_aoii_kernel_matches_table():
    params = SystemParams(p=0.9)
    source = SourceSpec(num_states=10, p_r=0.5)
    p, p_r, p_c = params.p, source.p_r, source.p_c

    def dist(state, action, stay_prob):
        out = {}
        for source_event, ps in ((True, stay_prob), (False, 1.0 - stay_prob)):
            for success, pc in ((True, p), (False, 1.0 - p)):
                nxt = aoii_transition(state, action, source_event, success)
                out[nxt] = out.get(nxt, 0.0) + ps * pc
        return out

    synced = AoIIState(True, 0)
    assert dist(synced, WAIT, p_r) == pytest.approx(
        {AoIIState(True, 0): p_r, AoIIState(False, 1): 1.0 - p_r}
    )
    assert dist(synced, SEND, p_r) == pytest.approx(
        {AoIIState(True, 0): 1.0 - (1.0 - p_r) * (1.0 - p), AoIIState(False, 1): (1.0 - p_r) * (1.0 - p)}
    )
    behind = AoIIState(False, 4)
    assert dist(behind, WAIT, p_c) == pytest.approx(
        {AoIIState(True, 0): p_c, AoIIState(False, 5): 1.0 - p_c}
    )
    assert dist(behind, SEND, p_c) == pytest.approx(
        {AoIIState(True, 0): 1.0 - (1.0 - p_c) * (1.0 - p), AoIIState(False, 5): (1.0 - p_c) * (1.0 - p)}
    )


def test_initial_states():
    assert INITIAL_AOI == AoIState(0, 1)
    assert INITIAL_AOII == AoIIState(True, 0)
    env = AoiEnv(SystemParams(), seed=3)
    assert env.state == INITIAL_AOI
    assert env.steps_taken == 0


def test_env_rejects_bad_safety_level():
    with pytest.raises(ValueError):
        AoiEnv(SystemParams(), zeta=0)
    with pytest.raises(ValueError):
        AoiiEnv(SystemParams(), SourceSpec(), zeta_aoii=0)


def test_state_invariants_hold_along_trajectory():
    env = AoiEnv(SystemParams(), seed=11)
    rng = np.random.default_rng(5)
    policy = RandomPolicy(0.5, rng)
    for out in iterate_outcomes(env, policy, 2000):
        tx, rx = out.next_state
        assert 0 <= tx <= rx
        assert rx >= 1
    env2 = AoiiEnv(SystemParams(), SourceSpec(), seed=11)
    for out in iterate_outcomes(env2, AoiiThresholdPolicy(1), 2000):
        synced, age = out.next_state
        assert synced == (age == 0)


def test_replay_determinism_same_seed():
    params = SystemParams()
    first = AoiEnv(params, seed=42)
    second = AoiEnv(params, seed=42)
    policy = ThresholdPolicy(2)
    outs1 = list(iterate_outcomes(first, policy, 500))
    outs2 = list(iterate_outcomes(second, policy, 500))
    assert outs1 == outs2


def test_reset_replays_identically():
    env = AoiiEnv(SystemParams(), SourceSpec(), seed=9)
    policy = AoiiThresholdPolicy(2)
    outs1 = list(iterate_outcomes(env, policy, 300))
    env.reset()
    assert env.state == INITIAL_AOII
    assert env.steps_taken == 0
    outs2 = list(iterate_outcomes(env, policy, 300))
    assert outs1 == outs2


@pytest.mark.parametrize("block", [7, 8192])
def test_buffered_stream_replays_single_draws(block):
    """Block-wise draws give exactly the values of one rng.random() call each,
    across several block boundaries."""
    count = 3 * block + 5
    stream = uniform_stream(np.random.default_rng(31), block)
    single = np.random.default_rng(31)
    assert [next(stream) for _ in range(count)] == [single.random() for _ in range(count)]


def test_event_streams_do_not_depend_on_policy():
    """Arrivals are a fixed function of the seed, whatever the policy does."""
    params = SystemParams()

    def arrivals(policy):
        env = AoiEnv(params, seed=77)
        flags = []
        for out in iterate_outcomes(env, policy, 400):
            flags.append(out.next_state.aoi_tx == 0)
        return flags

    assert arrivals(ThresholdPolicy(1)) == arrivals(ThresholdPolicy(4))


def test_deterministic_limit_always_send_cycles():
    """With certain arrivals and a perfect channel the age pins at one."""
    params = SystemParams(p=1.0, lam=1.0)
    env = AoiEnv(params, seed=0)
    for _ in range(50):
        out = env.step(SEND)
        assert out.next_state == AoIState(0, 1)
        assert out.cost == pytest.approx(params.alpha * 1 + params.beta * params.nu)
        assert out.success


def test_deterministic_limit_wait_grows_linearly():
    params = SystemParams(p=1.0, lam=1.0)
    env = AoiEnv(params, seed=0)
    for k in range(2, 20):
        out = env.step(WAIT)
        assert out.next_state.aoi_rx == k
        assert not out.sent


def test_cost_and_risky_follow_landing_state():
    params = SystemParams()
    env = AoiEnv(params, zeta=5, seed=123)
    for out in iterate_outcomes(env, ThresholdPolicy(3), 400):
        expected = params.alpha * out.next_state.aoi_rx + (params.beta * params.nu if out.sent else 0.0)
        assert out.cost == pytest.approx(expected)
        assert out.risky == (out.next_state.aoi_rx >= 5)


def test_query_gating_zeroes_age_term_only():
    params = SystemParams()
    env = AoiEnv(params, query=QuerySpec(q=0.3), seed=21)
    saw_query = saw_plain = False
    for out in iterate_outcomes(env, ThresholdPolicy(2), 1500):
        energy = params.beta * params.nu if out.sent else 0.0
        if out.query:
            saw_query = True
            assert out.cost == pytest.approx(params.alpha * out.next_state.aoi_rx + energy)
        else:
            saw_plain = True
            assert out.cost == pytest.approx(energy)
            assert not out.risky
    assert saw_query and saw_plain


def test_query_probability_one_matches_plain_metric():
    """q = 1 turns every step into a query step, recovering the plain cost."""
    params = SystemParams()
    plain = AoiEnv(params, seed=31)
    gated = AoiEnv(params, query=QuerySpec(q=1.0), seed=31)
    policy = ThresholdPolicy(2)
    for _ in range(500):
        a = plain.step(policy.decide(plain.state))
        b = gated.step(policy.decide(gated.state))
        assert a.next_state == b.next_state
        assert a.cost == b.cost
        assert a.risky == b.risky


def test_run_policy_aggregates_match_manual_replay():
    params = SystemParams()
    env = AoiEnv(params, seed=14)
    stats = run_policy(env, ThresholdPolicy(2), 1000)
    env.reset()
    outs = list(iterate_outcomes(env, ThresholdPolicy(2), 1000))
    assert stats.steps == 1000
    assert stats.avg_cost == pytest.approx(sum(o.cost for o in outs) / 1000)
    assert stats.risky_freq == pytest.approx(sum(o.risky for o in outs) / 1000)
    assert stats.send_count == sum(o.sent for o in outs)
    assert sum(stats.age_histogram.values()) == 1000
    assert stats.occupancy(2) == pytest.approx(
        sum(o.next_state.aoi_rx == 2 for o in outs) / 1000
    )


def test_run_policy_rejects_empty_horizon():
    with pytest.raises(ValueError):
        run_policy(AoiEnv(SystemParams(), seed=0), ThresholdPolicy(1), 0)
