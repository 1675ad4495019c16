"""Transition kernels and simulators, pinned against hand-written tables.

The enumeration tests are the ground truth for everything else: the chain
oracles in oracles.py and the analytic module are only trustworthy because
the kernels here match the transition tables written out by hand.
"""

import pytest
from hypothesis import given, settings, strategies as st

from agelab import (
    AoiEnv,
    AoiiEnv,
    EnvSpec,
    QuerySpec,
    RiskSpec,
    SourceSpec,
    SystemParams,
    run_policy,
)
from agelab import env as env_module
from agelab.env import (
    BLOCK,
    INITIAL_AOI,
    INITIAL_AOII,
    SEND,
    WAIT,
    AoIIState,
    AoIState,
    aoi_transition,
    aoii_transition,
    threshold_rollouts,
    uniform_stream,
)
from agelab.strategy import AoiiThresholdPolicy, RandomPolicy, ThresholdPolicy

import numpy as np

from oracles import iterate_outcomes


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
    # A run restarts by building a new env from the same SeedSequence object,
    # as the paired learners' training envs do; building one must not advance
    # the sequence for the next, and each starts from the initial state.
    params = SystemParams()
    seed = np.random.SeedSequence(9).spawn(1)[0]
    policy = AoiiThresholdPolicy(2)
    env = AoiiEnv(params, SourceSpec(), seed=seed)
    outs1 = list(iterate_outcomes(env, policy, 300))
    replay = AoiiEnv(params, SourceSpec(), seed=seed)
    assert replay.state == INITIAL_AOII
    outs2 = list(iterate_outcomes(replay, policy, 300))
    assert outs1 == outs2
    assert outs1 != list(
        iterate_outcomes(AoiiEnv(params, SourceSpec(), seed=seed.spawn(1)[0]), policy, 300)
    )


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
    queries = 0
    for out in iterate_outcomes(env, ThresholdPolicy(2), 1500):
        energy = params.beta * params.nu if out.sent else 0.0
        # the receiver age is at least one, so only a query step costs more than energy
        if out.cost != energy:
            queries += 1
            assert out.cost == pytest.approx(params.alpha * out.next_state.aoi_rx + energy)
        else:
            assert not out.risky
    assert 0.25 < queries / 1500 < 0.35  # q = 0.3; the binomial sd is 0.012


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
    outs = list(iterate_outcomes(AoiEnv(params, seed=14), ThresholdPolicy(2), 1000))
    assert stats.steps == 1000
    assert stats.avg_cost == pytest.approx(sum(o.cost for o in outs) / 1000)
    assert stats.risky_freq == pytest.approx(sum(o.risky for o in outs) / 1000)
    assert stats.send_count == sum(o.sent for o in outs)
    assert env.state == outs[-1].next_state


def test_run_policy_rejects_empty_horizon():
    with pytest.raises(ValueError):
        run_policy(AoiEnv(SystemParams(), seed=0), ThresholdPolicy(1), 0)


# --- threshold lanes against the scalar rollout ----------------------------
#
# threshold_rollouts steps every threshold over one shared draw of a seed's
# events; each lane must equal run_policy on a fresh env exactly, so these
# compare with ==.

probability = st.one_of(st.just(1.0), st.floats(min_value=1e-3, max_value=1.0))
gate = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(min_value=0.0, max_value=1.0))
weight = st.floats(min_value=0.0, max_value=4.0)


@settings(deadline=None, max_examples=40)
@given(
    metric=st.sampled_from(["aoi", "qaoi", "aoii"]),
    p=probability,
    lam=probability,
    q=gate,
    p_r=gate,
    weights=st.tuples(weight, weight, weight),
    zeta=st.integers(min_value=1, max_value=9),
    horizon=st.sampled_from([1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 5]),
    thresholds=st.lists(st.integers(min_value=1, max_value=8), min_size=1, max_size=3),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_threshold_rollouts_equal_run_policy(
    metric, p, lam, q, p_r, weights, zeta, horizon, thresholds, seed
):
    nu, alpha, beta = weights
    spec = EnvSpec(
        metric,
        SystemParams(p=p, lam=lam, nu=nu, alpha=alpha, beta=beta),
        RiskSpec(zeta=zeta, zeta_aoii=zeta),
        QuerySpec(q),
        SourceSpec(p_r=p_r),
    )
    if metric == "aoii":
        thresholds = [n - 1 for n in thresholds]  # theta = 0 always sends
    lanes = threshold_rollouts(spec.build(seed), thresholds, horizon)
    for value, lane in zip(thresholds, lanes, strict=True):
        policy = AoiiThresholdPolicy(value) if metric == "aoii" else ThresholdPolicy(value)
        assert lane == run_policy(spec.build(seed), policy, horizon)


@pytest.mark.parametrize("metric, substreams", [("aoi", 2), ("qaoi", 3), ("aoii", 2)])
def test_threshold_rollouts_hold_one_block_of_draws(monkeypatch, metric, substreams):
    """Draws are taken a block at a time and only for the events the metric
    reads, so memory does not grow with the horizon."""
    requested = []

    class Recording:
        def __init__(self, rng):
            self.rng = rng

        def random(self, size):
            requested.append(size)
            return self.rng.random(size)

    derive = env_module._substreams
    monkeypatch.setattr(
        env_module, "_substreams", lambda seed: [Recording(rng) for rng in derive(seed)]
    )
    horizon = 3 * BLOCK + 5
    threshold_rollouts(EnvSpec(metric).build(8), [1, 2, 3], horizon)
    assert sorted(requested) == sorted(substreams * [BLOCK, BLOCK, BLOCK, 5])


def test_threshold_rollouts_reject_empty_horizon():
    with pytest.raises(ValueError, match="horizon must be at least 1, got 0"):
        threshold_rollouts(AoiEnv(SystemParams(), seed=0), [1], 0)
