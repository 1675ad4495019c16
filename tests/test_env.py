"""Transition kernels and simulators, pinned against hand-written tables.

The enumeration tests are the ground truth for everything else: the chain
oracles in oracles.py and the analytic module are only trustworthy because
the kernels here match the transition tables written out by hand.
"""

import tracemalloc
from dataclasses import replace

import pytest
from hypothesis import Phase, given, settings, strategies as st

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
from agelab import env as env_module, kernels
from agelab.env import (
    BLOCK,
    INITIAL_AOI,
    INITIAL_AOII,
    METRICS,
    SEND,
    WAIT,
    _child,
    aoi_transition,
    aoii_transition,
    uniform_stream,
)
from agelab.kernels import rollouts, threshold_rollouts
from agelab.learning import QTable
from agelab.strategy import AoiiThresholdPolicy, GreedyPolicy, RandomPolicy, ThresholdPolicy

import numpy as np

from oracles import iterate_outcomes, replay_steps


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


def test_child_is_the_spawned_child():
    """_child(seed, i) is the i-th child that seed.spawn() gives, at any depth
    of the tree, and deriving it leaves seed's child counter alone."""
    for seed in (np.random.SeedSequence(4), np.random.SeedSequence(4).spawn(3)[2]):
        derived = [_child(seed, i) for i in range(5)]
        assert seed.n_children_spawned == 0
        for child, spawned in zip(derived, seed.spawn(5), strict=True):
            assert (child.entropy, child.spawn_key) == (spawned.entropy, spawned.spawn_key)
            assert child.generate_state(4).tolist() == spawned.generate_state(4).tolist()


@pytest.mark.parametrize("tx,rx", [(0, 1), (2, 5), (3, 3), (0, 7)])
def test_aoi_wait_kernel_matches_table(tx, rx):
    params = SystemParams(p=0.9, lam=0.5)
    state = (tx, rx)
    expected = merge(
        ((0, rx + 1), params.lam),
        ((tx + 1, rx + 1), 1.0 - params.lam),
    )
    assert aoi_next_distribution(state, WAIT, params) == pytest.approx(expected)


@pytest.mark.parametrize("tx,rx", [(0, 1), (2, 5), (3, 3), (0, 7)])
def test_aoi_send_kernel_matches_table(tx, rx):
    params = SystemParams(p=0.9, lam=0.5)
    lam, p = params.lam, params.p
    state = (tx, rx)
    expected = merge(
        ((0, tx + 1), lam * p),
        ((tx + 1, tx + 1), (1.0 - lam) * p),
        ((0, rx + 1), lam * (1.0 - p)),
        ((tx + 1, rx + 1), (1.0 - lam) * (1.0 - p)),
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
    dist = aoi_next_distribution((tx, tx + gap), action, params)
    assert sum(dist.values()) == pytest.approx(1.0)
    for tx2, rx2 in dist:
        assert 0 <= tx2 <= rx2


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

    synced = (True, 0)
    assert dist(synced, WAIT, p_r) == pytest.approx(
        {(True, 0): p_r, (False, 1): 1.0 - p_r}
    )
    assert dist(synced, SEND, p_r) == pytest.approx(
        {(True, 0): 1.0 - (1.0 - p_r) * (1.0 - p), (False, 1): (1.0 - p_r) * (1.0 - p)}
    )
    behind = (False, 4)
    assert dist(behind, WAIT, p_c) == pytest.approx(
        {(True, 0): p_c, (False, 5): 1.0 - p_c}
    )
    assert dist(behind, SEND, p_c) == pytest.approx(
        {(True, 0): 1.0 - (1.0 - p_c) * (1.0 - p), (False, 5): (1.0 - p_c) * (1.0 - p)}
    )


def test_initial_states():
    assert INITIAL_AOI == (0, 1)
    assert INITIAL_AOII == (True, 0)
    env = AoiEnv(EnvSpec(), seed=3)
    assert env.state == INITIAL_AOI


def test_env_rejects_bad_safety_level():
    """The safety levels are checked once, by RiskSpec, before any env is built."""
    with pytest.raises(ValueError, match="^zeta must be at least 1, got 0$"):
        AoiEnv(EnvSpec(risk=RiskSpec(zeta=0)))
    with pytest.raises(ValueError, match="^zeta_aoii must be at least 1, got 0$"):
        AoiiEnv(EnvSpec("aoii", risk=RiskSpec(zeta_aoii=0)))


def test_env_refuses_a_spec_of_the_other_kind():
    with pytest.raises(ValueError, match="^AoiEnv simulates aoi and qaoi, not aoii$"):
        AoiEnv(EnvSpec("aoii"))
    for metric in ("aoi", "qaoi"):
        with pytest.raises(ValueError, match=f"^AoiiEnv simulates aoii, not {metric}$"):
            AoiiEnv(EnvSpec(metric))


def test_state_invariants_hold_along_trajectory():
    env = AoiEnv(EnvSpec(), seed=11)
    rng = np.random.default_rng(5)
    policy = RandomPolicy(0.5, rng)
    for out in iterate_outcomes(env, policy, 2000):
        tx, rx = out.next_state
        assert 0 <= tx <= rx
        assert rx >= 1
    env2 = AoiiEnv(EnvSpec("aoii"), seed=11)
    for out in iterate_outcomes(env2, AoiiThresholdPolicy(1), 2000):
        synced, age = out.next_state
        assert synced == (age == 0)


def test_replay_determinism_same_seed():
    first = AoiEnv(EnvSpec(), seed=42)
    second = AoiEnv(EnvSpec(), seed=42)
    policy = ThresholdPolicy(2)
    outs1 = list(iterate_outcomes(first, policy, 500))
    outs2 = list(iterate_outcomes(second, policy, 500))
    assert outs1 == outs2


def test_reset_replays_identically():
    # A run restarts by building a new env from the same SeedSequence object,
    # as the paired learners' training envs do; building one must not advance
    # the sequence for the next, and each starts from the initial state.
    spec = EnvSpec("aoii")
    seed = np.random.SeedSequence(9).spawn(1)[0]
    policy = AoiiThresholdPolicy(2)
    env = AoiiEnv(spec, seed=seed)
    outs1 = list(iterate_outcomes(env, policy, 300))
    replay = AoiiEnv(spec, seed=seed)
    assert replay.state == INITIAL_AOII
    outs2 = list(iterate_outcomes(replay, policy, 300))
    assert outs1 == outs2
    assert outs1 != list(
        iterate_outcomes(AoiiEnv(spec, seed=seed.spawn(1)[0]), policy, 300)
    )


@pytest.mark.parametrize("block", [7, BLOCK])
def test_buffered_stream_replays_single_draws(block, monkeypatch):
    """Block-wise draws give exactly the values of one rng.random() call each,
    across several block boundaries, at a small block and at BLOCK."""
    monkeypatch.setattr(env_module, "BLOCK", block)
    count = 3 * block + 5
    stream = uniform_stream(np.random.default_rng(31))
    single = np.random.default_rng(31)
    assert [next(stream) for _ in range(count)] == [single.random() for _ in range(count)]


def test_event_streams_do_not_depend_on_policy():
    """Arrivals are a fixed function of the seed, whatever the policy does."""
    def arrivals(policy):
        env = AoiEnv(EnvSpec(), seed=77)
        flags = []
        for out in iterate_outcomes(env, policy, 400):
            flags.append(out.next_state[0] == 0)
        return flags

    assert arrivals(ThresholdPolicy(1)) == arrivals(ThresholdPolicy(4))


def test_deterministic_limit_always_send_cycles():
    """With certain arrivals and a perfect channel the age pins at one."""
    params = SystemParams(p=1.0, lam=1.0)
    env = AoiEnv(EnvSpec(params=params), seed=0)
    for _ in range(50):
        out = env.step(SEND)
        assert out.next_state == (0, 1)
        assert out.cost == pytest.approx(params.alpha * 1 + params.beta * params.nu)
        assert out.success


def test_deterministic_limit_wait_grows_linearly():
    env = AoiEnv(EnvSpec(params=SystemParams(p=1.0, lam=1.0)), seed=0)
    for k in range(2, 20):
        out = env.step(WAIT)
        assert out.next_state[1] == k
        assert not out.sent


def test_cost_and_risky_follow_landing_state():
    params = SystemParams()
    env = AoiEnv(EnvSpec(params=params, risk=RiskSpec(zeta=5)), seed=123)
    for out in iterate_outcomes(env, ThresholdPolicy(3), 400):
        _, rx = out.next_state
        expected = params.alpha * rx + (params.beta * params.nu if out.sent else 0.0)
        assert out.cost == pytest.approx(expected)
        assert out.risky == (rx >= 5)


def test_query_gating_zeroes_age_term_only():
    params = SystemParams()
    env = AoiEnv(EnvSpec("qaoi", params, query=QuerySpec(q=0.3)), seed=21)
    queries = 0
    for out in iterate_outcomes(env, ThresholdPolicy(2), 1500):
        energy = params.beta * params.nu if out.sent else 0.0
        # the receiver age is at least one, so only a query step costs more than energy
        if out.cost != energy:
            queries += 1
            assert out.cost == pytest.approx(params.alpha * out.next_state[1] + energy)
        else:
            assert not out.risky
    assert 0.25 < queries / 1500 < 0.35  # q = 0.3; the binomial sd is 0.012


def test_query_probability_one_matches_plain_metric():
    """q = 1 turns every step into a query step, recovering the plain cost."""
    plain = AoiEnv(EnvSpec(), seed=31)
    gated = AoiEnv(EnvSpec("qaoi", query=QuerySpec(q=1.0)), seed=31)
    policy = ThresholdPolicy(2)
    for _ in range(500):
        a = plain.step(policy.decide(plain.state))
        b = gated.step(policy.decide(gated.state))
        assert a.next_state == b.next_state
        assert a.cost == b.cost
        assert a.risky == b.risky


def test_run_policy_aggregates_match_manual_replay():
    env = AoiEnv(EnvSpec(), seed=14)
    stats = run_policy(env, ThresholdPolicy(2), 1000)
    outs = list(iterate_outcomes(AoiEnv(EnvSpec(), seed=14), ThresholdPolicy(2), 1000))
    assert stats.steps == 1000
    assert stats.avg_cost == pytest.approx(sum(o.cost for o in outs) / 1000)
    assert stats.risky_freq == pytest.approx(sum(o.risky for o in outs) / 1000)
    assert stats.send_count == sum(o.sent for o in outs)
    assert env.state == outs[-1].next_state


def test_run_policy_rejects_empty_horizon():
    with pytest.raises(ValueError):
        run_policy(AoiEnv(EnvSpec(), seed=0), ThresholdPolicy(1), 0)


# --- seeded rollouts against independent replays ---------------------------
#
# threshold_rollouts steps every threshold over one shared draw of a seed's
# events, and env.step compares block draws with their probabilities; each
# must equal a step-by-step replay exactly, so these compare with ==.

probability = st.one_of(st.just(1.0), st.floats(min_value=1e-3, max_value=1.0))
gate = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(min_value=0.0, max_value=1.0))
weight = st.floats(min_value=0.0, max_value=4.0)


@st.composite
def env_specs(draw):
    """Any metric, with p and lam in [1e-3, 1] and q and p_r at or between 0 and 1."""
    nu, alpha, beta = draw(st.tuples(weight, weight, weight))
    zeta = draw(st.integers(min_value=1, max_value=9))
    return EnvSpec(
        draw(st.sampled_from(["aoi", "qaoi", "aoii"])),
        SystemParams(p=draw(probability), lam=draw(probability), nu=nu, alpha=alpha, beta=beta),
        RiskSpec(zeta=zeta, zeta_aoii=zeta),
        QuerySpec(draw(gate)),
        SourceSpec(p_r=draw(gate)),
    )


def assert_lanes_equal_run_policy(spec, seed, thresholds, horizon):
    lanes = threshold_rollouts(spec, seed, thresholds, horizon)
    for value, lane in zip(thresholds, lanes, strict=True):
        policy = AoiiThresholdPolicy(value) if spec.metric == "aoii" else ThresholdPolicy(value)
        expected = run_policy(spec.build(seed), policy, horizon)
        # repr also tells a numpy scalar from the int or float run_policy gives
        assert (lane, repr(lane)) == (expected, repr(expected)), value


@settings(deadline=None, max_examples=40)
@given(
    spec=env_specs(),
    horizon=st.sampled_from([1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 5]),
    thresholds=st.lists(st.integers(min_value=1, max_value=64), min_size=1, max_size=3),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_threshold_rollouts_equal_run_policy(spec, horizon, thresholds, seed):
    if spec.metric == "aoii":
        thresholds = [n - 1 for n in thresholds]  # theta = 0 always sends
    assert_lanes_equal_run_policy(spec, seed, thresholds, horizon)


# An aoii lane also runs a greedy table or a random sender.  A failing
# example replays up to 2 * BLOCK + 5 steps per lane through run_policy, so
# shrinking it would take minutes; the first failure is reported instead.
NO_SHRINK = tuple(phase for phase in Phase if phase is not Phase.shrink)


@st.composite
def mismatch_tables(draw):
    """aoii tables with a_max 2-40 whose entries take three values, so the
    send bits have ties (which wait), holes and any bit at the synced row."""
    a_max = draw(st.integers(min_value=2, max_value=40))
    entries = st.sampled_from([0.0, 1.0, 2.0])
    cells = draw(st.lists(entries, min_size=2 * (a_max + 1), max_size=2 * (a_max + 1)))
    return QTable("aoii", a_max, np.array(cells).reshape(a_max + 1, 2))


def mismatch_policies(tables, send_probs, thetas, seed):
    """Greedy readers, random senders on their own streams and thresholds,
    built afresh for each rollout."""
    return [
        *(GreedyPolicy(table) for table in tables),
        *(RandomPolicy(prob, np.random.default_rng([seed, k])) for k, prob in enumerate(send_probs)),
        *(AoiiThresholdPolicy(theta) for theta in thetas),
    ]


def assert_mismatch_lanes_equal_run_policy(spec, seed, tables, send_probs, thetas, horizon):
    lanes = rollouts(spec, seed, mismatch_policies(tables, send_probs, thetas, seed), horizon)
    policies = mismatch_policies(tables, send_probs, thetas, seed)
    for k, (lane, policy) in enumerate(zip(lanes, policies, strict=True)):
        expected = run_policy(spec.build(seed), policy, horizon)
        assert (lane, repr(lane)) == (expected, repr(expected)), (k, type(policy).__name__)


@settings(deadline=None, max_examples=40, phases=NO_SHRINK)
@given(
    spec=env_specs().map(lambda spec: replace(spec, metric="aoii")),
    tables=st.lists(mismatch_tables(), min_size=1, max_size=3),
    send_probs=st.lists(gate, min_size=1, max_size=2),
    theta=st.integers(min_value=0, max_value=8),
    horizon=st.sampled_from([1, BLOCK - 1, BLOCK + 1, 2 * BLOCK + 5]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_greedy_and_random_lanes_equal_run_policy(spec, tables, send_probs, theta, horizon, seed):
    """Greedy tables (ages past a_max read its last row) and random senders
    at send_prob 0, 1 and between, in one call with a threshold lane."""
    assert_mismatch_lanes_equal_run_policy(spec, seed, tables, send_probs, [theta], horizon)


def edge_tables():
    """A table that sends at ages 2-3 and from 6 on, one that sends at ages
    0-1 and 4, and one that never sends (a_max = 6)."""
    holes, synced = np.zeros((7, 2)), np.zeros((7, 2))
    holes[[2, 3, 6], SEND] = -1.0
    synced[[0, 1, 4], SEND] = -1.0
    return [QTable("aoii", 6, values) for values in (holes, synced, np.zeros((7, 2)))]


@pytest.mark.parametrize(
    "params, source",
    [
        (SystemParams(p=0.3), SourceSpec(p_r=0.0)),
        (SystemParams(p=0.3), SourceSpec(p_r=1.0)),
        (SystemParams(p=1.0), SourceSpec()),
        # a source that leaves sync at once and seldom comes back over a
        # channel that seldom delivers: ages run on across blocks
        (SystemParams(p=1e-4), SourceSpec(num_states=50_001, p_r=0.5)),
    ],
    ids=["p_r=0", "p_r=1", "p=1", "slow"],
)
def test_greedy_and_random_lanes_at_the_edges(params, source):
    spec = EnvSpec("aoii", params, source=source)
    assert_mismatch_lanes_equal_run_policy(spec, 5, edge_tables(), [0.0, 0.4, 1.0], [0, 2], 3 * BLOCK + 5)


@pytest.mark.parametrize("p_r", [0.0, 0.5, 0.9])
def test_greedy_and_random_lanes_carry_their_state_across_short_blocks(monkeypatch, p_r):
    """With blocks of 7 slots, most mismatches straddle a block boundary, so
    a lane often starts a block mid-run, between runs or past a_max.  The
    kernels draw each block's uniforms with one call per substream, which
    gives the values of one longer call, so the lanes still equal run_policy."""
    monkeypatch.setattr(kernels, "BLOCK", 7)
    spec = EnvSpec("aoii", SystemParams(p=0.4), source=SourceSpec(p_r=p_r))
    for seed in range(4):
        assert_mismatch_lanes_equal_run_policy(spec, seed, edge_tables(), [0.4, 1.0], [0, 3], 1_000)


def test_rollouts_refuse_what_no_lane_runs():
    table = QTable("aoii", 4, np.zeros((5, 2)))
    with pytest.raises(ValueError, match="^the block kernels cannot roll out GreedyPolicy on an aoi or qaoi spec$"):
        rollouts(EnvSpec("aoi"), 0, [GreedyPolicy(table)], 10)
    with pytest.raises(ValueError, match="^the block kernels cannot roll out ThresholdPolicy on an aoii spec$"):
        rollouts(EnvSpec("aoii"), 0, [ThresholdPolicy(2)], 10)
    with pytest.raises(ValueError, match="^a greedy aoii lane needs a table over mismatch ages"):
        rollouts(EnvSpec("aoii"), 0, [GreedyPolicy(QTable("aoi", 4, np.zeros((5, 5, 2))))], 10)


# Edge cases of the block kernels: each lane jumps from one delivery (aoii:
# one loss of sync) to the next and carries its state across blocks.


@pytest.mark.parametrize("metric", METRICS)
def test_threshold_rollouts_carry_state_across_blocks_without_a_delivery(metric):
    """At p = lam = 1e-3 most blocks see no delivery, so the sender and
    receiver ages (or the mismatch age) run on from block to block."""
    spec = EnvSpec(metric, SystemParams(p=1e-3, lam=1e-3), source=SourceSpec(p_r=0.999))
    thresholds = [0, 1, 3] if metric == "aoii" else [1, 2, 5]
    assert_lanes_equal_run_policy(spec, 5, thresholds, 3 * BLOCK + 5)


@pytest.mark.parametrize("metric", METRICS)
def test_threshold_rollouts_deliver_every_slot(metric):
    """At p = lam = 1 an attempt is delivered in every slot it is made."""
    spec = EnvSpec(metric, SystemParams(p=1.0, lam=1.0))
    thresholds = [0, 1, 2] if metric == "aoii" else [1, 2, 3]
    assert_lanes_equal_run_policy(spec, 6, thresholds, BLOCK + 3)


@pytest.mark.parametrize("metric", METRICS)
def test_threshold_rollouts_reach_large_thresholds(metric):
    """Thresholds of 40 and 200 are reached only on a slow channel, after
    ages have grown over many slots and across blocks."""
    spec = EnvSpec(metric, SystemParams(p=0.01, lam=0.05), source=SourceSpec(p_r=0.95))
    assert_lanes_equal_run_policy(spec, 7, [40, 200], 3 * BLOCK + 5)


@pytest.mark.parametrize("p_r", [0.0, 1.0])
def test_mismatch_threshold_zero_leaves_sync_only_on_a_failed_move(p_r):
    """theta = 0 sends every slot, so a synced source leaves sync only when
    it moves and the attempt fails: never at p_r = 1, at every failure at 0."""
    spec = EnvSpec("aoii", SystemParams(p=0.3), source=SourceSpec(p_r=p_r))
    assert_lanes_equal_run_policy(spec, 9, [0, 1, 2], 2 * BLOCK + 5)


@pytest.mark.parametrize("metric", METRICS)
def test_threshold_rollouts_of_one_step(metric):
    thresholds = [0, 1, 2] if metric == "aoii" else [1, 2]
    for seed in range(20):
        assert_lanes_equal_run_policy(EnvSpec(metric), seed, thresholds, 1)


@pytest.mark.parametrize("metric", METRICS)
def test_threshold_rollouts_in_int64(metric, monkeypatch):
    """Past a horizon of 2**30 the kernels keep slots and ages in int64."""
    monkeypatch.setattr(kernels, "_index_dtype", lambda horizon: np.int64)
    thresholds = [0, 1, 4] if metric == "aoii" else [1, 2, 5]
    assert_lanes_equal_run_policy(EnvSpec(metric), 10, thresholds, 2 * BLOCK + 5)


def test_threshold_rollouts_refuse_what_the_policies_refuse():
    with pytest.raises(ValueError, match="^threshold must be at least 1, got 0$"):
        threshold_rollouts(EnvSpec("qaoi"), 0, [2, 0], 10)
    with pytest.raises(ValueError, match="^theta must be nonnegative, got -1$"):
        threshold_rollouts(EnvSpec("aoii"), 0, [1, -1], 10)


def test_add_accumulate_is_a_left_fold():
    """The kernels' cost sums rest on this: np.add.accumulate, in place, adds
    strictly left to right like ``+=`` in a loop.  Past 1.0, adding 2**-53
    rounds back to 1.0 at every step, so a left fold stays at 1.0, while a
    pairwise sum (np.sum) adds the small terms first and moves."""
    tiny = 2.0**-53
    values = np.array([0.0, 1.0] + [tiny] * 1000)
    fold = 0.0
    for value in values.tolist():
        fold += value
    assert fold == 1.0
    assert np.sum(values) > 1.0
    np.add.accumulate(values, out=values)
    assert values[-1] == fold
    rng = np.random.default_rng(3)
    costs = rng.random(BLOCK + 1) * rng.integers(1, 10**6, BLOCK + 1)
    fold = 0.0
    for value in costs.tolist():
        fold += value
    assert np.add.accumulate(costs)[-1] == fold


@pytest.mark.parametrize("metric", METRICS)
def test_threshold_rollouts_memory_does_not_grow_with_the_horizon(metric):
    """Eight lanes over 3 * BLOCK + 5 steps peak within 1.25 times their
    peak over 5,000 steps, as traced by tracemalloc.

    The per-slot Python lanes the block kernels replaced peaked at about
    397, 461 and 333 KiB (aoi, qaoi, aoii) over 3 * BLOCK + 5 steps, and at
    204, 210 and 165 KiB over 5,000 steps, on Python 3.11 with numpy 2.4.
    The kernels allocate every array at BLOCK entries on the first step and
    peak at about 313, 321 and 335 KiB over 3 * BLOCK + 5 steps (297, 302
    and 303 KiB over 5,000); 400 KiB bounds all three.
    """
    spec = EnvSpec(metric)
    thresholds = list(range(8)) if metric == "aoii" else list(range(1, 9))

    def peak(horizon):
        threshold_rollouts(spec, 8, thresholds, horizon)  # numpy's first-call setup
        tracemalloc.start()
        try:
            threshold_rollouts(spec, 8, thresholds, horizon)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    short, long = peak(5_000), peak(3 * BLOCK + 5)
    assert long <= 1.25 * short
    assert long <= 400 * 1024


@settings(deadline=None, max_examples=30)
@given(
    spec=env_specs(),
    send_prob=gate,
    horizon=st.sampled_from([BLOCK + 1, 2 * BLOCK + 5]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_step_equals_a_replay_of_single_draws(spec, send_prob, horizon, seed):
    """Every field of every outcome of env.step, under arbitrary actions and
    across block boundaries, equals the replay from one draw per event."""
    draws = np.random.default_rng([seed, 1]).random(horizon).tolist()
    actions = [SEND if u < send_prob else WAIT for u in draws]
    env = spec.build(seed)
    replay = replay_steps(spec, seed, actions)
    for i, (action, expected) in enumerate(zip(actions, replay, strict=True)):
        assert env.step(action) == expected, f"step {i}"
    assert env.state == replay[-1][0]


@pytest.mark.parametrize("metric, substreams", [("aoi", 2), ("qaoi", 3), ("aoii", 2)])
def test_threshold_rollouts_hold_one_block_of_draws(monkeypatch, metric, substreams):
    """Draws are taken a block at a time and only for the events the metric
    reads, so memory does not grow with the horizon."""
    requested = []

    class Recording:
        def __init__(self, rng):
            self.rng = rng

        def random(self, size, out=None):
            requested.append(size)
            return self.rng.random(size, out=out)

    derive = kernels._substreams
    monkeypatch.setattr(
        kernels, "_substreams", lambda seed: [Recording(rng) for rng in derive(seed)]
    )
    horizon = 3 * BLOCK + 5
    threshold_rollouts(EnvSpec(metric), 8, [1, 2, 3], horizon)
    assert sorted(requested) == sorted(substreams * [BLOCK, BLOCK, BLOCK, 5])


def test_threshold_rollouts_reject_empty_horizon():
    with pytest.raises(ValueError, match="horizon must be at least 1, got 0"):
        threshold_rollouts(EnvSpec(), 0, [1], 0)
