"""Q-table plumbing and the learner, pinned against a textbook reference.

The reference implementation below is a plain dict-backed Q-learning loop
written independently of the package's optimized one; at any risk factor
the two must take identical decisions and produce identical tables bit for
bit under shared seeds.
"""

import csv

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

from agelab import (
    AoiEnv,
    AoiiEnv,
    EnvSpec,
    LearningParams,
    QTable,
    QuerySpec,
    RiskSpec,
    SourceSpec,
    SystemParams,
    train,
)
from agelab.env import BLOCK, SEND, WAIT
from agelab.learning import A_MAX_LIMIT
from agelab.strategy import GreedyPolicy


def textbook_qlearning(env, steps, seed, gamma=0.7, epsilon0=0.9, delta=0.999,
                       epsilon_min=0.0, rate=0.1, a_max=128, rho=1.0, rate_power=None,
                       visits=None):
    """Epsilon-greedy tabular Q-learning, dict-backed; the cost of a
    transition landing in a risky state is multiplied by rho.

    With rate_power the rate of a pair is 1 / (1 + visits so far) ** rate_power.
    Visit counts go into ``visits`` when a dict is given.
    """
    rng = np.random.default_rng(seed)
    values: dict[tuple, list[float]] = {}
    if visits is None:
        visits = {}

    def clamp(state):
        if env.metric == "aoii":
            _, age = state
            return (min(age, a_max),)
        tx, rx = state
        return (min(tx, a_max), min(rx, a_max))

    def cell(state):
        return values.setdefault(clamp(state), [0.0, 0.0])

    eps = epsilon0
    risky_count = 0
    state = env.state
    for i in range(1, steps + 1):
        here = cell(state)
        if rng.random() < eps:
            action = SEND if rng.random() < 0.5 else WAIT
        else:
            action = SEND if here[SEND] < here[WAIT] else WAIT
        eps = max(epsilon_min, epsilon0 * delta**i)
        out = env.step(action)
        cost = out.cost
        if out.risky:
            risky_count += 1
            cost = rho * cost
        nxt = cell(out.next_state)
        bootstrap = min(nxt[WAIT], nxt[SEND])
        pair = clamp(state) + (action,)
        seen = visits.get(pair, 0)
        step_rate = rate if rate_power is None else 1.0 / (1.0 + seen) ** rate_power
        here[action] = (1.0 - step_rate) * here[action] + step_rate * (cost + gamma * bootstrap)
        visits[pair] = seen + 1
        state = out.next_state
    return values, eps, risky_count


def zero_table(metric, a_max):
    """An all-zero table in the layout ``train`` returns (see test_qtable_shapes)."""
    cells = (a_max + 1,) if metric == "aoii" else (a_max + 1, a_max + 1)
    return QTable(metric, a_max, np.zeros(cells + (2,)))


def as_array(values, metric, a_max):
    table = zero_table(metric, a_max)
    for idx, pair in values.items():
        table.values[idx + (WAIT,)] = pair[WAIT]
        table.values[idx + (SEND,)] = pair[SEND]
    return table.values


def visits_array(visits, metric, a_max):
    counts = np.zeros(zero_table(metric, a_max).values.shape, dtype=np.int64)
    for idx, count in visits.items():
        counts[idx] = count
    return counts


# --- QTable ----------------------------------------------------------------


def test_qtable_shapes():
    """The table and visit counts train returns have a cell per clamped state
    and two actions; the metric and the clamp are checked before training."""
    short = LearningParams(steps=10, a_max=8)
    for metric, shape in [("aoi", (9, 9, 2)), ("qaoi", (9, 9, 2)), ("aoii", (9, 2))]:
        report = train(EnvSpec(metric).build(0), short, seed=0)
        assert (report.table.metric, report.table.a_max) == (metric, 8)
        assert report.table.values.shape == report.visits.shape == shape
    widest = train(EnvSpec("aoii").build(0), LearningParams(steps=10, a_max=A_MAX_LIMIT))
    assert widest.table.values.shape == (A_MAX_LIMIT + 1, 2)
    with pytest.raises(ValueError, match="unknown metric 'foo'"):
        EnvSpec("foo")
    with pytest.raises(ValueError, match="at least 2, got 1"):
        LearningParams(a_max=1)
    with pytest.raises(ValueError, match="100 MB"):
        LearningParams(a_max=A_MAX_LIMIT + 1)


def test_qtable_index_clamps():
    """A state's slot in the flattened table is its cell's; ages beyond
    a_max read the boundary cell."""
    table = zero_table("aoi", 4)
    table.values[2, 3, WAIT] = 1.0
    table.values[4, 4, SEND] = 9.0
    flat = table.values.reshape(-1)
    slot = table.wait_slot()
    assert flat[slot((2, 3))] == 1.0
    assert flat[slot((9, 30)) + 1] == 9.0
    assert slot((4, 9)) == slot((4, 4))
    aoii = zero_table("aoii", 4)
    aoii.values[4, SEND] = 3.0
    flat = aoii.values.reshape(-1)
    assert flat[aoii.wait_slot()((False, 7)) + 1] == 3.0


def test_qtable_action_values():
    """A state's slot holds its wait value and the next one its send value."""
    table = zero_table("aoi", 4)
    table.values[1, 2, WAIT] = 5.0
    table.values[1, 2, SEND] = 7.0
    flat = table.values.reshape(-1)
    slot = table.wait_slot()
    assert (flat[slot((1, 2))], flat[slot((1, 2)) + 1]) == (5.0, 7.0)
    aoii = zero_table("aoii", 4)
    aoii.values[0, WAIT] = 2.0
    flat = aoii.values.reshape(-1)
    assert flat[aoii.wait_slot()((True, 0))] == 2.0


@pytest.mark.parametrize("metric", ["aoi", "aoii"])
def test_qtable_dump_parses_back_exactly(metric, tmp_path):
    """Each table entry is one CSV row whose value parses back bit for bit."""
    rng = np.random.default_rng(3)
    table = zero_table(metric, 6)
    if metric == "aoii":
        table.values[:] = rng.standard_normal((7, 2))
    else:
        table.values[:, 1:, :] = rng.standard_normal((7, 6, 2))  # receiver ages start at 1
    path = tmp_path / "table.csv"
    table.dump_csv(path)
    with open(path, newline="") as handle:
        rows = list(csv.DictReader(handle))
    parsed = np.zeros_like(table.values)
    for row in rows:
        if metric == "aoii":
            cell = (int(row["aoii"]),)
            assert row["synced"] == ("1" if cell == (0,) else "0")
        else:
            cell = (int(row["aoi_tx"]), int(row["aoi_rx"]))
        parsed[cell + (int(row["action"]),)] = float(row["q_value"])
    assert len(rows) == (7 * 2 if metric == "aoii" else 7 * 6 * 2)
    assert parsed.tobytes() == table.values.tobytes()


def test_qtable_dump_is_deterministic(tmp_path):
    table = zero_table("aoii", 5)
    table.values[2, SEND] = 1.2345678901234567
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    table.dump_csv(first)
    table.dump_csv(second)
    assert first.read_bytes() == second.read_bytes()


# --- parameters and primitives ---------------------------------------------


@pytest.mark.parametrize("field,value", [
    ("steps", 0),
    ("gamma", 1.0),
    ("gamma", -0.1),
    ("epsilon0", 1.5),
    ("delta", 0.0),
    ("delta", 1.5),
    ("epsilon_min", -0.1),
    ("epsilon_min", 0.95),
    ("rate", 0.0),
    ("rate", 1.5),
    ("rate_power", 0.0),
    ("rate_power", float("nan")),
    ("rho", -1.0),
    ("rho", float("nan")),
    ("rho", float("inf")),
    ("a_max", 1),
])
def test_learning_params_validation(field, value):
    with pytest.raises(ValueError):
        LearningParams(**{field: value})


def test_a_max_bound_is_checked_before_any_table_exists():
    """An oversized clamp is refused when the parameters are built, with the reason."""
    assert LearningParams(a_max=A_MAX_LIMIT).a_max == A_MAX_LIMIT
    with pytest.raises(ValueError, match=f"at most {A_MAX_LIMIT}, got 1025: .*a_max\\*\\*2"):
        LearningParams(a_max=1025)


# --- training ---------------------------------------------------------------


def test_train_is_deterministic():
    spec = LearningParams(steps=3000, a_max=32)
    one = train(AoiEnv(EnvSpec(), seed=5), spec, seed=11)
    two = train(AoiEnv(EnvSpec(), seed=5), spec, seed=11)
    assert np.array_equal(one.table.values, two.table.values)
    assert np.array_equal(one.visits, two.visits)
    assert one.final_epsilon == two.final_epsilon


def test_train_visits_account_for_every_step():
    spec = LearningParams(steps=4000, a_max=32)
    report = train(AoiEnv(EnvSpec(), seed=2), spec, seed=3)
    assert int(report.visits.sum()) == 4000


def test_train_epsilon_closed_form():
    """epsilon after i steps is max(epsilon_min, epsilon0 * delta**i); a
    floor of 0.05 binds at 5000 steps but not at 1 or 10."""
    finals = {}
    for steps in (1, 10, 5000):
        for floor in (0.0, 0.05):
            spec = LearningParams(steps=steps, epsilon0=0.9, delta=0.999, epsilon_min=floor, a_max=32)
            report = train(AoiEnv(EnvSpec(), seed=2), spec, seed=3)
            assert report.final_epsilon == max(floor, 0.9 * 0.999**steps)
            finals[steps, floor] = report.final_epsilon
    assert finals[5000, 0.05] == 0.05 > finals[5000, 0.0]
    assert finals[1, 0.05] == finals[1, 0.0] == 0.9 * 0.999
    assert finals[10, 0.05] == finals[10, 0.0] > 0.05


def test_risk_neutral_training_matches_textbook_reference():
    """rho = 1 is plain Q-learning, reproduced bit for bit by the dict loop."""
    spec = LearningParams(steps=20_000, rho=1.0, a_max=64)
    report = train(AoiEnv(EnvSpec(), seed=123), spec, seed=456)
    values, eps, risky = textbook_qlearning(AoiEnv(EnvSpec(), seed=123), 20_000, seed=456, a_max=64)
    assert np.array_equal(report.table.values, as_array(values, "aoi", 64))
    assert report.final_epsilon == eps
    assert report.risky_transitions == risky


def test_risk_neutral_training_matches_reference_on_mismatch_metric():
    spec = LearningParams(steps=20_000, rho=1.0, a_max=64)
    report = train(AoiiEnv(EnvSpec("aoii"), seed=9), spec, seed=10)
    values, _, risky = textbook_qlearning(AoiiEnv(EnvSpec("aoii"), seed=9), 20_000, seed=10, a_max=64)
    assert np.array_equal(report.table.values, as_array(values, "aoii", 64))
    assert report.risky_transitions == risky


@pytest.mark.parametrize("metric", ["aoi", "aoii"])
def test_risk_scaled_training_matches_textbook_reference(metric):
    """At rho = 2 risky costs are doubled before the update, exactly as in the dict loop."""
    def env():
        if metric == "aoii":
            return AoiiEnv(EnvSpec("aoii"), seed=9)
        return AoiEnv(EnvSpec(), seed=123)

    spec = LearningParams(steps=20_000, rho=2.0, a_max=64)
    report = train(env(), spec, seed=456)
    values, eps, risky = textbook_qlearning(env(), 20_000, seed=456, a_max=64, rho=2.0)
    assert risky > 0
    assert np.array_equal(report.table.values, as_array(values, metric, 64))
    assert report.final_epsilon == eps
    assert report.risky_transitions == risky


@pytest.mark.parametrize("metric,rho,rate_power", [
    ("qaoi", 1.0, None),
    ("aoi", 2.0, 0.6),
    ("qaoi", 2.0, 0.8),
    ("aoii", 2.0, 1.0),
])
def test_every_learner_branch_matches_textbook_reference(metric, rho, rate_power):
    """The query-gated metric, and the visit-count rate schedule that the
    CLI does not reach, replay the dict loop bit for bit, visit counts
    included."""
    def env():
        return EnvSpec(metric, query=QuerySpec(q=0.4)).build(21)

    spec = LearningParams(steps=15_000, rho=rho, rate_power=rate_power, a_max=48)
    report = train(env(), spec, seed=22)
    visits: dict[tuple, int] = {}
    values, eps, risky = textbook_qlearning(
        env(), 15_000, seed=22, a_max=48, rho=rho, rate_power=rate_power, visits=visits,
    )
    assert risky > 0
    assert np.array_equal(report.table.values, as_array(values, metric, 48))
    assert np.array_equal(report.visits, visits_array(visits, metric, 48))
    assert report.final_epsilon == eps
    assert report.risky_transitions == risky


probability = st.one_of(st.just(1.0), st.floats(min_value=1e-3, max_value=1.0))
gate = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(min_value=0.0, max_value=1.0))
weight = st.floats(min_value=0.0, max_value=4.0)


@st.composite
def aoii_specs(draw):
    """An aoii spec with p and lam in [1e-3, 1] and p_r at or between 0 and 1."""
    nu, alpha, beta = draw(st.tuples(weight, weight, weight))
    return EnvSpec(
        "aoii",
        SystemParams(p=draw(probability), lam=draw(probability), nu=nu, alpha=alpha, beta=beta),
        RiskSpec(zeta_aoii=draw(st.integers(min_value=1, max_value=9))),
        source=SourceSpec(p_r=draw(gate)),
    )


# A failing example replays up to 2 * BLOCK + 5 steps through both loops, so
# shrinking it would take minutes; the first failure is reported instead.
@settings(deadline=None, max_examples=40, phases=tuple(phase for phase in Phase if phase is not Phase.shrink))
@given(
    spec=aoii_specs(),
    rho=st.sampled_from([0.0, 1.0, 2.5]),
    rate_power=st.one_of(st.none(), st.floats(min_value=0.5, max_value=1.0, exclude_min=True)),
    epsilon_min=st.floats(min_value=0.0, max_value=0.9),
    a_max=st.integers(min_value=2, max_value=40),
    steps=st.sampled_from([1, 2, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 5]),
    warmup=st.sampled_from([0, 1, 7]),
    action=st.sampled_from([WAIT, SEND]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_mismatch_training_equals_the_textbook_loop_over_env_step(
    spec, rho, rate_power, epsilon_min, a_max, steps, warmup, action, seed,
):
    """train advances the aoii chain without calling env.step.  Its table,
    visits, final epsilon and risky count equal the dict loop's over
    env.step bit for bit, from any state the env has reached and across
    stream blocks, and both envs then take the same next step."""
    trained, stepped = spec.build(seed), spec.build(seed)
    for k in range(warmup):
        trained.step(SEND if k % 3 else WAIT)
        stepped.step(SEND if k % 3 else WAIT)
    params = LearningParams(
        steps=steps, rho=rho, rate_power=rate_power, epsilon_min=epsilon_min, a_max=a_max,
    )
    report = train(trained, params, seed=seed)
    visits: dict[tuple, int] = {}
    values, eps, risky = textbook_qlearning(
        stepped, steps, seed=seed, epsilon_min=epsilon_min, a_max=a_max, rho=rho,
        rate_power=rate_power, visits=visits,
    )
    assert report.table.values.tobytes() == as_array(values, "aoii", a_max).tobytes()
    assert np.array_equal(report.visits, visits_array(visits, "aoii", a_max))
    assert report.final_epsilon == eps
    assert report.risky_transitions == risky
    assert trained.state == stepped.state
    assert trained.step(action) == stepped.step(action)


def test_risk_factor_changes_learning():
    spec_plain = LearningParams(steps=20_000, rho=1.0, a_max=64)
    spec_risk = LearningParams(steps=20_000, rho=2.0, a_max=64)
    plain = train(AoiEnv(EnvSpec(), seed=123), spec_plain, seed=456)
    risk = train(AoiEnv(EnvSpec(), seed=123), spec_risk, seed=456)
    assert not np.array_equal(plain.table.values, risk.table.values)


def test_visit_count_rate_schedule_first_update():
    """With the polynomial schedule the very first update overwrites outright."""
    params = SystemParams(p=1.0, lam=1.0)
    spec = LearningParams(steps=1, rate_power=1.0, a_max=8)
    report = train(AoiEnv(EnvSpec(params=params), seed=0), spec, seed=17)
    # replay the single decision to find which action the learner explored
    rng = np.random.default_rng(17)
    assert rng.random() < 0.9  # exploring on the first step
    action = SEND if rng.random() < 0.5 else WAIT
    env = AoiEnv(EnvSpec(params=params), seed=0)
    out = env.step(action)
    # rate = 1/(1+0) = 1, empty bootstrap: the entry becomes the raw cost
    assert report.table.values[0, 1, action] == out.cost
    assert int(report.visits.sum()) == 1


def test_greedy_policy_reads_learned_table():
    report = train(AoiEnv(EnvSpec(), seed=1), LearningParams(steps=30_000, a_max=32), seed=2)
    policy = GreedyPolicy(report.table)
    # with a fresh sender packet and an old receiver picture, sending is the
    # only sane learned choice
    assert policy.decide((0, 20)) == SEND
