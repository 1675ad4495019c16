"""Decision rules: threshold boundaries, random draws, greedy table reads."""

import numpy as np
import pytest

from agelab.env import SEND, WAIT, EnvSpec
from agelab.kernels import rollouts
from agelab.learning import QTable
from agelab.strategy import (
    AoiiThresholdPolicy,
    GreedyPolicy,
    RandomPolicy,
    ThresholdPolicy,
)


def test_threshold_policy_boundary():
    policy = ThresholdPolicy(3)
    assert policy.decide((0, 3)) == SEND
    assert policy.decide((0, 2)) == WAIT
    assert policy.decide((2, 5)) == SEND
    assert policy.decide((3, 5)) == WAIT
    assert policy.decide((4, 4)) == WAIT


def test_threshold_policy_sends_on_gain_not_raw_age():
    """A huge receiver age alone is not enough when the packet is equally old."""
    policy = ThresholdPolicy(1)
    assert policy.decide((50, 50)) == WAIT
    assert policy.decide((49, 50)) == SEND


def test_threshold_policy_rejects_nonpositive():
    with pytest.raises(ValueError):
        ThresholdPolicy(0)


def test_aoii_threshold_boundary():
    policy = AoiiThresholdPolicy(2)
    assert policy.decide((False, 2)) == SEND
    assert policy.decide((False, 1)) == WAIT
    assert policy.decide((True, 0)) == WAIT
    zero = AoiiThresholdPolicy(0)
    assert zero.decide((True, 0)) == SEND
    with pytest.raises(ValueError):
        AoiiThresholdPolicy(-1)


def test_random_policy_uses_caller_stream():
    rng = np.random.default_rng(8)
    policy = RandomPolicy(0.5, rng)
    actions = [policy.decide((0, 1)) for _ in range(2000)]
    twin = np.random.default_rng(8)
    expected = [SEND if twin.random() < 0.5 else WAIT for _ in range(2000)]
    assert actions == expected
    assert 0.4 < sum(actions) / 2000 < 0.6


def test_random_policy_extremes():
    rng = np.random.default_rng(0)
    assert all(RandomPolicy(1.0, rng).decide((0, 1)) == SEND for _ in range(20))
    assert all(RandomPolicy(0.0, rng).decide((0, 1)) == WAIT for _ in range(20))
    with pytest.raises(ValueError):
        RandomPolicy(1.5, rng)


def test_greedy_policy_prefers_lower_cost_and_ties_wait():
    state = (1, 4)
    for send_value, action in [(1.0, SEND), (2.0, WAIT), (3.0, WAIT)]:
        table = QTable("aoi", 8, np.zeros((9, 9, 2)))
        table.values[1, 4, WAIT] = 2.0
        table.values[1, 4, SEND] = send_value
        assert GreedyPolicy(table).decide(state) == action


def test_greedy_policy_clamps_unseen_states():
    """Ages beyond the table fall back to the boundary entry."""
    table = QTable("aoi", 4, np.zeros((5, 5, 2)))
    table.values[4, 4, WAIT] = 5.0
    table.values[4, 4, SEND] = 1.0
    policy = GreedyPolicy(table)
    assert policy.decide((9, 30)) == SEND


def test_greedy_policy_reads_aoii_tables():
    table = QTable("aoii", 6, np.zeros((7, 2)))
    table.values[3, SEND] = -1.0
    policy = GreedyPolicy(table)
    assert policy.decide((False, 3)) == SEND
    assert policy.decide((False, 2)) == WAIT


def test_greedy_policy_is_fixed_when_built():
    """Edits to the table after the policy is built change neither its
    decisions nor its kernel lane; a policy built after the edit sees it."""
    spec = EnvSpec("aoii")
    table = QTable("aoii", 6, np.zeros((7, 2)))
    table.values[2:, SEND] = -1.0
    policy = GreedyPolicy(table)
    states = [(age == 0, age) for age in range(10)]
    decisions = [policy.decide(state) for state in states]
    lane = rollouts(spec, 3, [policy], 500)
    table.values[..., SEND] = 1.0
    table.values[0, SEND] = -1.0
    assert [policy.decide(state) for state in states] == decisions
    assert rollouts(spec, 3, [policy], 500) == lane
    edited = GreedyPolicy(table)
    assert [edited.decide(state) for state in states] == [SEND] + [WAIT] * 9
    assert rollouts(spec, 3, [edited], 500) != lane


@pytest.mark.parametrize("metric", ["aoi", "aoii"])
@pytest.mark.parametrize("a_max", [2, 3, 5])
def test_greedy_decide_reads_sends_at_the_clamped_cell(metric, a_max):
    """Over every age up to a_max + 3, a decision is the send bit of the
    clamped cell, which is set exactly where send costs less than wait."""
    rng = np.random.default_rng(a_max)
    cells = (a_max + 1,) if metric == "aoii" else (a_max + 1, a_max + 1)
    # three entry values, so about a third of the cells tie
    table = QTable(metric, a_max, rng.integers(0, 3, cells + (2,)).astype(float))
    policy = GreedyPolicy(table)
    assert np.array_equal(policy.sends, table.values[..., SEND] < table.values[..., WAIT])
    ages = range(a_max + 4)
    for first in [0] if metric == "aoii" else ages:
        for age in ages:
            if metric == "aoii":
                state, cell = (age == 0, age), min(age, a_max)
            else:
                state, cell = (first, age), (min(first, a_max), min(age, a_max))
            assert policy.decide(state) == (SEND if policy.sends[cell] else WAIT)
