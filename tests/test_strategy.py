"""Decision rules: threshold boundaries, random draws, greedy table reads."""

import numpy as np
import pytest

from agelab.env import SEND, WAIT
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
    table = QTable("aoi", 8, np.zeros((9, 9, 2)))
    policy = GreedyPolicy(table)
    state = (1, 4)
    table.values[1, 4, WAIT] = 2.0
    table.values[1, 4, SEND] = 1.0
    assert policy.decide(state) == SEND
    table.values[1, 4, SEND] = 2.0
    assert policy.decide(state) == WAIT
    table.values[1, 4, SEND] = 3.0
    assert policy.decide(state) == WAIT


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
