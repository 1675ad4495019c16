"""Decision rules: threshold boundaries, random draws, greedy table reads."""

import numpy as np
import pytest

from agelab.env import SEND, WAIT, AoIIState, AoIState
from agelab.learning import QTable
from agelab.strategy import (
    AoiiThresholdPolicy,
    GreedyPolicy,
    RandomPolicy,
    ThresholdPolicy,
)


def test_threshold_policy_boundary():
    policy = ThresholdPolicy(3)
    assert policy.decide(AoIState(0, 3)) == SEND
    assert policy.decide(AoIState(0, 2)) == WAIT
    assert policy.decide(AoIState(2, 5)) == SEND
    assert policy.decide(AoIState(3, 5)) == WAIT
    assert policy.decide(AoIState(4, 4)) == WAIT
    assert policy.name == "threshold(3)"


def test_threshold_policy_sends_on_gain_not_raw_age():
    """A huge receiver age alone is not enough when the packet is equally old."""
    policy = ThresholdPolicy(1)
    assert policy.decide(AoIState(50, 50)) == WAIT
    assert policy.decide(AoIState(49, 50)) == SEND


def test_threshold_policy_rejects_nonpositive():
    with pytest.raises(ValueError):
        ThresholdPolicy(0)


def test_aoii_threshold_boundary():
    policy = AoiiThresholdPolicy(2)
    assert policy.decide(AoIIState(False, 2)) == SEND
    assert policy.decide(AoIIState(False, 1)) == WAIT
    assert policy.decide(AoIIState(True, 0)) == WAIT
    zero = AoiiThresholdPolicy(0)
    assert zero.decide(AoIIState(True, 0)) == SEND
    with pytest.raises(ValueError):
        AoiiThresholdPolicy(-1)


def test_random_policy_uses_caller_stream():
    rng = np.random.default_rng(8)
    policy = RandomPolicy(0.5, rng)
    actions = [policy.decide(AoIState(0, 1)) for _ in range(2000)]
    twin = np.random.default_rng(8)
    expected = [SEND if twin.random() < 0.5 else WAIT for _ in range(2000)]
    assert actions == expected
    assert 0.4 < sum(actions) / 2000 < 0.6


def test_random_policy_extremes():
    rng = np.random.default_rng(0)
    assert all(RandomPolicy(1.0, rng).decide(AoIState(0, 1)) == SEND for _ in range(20))
    assert all(RandomPolicy(0.0, rng).decide(AoIState(0, 1)) == WAIT for _ in range(20))
    with pytest.raises(ValueError):
        RandomPolicy(1.5, rng)


def test_greedy_policy_prefers_lower_cost_and_ties_wait():
    table = QTable.zeros("aoi", 8)
    policy = GreedyPolicy(table)
    state = AoIState(1, 4)
    table.values[1, 4, WAIT] = 2.0
    table.values[1, 4, SEND] = 1.0
    assert policy.decide(state) == SEND
    table.values[1, 4, SEND] = 2.0
    assert policy.decide(state) == WAIT
    table.values[1, 4, SEND] = 3.0
    assert policy.decide(state) == WAIT


def test_greedy_policy_clamps_unseen_states():
    """Ages beyond the table fall back to the boundary entry."""
    table = QTable.zeros("aoi", 4)
    table.values[4, 4, WAIT] = 5.0
    table.values[4, 4, SEND] = 1.0
    policy = GreedyPolicy(table)
    assert policy.decide(AoIState(9, 30)) == SEND
    assert policy.name == "greedy(aoi)"


def test_greedy_policy_reads_aoii_tables():
    table = QTable.zeros("aoii", 6)
    table.values[3, SEND] = -1.0
    policy = GreedyPolicy(table)
    assert policy.decide(AoIIState(False, 3)) == SEND
    assert policy.decide(AoIIState(False, 2)) == WAIT
