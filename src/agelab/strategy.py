"""Decision rules: fixed thresholds, random senders and greedy table readers."""

from __future__ import annotations

import numpy as np

from .env import SEND, WAIT, AoIIState, AoIState

__all__ = [
    "ThresholdPolicy",
    "AoiiThresholdPolicy",
    "RandomPolicy",
    "GreedyPolicy",
]


class ThresholdPolicy:
    """Send exactly when the receiver's age exceeds the sender's by at least n.

    The difference ``aoi_rx - aoi_tx`` is the age reduction a delivered
    attempt would buy, so the rule spends energy only when the gain is
    worth at least n.
    """

    def __init__(self, n: int) -> None:
        if n < 1:
            raise ValueError(f"threshold must be at least 1, got {n}")
        self.n = n
        self.name = f"threshold({n})"

    def decide(self, state: AoIState) -> int:
        return SEND if state.aoi_rx - state.aoi_tx >= self.n else WAIT


class AoiiThresholdPolicy:
    """Send exactly when the mismatch age is at least theta.

    A threshold of zero sends every step, including from synced states.
    """

    def __init__(self, theta: int) -> None:
        if theta < 0:
            raise ValueError(f"theta must be nonnegative, got {theta}")
        self.theta = theta
        self.name = f"aoii-threshold({theta})"

    def decide(self, state: AoIIState) -> int:
        return SEND if state.aoii >= self.theta else WAIT


class RandomPolicy:
    """Send with a fixed probability, ignoring the state.

    The caller supplies the random stream, so seeded comparisons stay
    reproducible and no hidden global state is involved.
    """

    def __init__(self, send_prob: float, rng: np.random.Generator) -> None:
        if not 0.0 <= send_prob <= 1.0:
            raise ValueError(f"send_prob must be in [0, 1], got {send_prob}")
        self.send_prob = send_prob
        self.rng = rng
        self.name = f"random({send_prob:g})"

    def decide(self, state) -> int:
        return SEND if self.rng.random() < self.send_prob else WAIT


class GreedyPolicy:
    """Read actions out of a learned value table, clamping unseen states.

    The policy reads the ``values`` array the table holds when the policy is
    built, in place through a flat view, so later updates to its entries
    show in the decisions.
    """

    def __init__(self, table) -> None:
        self.table = table
        self.name = f"greedy({table.metric})"
        self._slot = table.wait_slot()
        view = memoryview(table.values)
        self._flat = view.cast("B").cast(view.format)

    def decide(self, state) -> int:
        """Pick the action with the lower estimated cost; ties wait to save energy."""
        flat = self._flat
        slot = self._slot(state)
        return SEND if flat[slot + 1] < flat[slot] else WAIT
