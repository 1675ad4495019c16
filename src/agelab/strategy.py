"""Decision rules: fixed thresholds, random senders and greedy table readers."""

from __future__ import annotations

from typing import TYPE_CHECKING

from .env import SEND, WAIT, uniform_stream

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "ThresholdPolicy",
    "AoiiThresholdPolicy",
    "threshold_policy",
    "RandomPolicy",
    "GreedyPolicy",
]


class ThresholdPolicy:
    """Send exactly when the receiver's age exceeds the sender's by at least n.

    The difference ``rx - tx`` of a ``(tx, rx)`` state is the age reduction
    a delivered attempt would buy, so the rule spends energy only when the
    gain is worth at least n.
    """

    def __init__(self, n: int) -> None:
        if n < 1:
            raise ValueError(f"threshold must be at least 1, got {n}")
        self.n = n

    def decide(self, state: tuple[int, int]) -> int:
        return SEND if state[1] - state[0] >= self.n else WAIT


class AoiiThresholdPolicy:
    """Send exactly when the mismatch age of a ``(synced, age)`` state is at least theta.

    A threshold of zero sends every step, including from synced states.
    """

    def __init__(self, theta: int) -> None:
        if theta < 0:
            raise ValueError(f"theta must be nonnegative, got {theta}")
        self.theta = theta

    def decide(self, state: tuple[bool, int]) -> int:
        return SEND if state[1] >= self.theta else WAIT


def threshold_policy(metric: str, value: int) -> ThresholdPolicy | AoiiThresholdPolicy:
    """The threshold policy of ``metric``: theta = value for aoii, n = value otherwise."""
    return AoiiThresholdPolicy(value) if metric == "aoii" else ThresholdPolicy(value)


class RandomPolicy:
    """Send with a fixed probability, ignoring the state.

    The caller supplies the generator, so seeded comparisons stay
    reproducible and no hidden global state is involved.  The policy reads
    it a block at a time: each decision uses the value one ``rng.random()``
    call would give, but the generator is left a block ahead.  A kernel
    lane (``kernels.rollouts``) draws the same values from ``rng`` itself.
    """

    def __init__(self, send_prob: float, rng: np.random.Generator) -> None:
        if not 0.0 <= send_prob <= 1.0:
            raise ValueError(f"send_prob must be in [0, 1], got {send_prob}")
        self.send_prob = send_prob
        self.rng = rng
        self._uniform = uniform_stream(rng)

    def decide(self, state) -> int:
        return SEND if next(self._uniform) < self.send_prob else WAIT


class GreedyPolicy:
    """Act on a learned value table: send where a cell's send entry costs
    less than its wait entry; ties wait to save energy.

    ``sends`` holds that choice for every cell, in the table's cell layout.
    It is computed once, when the policy is built, so later edits to the
    table do not show in the policy.  ``decide`` reads it with every age
    past ``a_max`` clamped to ``a_max``; a kernel lane (``kernels.rollouts``)
    reads the same array.
    """

    def __init__(self, table) -> None:
        values = table.values
        self._a_max = table.a_max
        self.sends = values[..., SEND] < values[..., WAIT]
        self.sends.flags.writeable = False
        # the same bits as bytes, one row per sender age (aoi, qaoi) or one
        # row over mismatch ages (aoii): the cheapest lookup in Python
        if self.sends.ndim == 1:
            self._row, self._rows = self.sends.tobytes(), None
        else:
            self._row, self._rows = None, [row.tobytes() for row in self.sends]

    def decide(self, state) -> int:
        """SEND where the state's cell sends: row tx and column rx of a
        ``(tx, rx)`` state, or the mismatch age of a ``(synced, age)`` one."""
        a_max = self._a_max
        first, age = state
        row = self._row
        if row is None:
            row = self._rows[first if first < a_max else a_max]
        return SEND if row[age if age < a_max else a_max] else WAIT
