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
    """Read actions out of a learned value table, clamping unseen states.

    The policy reads the ``values`` array the table holds when the policy is
    built, in place through a flat view, so later updates to its entries
    show in the decisions.  A kernel lane (``kernels.rollouts``) reads
    ``send_bits()`` once, when its rollout starts, so it rolls out the table
    frozen as it was then.
    """

    def __init__(self, table) -> None:
        self._slot = table.wait_slot()
        self._values = table.values
        view = memoryview(table.values)
        self._flat = view.cast("B").cast(view.format)

    def send_bits(self) -> np.ndarray:
        """Whether each cell of the table sends now, in the table's cell
        layout: its send entry is below its wait entry; ties wait."""
        return self._values[..., SEND] < self._values[..., WAIT]

    def decide(self, state) -> int:
        """Pick the action with the lower estimated cost; ties wait to save energy."""
        flat = self._flat
        slot = self._slot(state)
        return SEND if flat[slot + 1] < flat[slot] else WAIT
