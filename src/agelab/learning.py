"""Tabular Q-learning with optional risk-scaled costs.

The learner is ordinary epsilon-greedy Q-learning over the clamped state
table; the only risk-specific ingredient is that the cost of a transition
landing in a risky state is multiplied by rho before the update.  rho = 1
recovers the plain learner exactly, bit for bit under a shared seed.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from .env import INITIAL_AOII, SEND, WAIT, AoiEnv, AoiiEnv, _seed_sequence, uniform_stream

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "QTable",
    "LearningParams",
    "TrainReport",
    "A_MAX_LIMIT",
    "train",
]

# Largest accepted age clamp.  The aoi table holds (a_max + 1)**2 cells, so
# memory grows quadratically: `agelab train --learn-steps 1000` peaks near
# 100 MB of RSS at 1024 and near 290 MB at 2048.
A_MAX_LIMIT = 1024


def _check_a_max(a_max: int) -> None:
    if a_max < 2:
        raise ValueError(f"a_max must be at least 2, got {a_max}")
    if a_max > A_MAX_LIMIT:
        raise ValueError(
            f"a_max must be at most {A_MAX_LIMIT}, got {a_max}: the value table grows "
            f"as a_max**2 and training at {A_MAX_LIMIT} already takes about 100 MB"
        )


def _table_shape(metric: str, a_max: int) -> tuple[int, ...]:
    if metric == "aoii":
        return (a_max + 1, 2)
    return (a_max + 1, a_max + 1, 2)


@dataclass
class QTable:
    """Estimated action costs over the clamped state grid.

    For the age metrics the grid covers sender ages 0..a_max and receiver
    ages 1..a_max; for the mismatch metric it covers mismatch ages
    0..a_max, where age zero is the synced state.  ``GreedyPolicy`` reads
    states beyond the grid at the boundary cell.
    """

    metric: str
    a_max: int
    values: np.ndarray

    def dump_csv(self, path: str | Path) -> None:
        """Write every grid entry as a CSV row; floats use repr so parsing them back is exact."""
        # The rows are what csv.writer writes (no field ever needs quoting),
        # formatted directly and one sender age at a time to bound memory.
        with open(path, "w", newline="") as handle:
            write = handle.write
            if self.metric == "aoii":
                write("synced,aoii,action,q_value\r\n")
                for age, (wait, send) in enumerate(self.values.tolist()):
                    synced = 1 if age == 0 else 0
                    write(f"{synced},{age},{WAIT},{wait!r}\r\n{synced},{age},{SEND},{send!r}\r\n")
            else:
                write("aoi_tx,aoi_rx,action,q_value\r\n")
                # a sender age's rows are "rx,action," and the value, joined
                # with the line break and the next row's sender age
                prefixes = [f"{rx},{action}," for rx in range(1, self.a_max + 1) for action in (WAIT, SEND)]
                for tx in range(self.a_max + 1):
                    row = self.values[tx, 1:].reshape(-1).tolist()
                    lines = f"\r\n{tx},".join(map(operator.add, prefixes, map(repr, row)))
                    write(f"{tx},{lines}\r\n")


@dataclass(frozen=True)
class LearningParams:
    """Hyperparameters of the tabular learner.

    rate is the constant learning rate; when rate_power is set the learner
    instead uses 1 / (1 + visits(s, a)) ** rate_power per pair.
    """

    steps: int = 100_000
    gamma: float = 0.7
    epsilon0: float = 0.9
    delta: float = 0.999
    epsilon_min: float = 0.0
    rate: float = 0.1
    rate_power: float | None = None
    rho: float = 2.0
    a_max: int = 128

    def __post_init__(self) -> None:
        if self.steps < 1:
            raise ValueError(f"steps must be at least 1, got {self.steps}")
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError(f"gamma must be in [0, 1), got {self.gamma}")
        if not 0.0 <= self.epsilon0 <= 1.0:
            raise ValueError(f"epsilon0 must be in [0, 1], got {self.epsilon0}")
        if not 0.0 < self.delta <= 1.0:
            raise ValueError(f"delta must be in (0, 1], got {self.delta}")
        if not 0.0 <= self.epsilon_min <= 1.0:
            raise ValueError(f"epsilon_min must be in [0, 1], got {self.epsilon_min}")
        # a floor above the start would explore below it until epsilon0 * delta**i reached it
        if self.epsilon_min > self.epsilon0:
            raise ValueError(
                f"epsilon_min must be at most epsilon0 ({self.epsilon0}), got {self.epsilon_min}"
            )
        if not 0.0 < self.rate <= 1.0:
            raise ValueError(f"rate must be in (0, 1], got {self.rate}")
        if self.rate_power is not None and not self.rate_power > 0.0:
            raise ValueError(f"rate_power must be positive, got {self.rate_power}")
        if not self.rho >= 0.0:
            raise ValueError(f"rho must be nonnegative, got {self.rho}")
        # an infinite multiplier times a risky cost of 0 is nan
        if self.rho == math.inf:
            raise ValueError(f"rho must be finite, got {self.rho}")
        _check_a_max(self.a_max)


@dataclass
class TrainReport:
    """Result of one training run."""

    table: QTable
    visits: np.ndarray
    final_epsilon: float
    risky_transitions: int


def train(
    env: AoiEnv | AoiiEnv,
    params: LearningParams,
    seed: int | np.random.SeedSequence = 0,
) -> TrainReport:
    """Run epsilon-greedy Q-learning on a fresh environment.

    Exploration draws come from their own generator seeded by ``seed``, so
    identical (env seed, train seed) pairs replay identically.  Exactly one
    table entry is touched per step; epsilon follows the closed form
    max(epsilon_min, epsilon0 * delta**i) after i steps.

    An aoi or qaoi env is stepped through ``env.step``.  An aoii env is
    advanced in the loop itself: each step takes the source draw and then
    the channel flag from the env's own streams, exactly as ``AoiiEnv.step``
    does, so the table, the risky count, ``env.state`` and the env's streams
    end as they would after the same steps through ``env.step``.
    """
    import numpy as np

    a_cap = params.a_max
    metric = env.metric
    shape = _table_shape(metric, a_cap)
    # The table and its visit counts as flat lists in the layout of
    # QTable.values.reshape(-1), packed into arrays once training ends.
    q = [0.0] * math.prod(shape)
    visits = [0] * len(q)
    uniform = uniform_stream(np.random.default_rng(_seed_sequence(seed)))
    gamma = params.gamma
    rho = params.rho
    const_rate = params.rate if params.rate_power is None else None
    rate_power = params.rate_power
    epsilon0 = params.epsilon0
    delta = params.delta
    epsilon_min = params.epsilon_min
    aoii = metric == "aoii"
    # A state's wait entry sits at 2 * cell and its send entry at
    # 2 * cell + 1.  The cell is clamped tx * (a_max + 1) + clamped rx for
    # aoi and qaoi, and the clamped mismatch age for aoii, each age clamped
    # at a_max; it is computed inline here, once per step.
    if aoii:
        # AoiiEnv.step's chain and step_cost's arithmetic, with the synced
        # cost (age 0) per action and beta * nu computed once
        source = env._source
        delivered = env._delivered
        p_c, p_r = env._event_prob
        zeta = env.zeta_aoii
        alpha = env.params.alpha
        energy = env.params.beta * env.params.nu
        synced_cost = (alpha * 0, alpha * 0 + energy)
        age = env.state[1]
        here = 2 * (age if age < a_cap else a_cap)
    else:
        # perfbench's traced runs count the env.step calls of aoi and qaoi
        # training, so those metrics keep stepping the env
        step = env.step
        width = a_cap + 1
        tx, rx = env.state
        here = 2 * ((tx if tx < a_cap else a_cap) * width + (rx if rx < a_cap else a_cap))
    eps = epsilon0
    risky_seen = 0
    for i in range(1, params.steps + 1):
        if next(uniform) < eps:
            action = SEND if next(uniform) < 0.5 else WAIT
        else:
            action = SEND if q[here + 1] < q[here] else WAIT
        eps = epsilon0 * delta**i
        if eps < epsilon_min:
            eps = epsilon_min
        if aoii:
            # a source event (p_r when synced, p_c when not), then the
            # channel flag; either a source event or a delivered send syncs
            event = next(source) < (p_c if age else p_r)
            if next(delivered) and action or event:
                # age 0 is never risky: zeta_aoii is at least 1
                age = 0
                cost = synced_cost[action]
                there = 0
            else:
                age += 1
                cost = alpha * age + energy if action else alpha * age
                if age >= zeta:
                    risky_seen += 1
                    cost = rho * cost
                there = 2 * (age if age < a_cap else a_cap)
        else:
            (tx, rx), cost, risky, _, _ = step(action)
            if risky:
                risky_seen += 1
                cost = rho * cost
            there = 2 * ((tx if tx < a_cap else a_cap) * width + (rx if rx < a_cap else a_cap))
        wait_value = q[there]
        send_value = q[there + 1]
        bootstrap = wait_value if wait_value <= send_value else send_value
        entry = here + action
        if const_rate is None:
            rate = 1.0 / (1.0 + visits[entry]) ** rate_power
        else:
            rate = const_rate
        q[entry] = (1.0 - rate) * q[entry] + rate * (cost + gamma * bootstrap)
        visits[entry] += 1
        here = there
    if aoii:
        env.state = INITIAL_AOII if age == 0 else (False, age)
    return TrainReport(
        table=QTable(metric, a_cap, np.array(q).reshape(shape)),
        visits=np.array(visits, dtype=np.int64).reshape(shape),
        final_epsilon=eps,
        risky_transitions=risky_seen,
    )
