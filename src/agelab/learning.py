"""Tabular Q-learning with optional risk-scaled costs.

The learner is ordinary epsilon-greedy Q-learning over the clamped state
table; the only risk-specific ingredient is that the cost of a transition
landing in a risky state is multiplied by rho before the update.  rho = 1
recovers the plain learner exactly, bit for bit under a shared seed.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .env import SEND, WAIT, AoiEnv, AoiiEnv, AoIIState, AoIState

__all__ = [
    "QTable",
    "LearningParams",
    "TrainReport",
    "A_MAX_LIMIT",
    "train",
]

# Largest accepted age clamp.  The aoi table and the training grid hold
# (a_max + 1)**2 cells, so memory grows quadratically: training at 1024
# peaks near 220 MB, at 2048 near 780 MB.
A_MAX_LIMIT = 1024


def _check_a_max(a_max: int) -> None:
    if a_max < 2:
        raise ValueError(f"a_max must be at least 2, got {a_max}")
    if a_max > A_MAX_LIMIT:
        raise ValueError(
            f"a_max must be at most {A_MAX_LIMIT}, got {a_max}: the value table grows "
            f"as a_max**2 and training at {A_MAX_LIMIT} already takes about 220 MB"
        )


@dataclass
class QTable:
    """Estimated action costs over the clamped state grid.

    For the age metrics the grid covers sender ages 0..a_max and receiver
    ages 1..a_max; for the mismatch metric it covers mismatch ages
    0..a_max, where age zero is the synced state.  States beyond the grid
    are clamped to the boundary on lookup.
    """

    metric: str
    a_max: int
    values: np.ndarray

    @classmethod
    def zeros(cls, metric: str, a_max: int) -> QTable:
        if metric not in ("aoi", "qaoi", "aoii"):
            raise ValueError(f"unknown metric {metric!r}")
        _check_a_max(a_max)
        if metric == "aoii":
            shape: tuple[int, ...] = (a_max + 1, 2)
        else:
            shape = (a_max + 1, a_max + 1, 2)
        return cls(metric=metric, a_max=a_max, values=np.zeros(shape))

    def index(self, state: AoIState | AoIIState) -> tuple[int, ...]:
        if self.metric == "aoii":
            return (min(state.aoii, self.a_max),)
        return (min(state.aoi_tx, self.a_max), min(state.aoi_rx, self.a_max))

    def action_values(self, state) -> tuple[float, float]:
        cell = self.values[self.index(state)]
        return (cell[WAIT], cell[SEND])

    def dump_csv(self, path: str | Path) -> None:
        """Write every grid entry; floats use repr so reloading is exact."""
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            if self.metric == "aoii":
                writer.writerow(["synced", "aoii", "action", "q_value"])
                for age in range(self.a_max + 1):
                    for action in (WAIT, SEND):
                        synced = 1 if age == 0 else 0
                        writer.writerow([synced, age, action, repr(float(self.values[age, action]))])
            else:
                writer.writerow(["aoi_tx", "aoi_rx", "action", "q_value"])
                for tx in range(self.a_max + 1):
                    for rx in range(1, self.a_max + 1):
                        for action in (WAIT, SEND):
                            writer.writerow(
                                [tx, rx, action, repr(float(self.values[tx, rx, action]))]
                            )

    @classmethod
    def load_csv(cls, path: str | Path, metric: str | None = None) -> QTable:
        with open(path, newline="") as handle:
            reader = csv.reader(handle)
            header = next(reader)
            rows = [row for row in reader if row]
        if header[0] == "synced":
            inferred = "aoii"
            a_max = max(int(row[1]) for row in rows)
            table = cls.zeros(inferred, a_max)
            for _, age, action, value in rows:
                table.values[int(age), int(action)] = float(value)
        elif header[0] == "aoi_tx":
            inferred = "aoi"
            a_max = max(int(row[0]) for row in rows)
            table = cls.zeros(inferred, a_max)
            for tx, rx, action, value in rows:
                table.values[int(tx), int(rx), int(action)] = float(value)
        else:
            raise ValueError(f"unrecognized table header {header!r}")
        if metric is not None:
            if metric not in ("aoi", "qaoi", "aoii"):
                raise ValueError(f"unknown metric {metric!r}")
            table.metric = metric
        return table


@dataclass(frozen=True)
class LearningParams:
    """Hyperparameters of the tabular learner.

    rate is the constant learning rate; when rate_power is set the learner
    instead uses 1 / (1 + visits(s, a)) ** rate_power per pair.  With
    strict_query_cost the whole step cost (not just the age term) is zeroed
    on non-query steps of the query-gated metric.
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
    strict_query_cost: bool = False

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
        if not 0.0 < self.rate <= 1.0:
            raise ValueError(f"rate must be in (0, 1], got {self.rate}")
        if self.rate_power is not None and self.rate_power <= 0.0:
            raise ValueError(f"rate_power must be positive, got {self.rate_power}")
        if self.rho < 0.0:
            raise ValueError(f"rho must be nonnegative, got {self.rho}")
        _check_a_max(self.a_max)


@dataclass
class TrainReport:
    """Result of one training run."""

    table: QTable
    visits: np.ndarray
    final_epsilon: float
    epsilon_trace: list[tuple[int, float]] = field(repr=False)
    risky_transitions: int = 0
    steps: int = 0


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
    """
    a_cap = params.a_max
    metric = env.metric
    if metric == "aoii":
        # cell layout: [q_wait, q_send, visits_wait, visits_send]
        grid = [[0.0, 0.0, 0, 0] for _ in range(a_cap + 1)]

        def cell_of(state: AoIIState):
            age = state.aoii
            return grid[age if age < a_cap else a_cap]

    else:
        rows = [[[0.0, 0.0, 0, 0] for _ in range(a_cap + 1)] for _ in range(a_cap + 1)]

        def cell_of(state: AoIState):
            tx, rx = state
            return rows[tx if tx < a_cap else a_cap][rx if rx < a_cap else a_cap]

    rng = np.random.default_rng(seed)
    uniform = rng.random
    gamma = params.gamma
    rho = params.rho
    const_rate = params.rate if params.rate_power is None else None
    rate_power = params.rate_power
    epsilon0 = params.epsilon0
    delta = params.delta
    epsilon_min = params.epsilon_min
    strict = params.strict_query_cost and metric == "qaoi"
    trace_every = max(1, params.steps // 10)
    step = env.step
    cell = cell_of(env.state)
    eps = epsilon0
    risky_seen = 0
    trace: list[tuple[int, float]] = []
    for i in range(1, params.steps + 1):
        if uniform() < eps:
            action = SEND if uniform() < 0.5 else WAIT
        else:
            action = SEND if cell[1] < cell[0] else WAIT
        eps = epsilon0 * delta**i
        if eps < epsilon_min:
            eps = epsilon_min
        out = step(action)
        cost = out.cost
        if strict and not out.query:
            cost = 0.0
        if out.risky:
            risky_seen += 1
            cost = rho * cost
        ncell = cell_of(out.next_state)
        bootstrap = ncell[0] if ncell[0] <= ncell[1] else ncell[1]
        if const_rate is None:
            rate = 1.0 / (1.0 + cell[2 + action]) ** rate_power
        else:
            rate = const_rate
        cell[action] = (1.0 - rate) * cell[action] + rate * (cost + gamma * bootstrap)
        cell[2 + action] += 1
        cell = ncell
        if i % trace_every == 0:
            trace.append((i, eps))
    table = QTable.zeros(metric, a_cap)
    visits = np.zeros(table.values.shape, dtype=np.int64)
    if metric == "aoii":
        packed = np.asarray(grid)
    else:
        packed = np.asarray(rows)
    table.values[...] = packed[..., :2]
    visits[...] = packed[..., 2:].astype(np.int64)
    return TrainReport(
        table=table,
        visits=visits,
        final_epsilon=eps,
        epsilon_trace=trace,
        risky_transitions=risky_seen,
        steps=params.steps,
    )
