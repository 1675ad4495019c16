"""Step simulators for the three age metrics over an unreliable channel.

States are kept exact and unbounded here; only the learning module clamps
them to a finite table.  Each environment draws its random events from
independent substreams (arrivals, channel, queries, source moves), so two
environments built from the same seed produce identical event sequences and
changing the policy never perturbs the events themselves.

An environment reads every setting (metric, channel, safety level, query
or source process) from the ``EnvSpec`` it is built from and keeps no
default of its own; ``spec.build(seed)`` picks ``AoiEnv`` or ``AoiiEnv``
by the spec's metric, and each refuses a spec of the other kind.

A state is a plain tuple: ``(tx, rx)``, the sender and receiver ages, for
aoi and qaoi, and ``(synced, age)``, the mismatch flag and mismatch age,
for aoii.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import TYPE_CHECKING, Final, Iterator, NamedTuple, Protocol

from .params import QuerySpec, RiskSpec, SourceSpec, SystemParams, step_cost

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "WAIT",
    "SEND",
    "EnvSpec",
    "StepOutcome",
    "TrajectoryStats",
    "uniform_stream",
    "AoiEnv",
    "AoiiEnv",
    "aoi_transition",
    "aoii_transition",
    "run_policy",
]

WAIT: Final[int] = 0
SEND: Final[int] = 1


INITIAL_AOI: Final[tuple[int, int]] = (0, 1)
INITIAL_AOII: Final[tuple[bool, int]] = (True, 0)


class Policy(Protocol):
    def decide(self, state) -> int: ...


def aoi_transition(state: tuple[int, int], action: int, arrival: bool, success: bool) -> tuple[int, int]:
    """Next (tx, rx) age pair after one step.

    The sender age resets on an arrival and grows otherwise; the receiver
    age snaps to the delivered packet's age plus one on a successful
    attempt and grows otherwise.
    """
    tx = 0 if arrival else state[0] + 1
    if action == SEND and success:
        return (tx, state[0] + 1)
    return (tx, state[1] + 1)


def aoii_transition(state: tuple[bool, int], action: int, source_event: bool, success: bool) -> tuple[bool, int]:
    """Next (synced, mismatch age) pair after one step.

    ``source_event`` is the sampled source move: from a synced state it
    means the process kept its value (probability p_r), from a mismatched
    state it means the process happened to return to the value the receiver
    holds (probability p_c).  The receiver also becomes synced whenever a
    send attempt is delivered, because the sender always holds the current
    value.
    """
    if source_event or (action == SEND and success):
        return INITIAL_AOII
    return (False, state[1] + 1)


class StepOutcome(NamedTuple):
    """What one simulated step produced.

    ``success`` is True only for a delivered send attempt.
    """

    next_state: tuple[int, int] | tuple[bool, int]
    cost: float
    risky: bool
    sent: bool
    success: bool


# The steps build outcomes with tuple.__new__, which skips the Python-level
# __new__ that NamedTuple classes get.
_new = tuple.__new__


# Uniform draws are taken from a generator this many at a time.
BLOCK: Final[int] = 8192


def uniform_stream(rng: np.random.Generator) -> Iterator[float]:
    """Endless uniform [0, 1) draws, ``next()`` at a time.

    The values are exactly those of repeated ``rng.random()`` calls; they are
    drawn a block at a time, which makes one draw about ten times cheaper.
    """
    return chain.from_iterable(iter(lambda: rng.random(BLOCK).tolist(), None))


def _flags(rng: np.random.Generator, prob: float) -> Iterator[bool]:
    """Endless ``rng.random() < prob`` events, compared a block at a time."""
    return chain.from_iterable(iter(lambda: (rng.random(BLOCK) < prob).tolist(), None))


def _seed_sequence(seed: int | np.random.SeedSequence) -> np.random.SeedSequence:
    """``seed`` as numpy takes it; a negative integer is refused."""
    import numpy as np

    if isinstance(seed, np.random.SeedSequence):
        return seed
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    return np.random.SeedSequence(seed)


def _child(seed: np.random.SeedSequence, i: int) -> np.random.SeedSequence:
    """The i-th child that ``seed.spawn()`` gives; unlike spawn(), deriving it
    twice gives the same child, and no other child is built."""
    import numpy as np

    return np.random.SeedSequence(seed.entropy, spawn_key=seed.spawn_key + (i,))


def _substreams(seed: int | np.random.SeedSequence) -> list[np.random.Generator]:
    """The arrival, channel, query and source generators derived from one seed."""
    import numpy as np

    seed = _seed_sequence(seed)
    return [np.random.default_rng(_child(seed, i)) for i in range(4)]


class AoiEnv:
    """Simulator for the sender/receiver age chain of an aoi or qaoi spec.

    For aoi the per-step cost charges the receiver age every step; for qaoi
    the age term and the risky flag only count on query steps, while energy
    is charged for every attempt.
    """

    def __init__(self, spec: EnvSpec, seed: int | np.random.SeedSequence = 0) -> None:
        if spec.metric == "aoii":
            raise ValueError(f"AoiEnv simulates aoi and qaoi, not {spec.metric}")
        self.params = params = spec.params
        self.zeta = spec.risk.zeta
        query = spec.query if spec.metric == "qaoi" else None
        self.metric = spec.metric
        arrival, channel, asked, _ = _substreams(seed)
        self._arrivals = _flags(arrival, params.lam)
        self._delivered = _flags(channel, params.p)
        self._queries = None if query is None else _flags(asked, query.q)
        self.state: tuple[int, int] = INITIAL_AOI

    def step(self, action: int) -> StepOutcome:
        channel_ok = next(self._delivered)
        sent = action == SEND
        nxt = aoi_transition(self.state, action, next(self._arrivals), channel_ok)
        age = nxt[1]
        if self._queries is None:
            risky = age >= self.zeta
        else:
            query = next(self._queries)
            risky = query and age >= self.zeta
            if not query:
                age = 0
        self.state = nxt
        cost = step_cost(age, sent, self.params)
        return _new(StepOutcome, (nxt, cost, risky, sent, sent and channel_ok))


class AoiiEnv:
    """Simulator for the mismatch-age chain of an aoii spec over the same channel."""

    metric = "aoii"

    def __init__(self, spec: EnvSpec, seed: int | np.random.SeedSequence = 0) -> None:
        if spec.metric != "aoii":
            raise ValueError(f"AoiiEnv simulates aoii, not {spec.metric}")
        self.params = params = spec.params
        source = spec.source
        # probability of a source event, indexed by the synced flag: keeping
        # the value (p_r) when synced, returning to the receiver's (p_c) when not
        self._event_prob = (source.p_c, source.p_r)
        self.zeta_aoii = spec.risk.zeta_aoii
        _, channel, _, source_rng = _substreams(seed)
        self._delivered = _flags(channel, params.p)
        # the source event's probability depends on the state, so its draws
        # stay uniforms and are compared one step at a time
        self._source = uniform_stream(source_rng)
        self.state: tuple[bool, int] = INITIAL_AOII

    def step(self, action: int) -> StepOutcome:
        state = self.state
        source_event = next(self._source) < self._event_prob[state[0]]
        channel_ok = next(self._delivered)
        sent = action == SEND
        nxt = aoii_transition(state, action, source_event, channel_ok)
        age = nxt[1]
        self.state = nxt
        cost = step_cost(age, sent, self.params)
        return _new(StepOutcome, (nxt, cost, age >= self.zeta_aoii, sent, sent and channel_ok))


METRICS = ("aoi", "qaoi", "aoii")


@dataclass(frozen=True)
class EnvSpec:
    """Everything needed to build identical environments from fresh seeds.

    ``query`` only shapes qaoi environments and ``source`` only aoii ones,
    so a spec can be switched to another metric with ``replace`` and keep
    every setting that metric reads.
    """

    metric: str = "aoi"
    params: SystemParams = SystemParams()
    risk: RiskSpec = RiskSpec()
    query: QuerySpec = QuerySpec()
    source: SourceSpec = SourceSpec()

    def __post_init__(self) -> None:
        if self.metric not in METRICS:
            raise ValueError(f"unknown metric {self.metric!r}")

    @property
    def q(self) -> float:
        """The query probability that gates the metric; 1 (ungated) unless it is qaoi."""
        return self.query.q if self.metric == "qaoi" else 1.0

    def build(self, seed: int | np.random.SeedSequence) -> AoiEnv | AoiiEnv:
        return (AoiiEnv if self.metric == "aoii" else AoiEnv)(self, seed)


@dataclass
class TrajectoryStats:
    """Aggregates over one simulated trajectory."""

    steps: int
    avg_cost: float
    risky_freq: float
    send_count: int


def run_policy(env: AoiEnv | AoiiEnv, policy: Policy, horizon: int) -> TrajectoryStats:
    """Roll a policy forward and collect cost, risk and send statistics."""
    if horizon < 1:
        raise ValueError(f"horizon must be at least 1, got {horizon}")
    step = env.step
    decide = policy.decide
    state = env.state
    cost_sum = 0.0
    risky_count = 0
    send_count = 0
    for _ in range(horizon):
        state, cost, risky, sent, _ = step(decide(state))
        cost_sum += cost
        if risky:
            risky_count += 1
        if sent:
            send_count += 1
    return TrajectoryStats(
        steps=horizon,
        avg_cost=cost_sum / horizon,
        risky_freq=risky_count / horizon,
        send_count=send_count,
    )
