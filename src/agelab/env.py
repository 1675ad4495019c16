"""Step simulators for the three age metrics over an unreliable channel.

States are kept exact and unbounded here; only the learning module clamps
them to a finite table.  Each environment draws its random events from
independent substreams (arrivals, channel, queries, source moves), so two
environments built from the same seed produce identical event sequences and
changing the policy never perturbs the events themselves.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Final, Iterator, NamedTuple, Protocol

import numpy as np

from .params import QuerySpec, SourceSpec, SystemParams, step_cost

__all__ = [
    "WAIT",
    "SEND",
    "AoIState",
    "AoIIState",
    "StepOutcome",
    "TrajectoryStats",
    "EventStreams",
    "uniform_stream",
    "AoiEnv",
    "AoiiEnv",
    "aoi_transition",
    "aoii_transition",
    "run_policy",
]

WAIT: Final[int] = 0
SEND: Final[int] = 1


# Both state types keep the age their metric charges in the second slot.
AGE: Final[int] = 1


class AoIState(NamedTuple):
    """Sender and receiver age of the freshest delivered/held update."""

    aoi_tx: int
    aoi_rx: int


class AoIIState(NamedTuple):
    """Mismatch indicator and mismatch age; synced states have age zero."""

    synced: bool
    aoii: int


# The hot paths build states and outcomes with tuple.__new__, which skips
# the Python-level __new__ that NamedTuple classes get.
_new = tuple.__new__


INITIAL_AOI: Final[AoIState] = AoIState(0, 1)
INITIAL_AOII: Final[AoIIState] = AoIIState(True, 0)


class Policy(Protocol):
    name: str

    def decide(self, state) -> int: ...


def aoi_transition(state: AoIState, action: int, arrival: bool, success: bool) -> AoIState:
    """Next age pair after one step.

    The sender age resets on an arrival and grows otherwise; the receiver
    age snaps to the delivered packet's age plus one on a successful
    attempt and grows otherwise.
    """
    tx = 0 if arrival else state[0] + 1
    if action == SEND and success:
        return _new(AoIState, (tx, state[0] + 1))
    return _new(AoIState, (tx, state[1] + 1))


def aoii_transition(state: AoIIState, action: int, source_event: bool, success: bool) -> AoIIState:
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
    return _new(AoIIState, (False, state[1] + 1))


class StepOutcome(NamedTuple):
    """What one simulated step produced.

    ``query`` is only meaningful for the query-gated metric and stays False
    elsewhere; ``success`` is True only for a delivered send attempt.
    """

    next_state: AoIState | AoIIState
    cost: float
    risky: bool
    query: bool
    sent: bool
    success: bool


def uniform_stream(rng: np.random.Generator, block: int = 8192) -> Iterator[float]:
    """Endless uniform [0, 1) draws, ``next()`` at a time.

    The values are exactly those of repeated ``rng.random()`` calls; they are
    drawn a block at a time, which makes one draw about ten times cheaper.
    """
    return chain.from_iterable(iter(lambda: rng.random(block).tolist(), None))


class EventStreams:
    """Independent per-event-type substreams derived from one seed."""

    __slots__ = ("seed_seq", "arrival", "channel", "query", "source")

    def __init__(self, seed: int | np.random.SeedSequence) -> None:
        if isinstance(seed, np.random.SeedSequence):
            self.seed_seq = seed
        else:
            self.seed_seq = np.random.SeedSequence(seed)
        # Children are built by explicit spawn key rather than spawn(), so
        # constructing EventStreams twice from one SeedSequence replays the
        # same substreams (spawn() would advance the parent's child counter).
        arrival, channel, query, source = (
            np.random.SeedSequence(
                entropy=self.seed_seq.entropy,
                spawn_key=self.seed_seq.spawn_key + (i,),
            )
            for i in range(4)
        )
        self.arrival = uniform_stream(np.random.default_rng(arrival))
        self.channel = uniform_stream(np.random.default_rng(channel))
        self.query = uniform_stream(np.random.default_rng(query))
        self.source = uniform_stream(np.random.default_rng(source))


class AoiEnv:
    """Simulator for the sender/receiver age chain.

    Without a QuerySpec the per-step cost charges the receiver age every
    step; with one, the age term and the risky flag only count on query
    steps while energy is charged for every attempt.
    """

    def __init__(
        self,
        params: SystemParams,
        zeta: int = 5,
        query: QuerySpec | None = None,
        seed: int | np.random.SeedSequence = 0,
    ) -> None:
        if zeta < 1:
            raise ValueError(f"zeta must be at least 1, got {zeta}")
        self.params = params
        self.zeta = zeta
        self.query = query
        self.metric = "aoi" if query is None else "qaoi"
        self._streams = EventStreams(seed)
        self.state: AoIState = INITIAL_AOI
        self.steps_taken = 0

    def reset(self) -> AoIState:
        """Restore the initial state and replay the event streams from the seed."""
        self._streams = EventStreams(self._streams.seed_seq)
        self.state = INITIAL_AOI
        self.steps_taken = 0
        return self.state

    def step(self, action: int) -> StepOutcome:
        params = self.params
        streams = self._streams
        arrival = next(streams.arrival) < params.lam
        channel_ok = next(streams.channel) < params.p
        sent = action == SEND
        nxt = aoi_transition(self.state, action, arrival, channel_ok)
        age = nxt[1]
        if self.query is None:
            query = False
            risky = age >= self.zeta
        else:
            query = next(streams.query) < self.query.q
            risky = query and age >= self.zeta
            if not query:
                age = 0
        self.state = nxt
        self.steps_taken += 1
        cost = step_cost(age, sent, params)
        return _new(StepOutcome, (nxt, cost, risky, query, sent, sent and channel_ok))


class AoiiEnv:
    """Simulator for the mismatch-age chain over the same channel."""

    metric = "aoii"

    def __init__(
        self,
        params: SystemParams,
        source: SourceSpec,
        zeta_aoii: int = 3,
        seed: int | np.random.SeedSequence = 0,
    ) -> None:
        if zeta_aoii < 1:
            raise ValueError(f"zeta_aoii must be at least 1, got {zeta_aoii}")
        self.params = params
        self.source = source
        # probability of a source event, indexed by the synced flag: keeping
        # the value (p_r) when synced, returning to the receiver's (p_c) when not
        self._event_prob = (source.p_c, source.p_r)
        self.zeta_aoii = zeta_aoii
        self._streams = EventStreams(seed)
        self.state: AoIIState = INITIAL_AOII
        self.steps_taken = 0

    def reset(self) -> AoIIState:
        self._streams = EventStreams(self._streams.seed_seq)
        self.state = INITIAL_AOII
        self.steps_taken = 0
        return self.state

    def step(self, action: int) -> StepOutcome:
        params = self.params
        streams = self._streams
        state = self.state
        source_event = next(streams.source) < self._event_prob[state[0]]
        channel_ok = next(streams.channel) < params.p
        sent = action == SEND
        nxt = aoii_transition(state, action, source_event, channel_ok)
        age = nxt[1]
        self.state = nxt
        self.steps_taken += 1
        cost = step_cost(age, sent, params)
        return _new(StepOutcome, (nxt, cost, age >= self.zeta_aoii, False, sent, sent and channel_ok))


@dataclass
class TrajectoryStats:
    """Aggregates over one simulated trajectory.

    ``age_histogram`` counts the metric's age value of every step outcome,
    so ``age_histogram[k] / steps`` estimates the long-run frequency of
    age k.
    """

    steps: int
    avg_cost: float
    risky_freq: float
    send_count: int
    age_histogram: dict[int, int]

    def occupancy(self, k: int) -> float:
        return self.age_histogram.get(k, 0) / self.steps


def run_policy(env: AoiEnv | AoiiEnv, policy: Policy, horizon: int) -> TrajectoryStats:
    """Roll a policy forward and collect cost, risk and occupancy statistics."""
    if horizon < 1:
        raise ValueError(f"horizon must be at least 1, got {horizon}")
    step = env.step
    decide = policy.decide
    state = env.state
    cost_sum = 0.0
    risky_count = 0
    send_count = 0
    hist: dict[int, int] = {}
    for _ in range(horizon):
        out = step(decide(state))
        state = out.next_state
        cost_sum += out.cost
        if out.risky:
            risky_count += 1
        if out.sent:
            send_count += 1
        age = state[AGE]
        hist[age] = hist.get(age, 0) + 1
    return TrajectoryStats(
        steps=horizon,
        avg_cost=cost_sum / horizon,
        risky_freq=risky_count / horizon,
        send_count=send_count,
        age_histogram=hist,
    )
