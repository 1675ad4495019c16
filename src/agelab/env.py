"""Step simulators for the three age metrics over an unreliable channel.

States are kept exact and unbounded here; only the learning module clamps
them to a finite table.  Each environment draws its random events from
independent substreams (arrivals, channel, queries, source moves), so two
environments built from the same seed produce identical event sequences and
changing the policy never perturbs the events themselves.

That independence is what ``threshold_rollouts`` uses: it draws one seed's
events once, a block at a time, and steps every threshold policy of a sweep
over them.  Each of its lanes equals ``run_policy`` of that threshold policy
on a fresh environment of the same seed, bit for bit, because it sees the
same events and adds up the same costs in the same order.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, repeat
from typing import Final, Iterator, NamedTuple, Protocol, Sequence

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
    "threshold_rollouts",
]

WAIT: Final[int] = 0
SEND: Final[int] = 1


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

    ``success`` is True only for a delivered send attempt.
    """

    next_state: AoIState | AoIIState
    cost: float
    risky: bool
    sent: bool
    success: bool


# Uniform draws are taken from a generator this many at a time.
BLOCK: Final[int] = 8192


def uniform_stream(rng: np.random.Generator, block: int = BLOCK) -> Iterator[float]:
    """Endless uniform [0, 1) draws, ``next()`` at a time.

    The values are exactly those of repeated ``rng.random()`` calls; they are
    drawn a block at a time, which makes one draw about ten times cheaper.
    """
    return chain.from_iterable(iter(lambda: rng.random(block).tolist(), None))


def _substreams(seed: int | np.random.SeedSequence) -> list[np.random.Generator]:
    """The arrival, channel, query and source generators derived from one seed."""
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    # Children are built by explicit spawn key rather than spawn(), so
    # deriving them twice from one SeedSequence replays the same substreams
    # (spawn() would advance the parent's child counter).
    return [
        np.random.default_rng(
            np.random.SeedSequence(entropy=seed.entropy, spawn_key=seed.spawn_key + (i,))
        )
        for i in range(4)
    ]


class EventStreams:
    """Independent per-event-type substreams derived from one seed."""

    __slots__ = ("arrival", "channel", "query", "source")

    def __init__(self, seed: int | np.random.SeedSequence) -> None:
        self.arrival, self.channel, self.query, self.source = map(
            uniform_stream, _substreams(seed)
        )


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
        self.seed = seed
        self._streams = EventStreams(seed)
        self.state: AoIState = INITIAL_AOI

    def step(self, action: int) -> StepOutcome:
        params = self.params
        streams = self._streams
        arrival = next(streams.arrival) < params.lam
        channel_ok = next(streams.channel) < params.p
        sent = action == SEND
        nxt = aoi_transition(self.state, action, arrival, channel_ok)
        age = nxt[1]
        if self.query is None:
            risky = age >= self.zeta
        else:
            query = next(streams.query) < self.query.q
            risky = query and age >= self.zeta
            if not query:
                age = 0
        self.state = nxt
        cost = step_cost(age, sent, params)
        return _new(StepOutcome, (nxt, cost, risky, sent, sent and channel_ok))


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
        self.seed = seed
        self._streams = EventStreams(seed)
        self.state: AoIIState = INITIAL_AOII

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
        cost = step_cost(age, sent, params)
        return _new(StepOutcome, (nxt, cost, age >= self.zeta_aoii, sent, sent and channel_ok))


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
        out = step(decide(state))
        state = out.next_state
        cost_sum += out.cost
        if out.risky:
            risky_count += 1
        if out.sent:
            send_count += 1
    return TrajectoryStats(
        steps=horizon,
        avg_cost=cost_sum / horizon,
        risky_freq=risky_count / horizon,
        send_count=send_count,
    )


def _age_lane(n, rx, cost_sum, risky, sends, txs, oks, asks, alpha, bn, zeta):
    """One ThresholdPolicy(n) over a block; txs holds the sender age before each step."""
    for tx, ok, asked in zip(txs, oks, asks):
        if rx - tx >= n:
            sends += 1
            rx = tx + 1 if ok else rx + 1
            age = rx if asked else 0
            cost_sum += alpha * age + bn
        else:
            rx += 1
            age = rx if asked else 0
            cost_sum += alpha * age
        if age >= zeta:
            risky += 1
    return rx, cost_sum, risky, sends


def _mismatch_lane(theta, age, cost_sum, risky, sends, oks, keeps, returns, alpha, bn, zeta):
    """One AoiiThresholdPolicy(theta) over a block; a state is synced exactly at age 0."""
    for ok, keep, back in zip(oks, keeps, returns):
        if age >= theta:
            sends += 1
            age = 0 if ok or (back if age else keep) else age + 1
            cost_sum += alpha * age + bn
        else:
            age = 0 if (back if age else keep) else age + 1
            cost_sum += alpha * age
        if age >= zeta:
            risky += 1
    return age, cost_sum, risky, sends


def threshold_rollouts(
    env: AoiEnv | AoiiEnv, thresholds: Sequence[int], horizon: int
) -> list[TrajectoryStats]:
    """Roll out one threshold policy per entry of ``thresholds`` on the events of env's seed.

    Entry i equals ``run_policy`` of ``ThresholdPolicy(thresholds[i])`` (of
    ``AoiiThresholdPolicy`` for aoii) on a freshly built env with the same
    settings and seed, bit for bit.  env is read for its settings and seed
    only; it is not stepped.  The events are drawn one block of ``BLOCK`` per
    substream at a time and turned into booleans once, and every policy then
    steps through them with its own state, cost sum and counts carried across
    blocks, so memory does not grow with the horizon.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be at least 1, got {horizon}")
    params = env.params
    alpha, bn = params.alpha, params.beta * params.nu
    arrival_rng, channel_rng, query_rng, source_rng = _substreams(env.seed)
    if env.metric == "aoii":
        zeta = env.zeta_aoii
        lanes = [[theta, INITIAL_AOII[1], 0.0, 0, 0] for theta in thresholds]
    else:
        zeta = env.zeta
        lanes = [[n, INITIAL_AOI[1], 0.0, 0, 0] for n in thresholds]
    tx = INITIAL_AOI[0]
    for start in range(0, horizon, BLOCK):
        size = min(BLOCK, horizon - start)
        oks = (channel_rng.random(size) < params.p).tolist()
        if env.metric == "aoii":
            source = source_rng.random(size)
            keeps = (source < env.source.p_r).tolist()
            returns = (source < env.source.p_c).tolist()
            for lane in lanes:
                lane[1:] = _mismatch_lane(*lane, oks, keeps, returns, alpha, bn, zeta)
        else:
            # The sender age after step t is the number of steps since the
            # last arrival; the age carried into the block counts as an
            # arrival that many steps before it.
            steps = np.arange(1, size + 1)
            arrivals = arrival_rng.random(size) < params.lam
            after = steps - np.maximum.accumulate(np.where(arrivals, steps, -tx))
            txs = [tx, *after[:-1].tolist()]
            tx = int(after[-1])
            if env.query is None:
                asks = repeat(True)
            else:
                asks = (query_rng.random(size) < env.query.q).tolist()
            for lane in lanes:
                lane[1:] = _age_lane(*lane, txs, oks, asks, alpha, bn, zeta)
    return [
        TrajectoryStats(
            steps=horizon,
            avg_cost=cost_sum / horizon,
            risky_freq=risky / horizon,
            send_count=sends,
        )
        for _, _, cost_sum, risky, sends in lanes
    ]
