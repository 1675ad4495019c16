"""The block simulator: ``rollouts`` rolls out many policies over one
seed's events at once, and ``threshold_rollouts`` every threshold of a sweep.

It draws the seed's events from the substreams ``spec.build(seed)`` would
use, one block of ``BLOCK`` per substream at a time, and turns them into
next-event tables once per block, shared by every lane.  Under a
threshold policy the receiver age climbs by one each slot and resets only
at a delivery, and the mismatch age resets only at a resync.  So a lane
hops through a block from one delivery (aoii: one loss of sync) to the
next through those tables, with one Python step per hop, and numpy fills
in every slot's age, send, risky flag and cost in between.  An aoii lane
also runs a greedy table, whose send ages are a few runs of thresholds,
and a random sender, the always-sending lane over the slots it sends in.
Each lane equals ``run_policy`` of its policy on ``spec.build(seed)`` bit
for bit: it sees the same events and adds the same costs in the same
order.  aoi and qaoi lanes run threshold policies only.

Masked numpy writes branch on every element, so flags select by
multiplication instead.  Ages are compared as float64 copies, exact for
integers, because numpy has loaded its float64 comparison loops for the
draws already, and each loop a process runs adds its code pages to the
process's resident memory.  Like every agelab module, this one imports
numpy only inside the functions that use it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple, Sequence

from .env import BLOCK, INITIAL_AOI, INITIAL_AOII, EnvSpec, Policy, TrajectoryStats, _substreams
from .strategy import AoiiThresholdPolicy, GreedyPolicy, RandomPolicy, ThresholdPolicy, threshold_policy

if TYPE_CHECKING:
    import numpy as np

__all__ = ["rollouts", "threshold_rollouts"]


def _first_from(out, values, size, *flags):
    """Fill ``out[i]``, i in [0, len(out)), with the least ``values[s]`` over
    slots s >= i set in every one of ``flags``, or ``size`` where there is
    no such slot.
    """
    import numpy as np

    head = out[: len(values)]
    np.add(values, -size, out=head)
    for flag in flags:
        np.multiply(head, flag, out=head)
    np.add(head, size, out=head)
    out[len(values) :] = size
    np.minimum.accumulate(out[::-1], out=out[::-1])


def _take(table, index, out):
    """``out[i] = table[index[i]]``, with indices clipped to the table.

    np.take first copies int32 indices to intp; taking half the indices at
    a time halves that copy, which is the largest array a lane allocates.
    """
    import numpy as np

    half = len(index) // 2
    np.take(table, index[:half], out=out[:half], mode="clip")
    np.take(table, index[half:], out=out[half:], mode="clip")


def _fold_costs(cost, energy, sent, alpha, bn, cost_sum):
    """The cost sum after adding each slot's ``alpha * age`` (plus ``bn``
    where ``sent``) to ``cost_sum``, left to right as ``run_policy`` adds.

    ``cost[1:]`` holds the slots' ages on entry.  ``energy`` has the same
    length and is overwritten; it may share memory with the caller's int arrays.
    A slot without a send adds 0.0 to its age term; that changes only a
    -0.0 term into 0.0, and the two add the same to a sum started at 0.0.
    """
    import numpy as np

    terms, extra = cost[1:], energy[1:]
    np.multiply(terms, alpha, out=terms)
    np.copyto(extra, sent)
    np.multiply(extra, bn, out=extra)
    np.add(terms, extra, out=terms)
    cost[0] = cost_sum
    np.add.accumulate(cost, out=cost)
    return float(cost[-1])


def _age_lanes(lanes, size, gen, fresh, next_ok, asks, work, alpha, bn, zeta):
    """Step every ThresholdPolicy(n) lane ``[n, rx, cost_sum, risky, sends]``
    over one block of ``size`` slots, with Python work once per delivery.

    Slots count from the block's start.  ``gen[s]`` is the slot the sender's
    packet before slot s was generated in (never decreasing), ``fresh[v]`` the
    first slot whose packet was generated at v or later and ``next_ok[s]`` the
    first slot at or after s whose attempt would be delivered, ``size`` where
    there is none.  The receiver's packet, generated at R, changes only at a
    delivery; the policy sends while gen[s] - R >= n, and the first delivered
    attempt sets R to gen[s].  So after a delivery in slot d the next one is
    ``next_ok[max(fresh[gen[d] + n], d + 1)]``: the lane hops from delivery to
    delivery, and the ages, sends, risky steps and costs of the slots between
    are then computed for the whole block at once.  ``asks`` marks the query
    steps of qaoi (None for aoi); elsewhere the age term is 0.
    """
    import numpy as np

    slots, hop, recv, flag, cost, energy = (a[: size + 1] for a in work)
    hop, marks, steps, before = hop[:size], flag[:size], slots[1:], gen[:size]
    hops, marked = memoryview(hop), memoryview(marks)
    for lane in lanes:
        n, rx, cost_sum, risky, sends = lane
        # hop[d]: the next delivery after one in slot d.  gen[d] + n > gen[0],
        # and every packet newer than gen[0] is at least 1 new, so clipping
        # a need below 0 to 0 finds the same slot
        np.add(before, n, out=hop)
        _take(fresh, hop, hop)
        np.maximum(hop, steps, out=hop)
        _take(next_ok, hop, hop)
        # the receiver's packet before slot 0 was generated rx slots before it
        need = n - rx
        d = int(next_ok[0 if need <= gen[0] else fresh[min(max(need, 0), size)]])
        marks.fill(False)
        while d < size:
            marked[d] = True
            d = hops[d]
        # recv[s]: the generation slot of the receiver's packet before slot s
        recv[0] = -rx
        np.add(before, rx, out=recv[1:])
        np.multiply(recv[1:], marks, out=recv[1:])
        np.add(recv[1:], -rx, out=recv[1:])
        np.maximum.accumulate(recv, out=recv)
        # the slots it sends in, where its packet is at least n newer
        terms = cost[1:]
        np.subtract(before, recv[:size], out=hop)
        np.copyto(terms, hop)
        sends += int(np.count_nonzero(np.greater_equal(terms, n, out=marks)))
        # the receiver age after each slot, 0 off a query step
        np.subtract(steps, recv[1:], out=hop)
        if asks is not None:
            np.multiply(hop, asks, out=hop)
        np.copyto(terms, hop)
        risky += int(np.count_nonzero(terms >= zeta))
        rx = size - int(recv[size])
        lane[1:] = rx, _fold_costs(cost, energy, marks, alpha, bn, cost_sum), risky, sends


def _age_threshold(policy, horizon: int) -> int:
    """The threshold n of an aoi or qaoi lane, the one policy those lanes run."""
    if not isinstance(policy, ThresholdPolicy):
        raise ValueError(f"the block kernels cannot roll out {type(policy).__name__} on an aoi or qaoi spec")
    # an age never passes the horizon, so a larger threshold is never reached
    return min(policy.n, horizon + 1)


class _MismatchSends(NamedTuple):
    """Where an aoii lane sends.  ``at`` is a threshold theta, or a send bit
    per mismatch age that ages past the last row read from that row.
    ``synced`` is its bit at age 0, and ``runs`` the maximal runs [a, b),
    1 <= a < b, of the other ages it sends at (b None: the run never ends).
    With ``draws``, a ``(generator, send_prob)`` pair, the lane sends instead
    in the slots whose uniform falls below send_prob, whatever its state; its
    ``synced`` and ``runs`` then mark every age, as for theta = 0."""

    synced: bool
    runs: tuple[tuple[int, int | None], ...]
    at: int | np.ndarray
    draws: tuple[np.random.Generator, float] | None = None


def _send_runs(bits) -> tuple[tuple[int, int | None], ...]:
    """The maximal runs [a, b) of mismatch ages a >= 1 whose send bit is set;
    a run through the last row, which every older age reads, never ends."""
    import numpy as np

    edges = (np.flatnonzero(np.diff(bits[1:], prepend=False, append=False)) + 1).tolist()
    last = len(bits) - 1
    return tuple((a, b if b <= last else None) for a, b in zip(edges[::2], edges[1::2]))


def _mismatch_sends(policy, horizon: int) -> _MismatchSends:
    """The lane of an aoii policy: a threshold, a greedy table or a random sender."""
    if isinstance(policy, AoiiThresholdPolicy):
        # an age never passes the horizon, so a larger threshold is never reached
        theta = min(policy.theta, horizon + 1)
        return _MismatchSends(theta == 0, ((max(theta, 1), None),), theta)
    if isinstance(policy, RandomPolicy):
        return _MismatchSends(True, ((1, None),), 0, (policy.rng, policy.send_prob))
    if isinstance(policy, GreedyPolicy):
        bits = policy.send_bits()
        if bits.ndim != 1:
            raise ValueError("a greedy aoii lane needs a table over mismatch ages, got an aoi table")
        return _MismatchSends(bool(bits[0]), _send_runs(bits), bits)
    raise ValueError(f"the block kernels cannot roll out {type(policy).__name__} on an aoii spec")


def _mismatch_lanes(lanes, size, next_ok, back, leave, moves, fails, work, spare, alpha, bn, zeta):
    """Step every aoii lane ``[sends, age, cost_sum, risky, send_count]``, its
    ``sends`` a ``_MismatchSends``, over one block of ``size`` slots, with
    Python work once per loss of sync.

    ``next_ok[s]``, ``back[s]`` and ``leave[s]`` are the first slot at or
    after s whose attempt would be delivered, in which the source returns to
    the receiver's value, and in which a synced source moves away, ``size``
    where there is none; ``moves`` and ``fails`` flag each slot's move away
    and failed attempt.  A lane that leaves sync in slot L is at age
    s - L + 1 after slot s and sends in slot s where s - L lies in one of
    its runs [a, b).  It resyncs at the first return or delivered attempt
    after L: the least of back[L + 1] and, for each run, next_ok[L + a]
    where that is below L + b.  Its next leave is the first move away after
    that; a lane that sends while synced leaves only in a slot where the
    source moves away and the attempt fails.  So the lane hops from leave to
    leave, and the ages, sends, risky steps and costs of the slots between
    are then computed for the whole block at once.  A random lane sends at
    every age over a channel that delivers only in the slots it sends in, so
    it is the theta = 0 lane with next_ok and the failures of that channel.

    ``spare`` is None for threshold lanes alone, else an int and two bool
    arrays of ``BLOCK + 1`` entries.  A run that ends uses the first two as
    scratch; a random lane keeps in them its delivered attempts' next_ok and
    its failures, and in the third its sends.
    """
    import numpy as np

    slots, hop, ages, flag, cost, energy = (a[: size + 1] for a in work)
    hop, marks, before, steps = hop[:size], flag[:size], slots[:size], slots[1:]
    hops, marked = memoryview(hop), memoryview(marks)

    def resync_slots(runs, ok, out):
        np.copyto(out, back[1:])
        for a, b in runs:
            if a > size:
                break
            width = size + 1 - a
            found = ok[a:]
            if b is not None and b <= size:
                # an attempt delivered in slot found[L] resyncs only while
                # its age found[L] - L is below b; otherwise take size
                kept, inside = spare[0][:width], spare[1][:width]
                np.subtract(found, slots[:width], out=kept)
                np.less(kept, b, out=inside)
                np.add(found, -size, out=kept)
                np.multiply(kept, inside, out=kept)
                np.add(kept, size, out=kept)
                found = kept
            np.minimum(out[:width], found, out=out[:width])

    for lane in lanes:
        sends, age, cost_sum, risky, send_count = lane
        ok, stay, sent = next_ok, (moves, fails), marks
        if sends.draws is not None:
            # each block's uniforms of the lane's own generator, drawn into
            # the cost buffer as the block's were
            rng, send_prob = sends.draws
            ok, missed, sent = spare[0][: size + 1], spare[1][:size], spare[2][:size]
            np.less(rng.random(size, out=cost[:size]), send_prob, out=sent)
            # missed flags the delivered attempts first, then the rest
            np.greater(sent, fails, out=missed)
            _first_from(ok, before, size, missed)
            np.logical_not(missed, out=missed)
            stay = (moves, missed)
        if sends.synced:
            _first_from(ages, before, size, *stay)
            leaves = ages
        else:
            leaves = leave
        # hop[L]: the next leave after one in slot L
        resync_slots(sends.runs, ok, hop)
        np.add(hop, 1, out=hop)
        _take(leaves, hop, hop)
        # a lane carried in mismatched at age `age` is at age age + s before
        # slot s, and resyncs at the first return or at the first delivered
        # attempt of the first run that has one; one carried in synced
        # (resync = -1) starts from its first leave
        if age:
            resync = int(back[0])
            for a, b in sends.runs:
                if a - age >= size:
                    break
                found = int(ok[max(a - age, 0)])
                if b is None or found < b - age:
                    resync = min(resync, found)
                    break
        else:
            resync = -1
        left = int(leaves[resync + 1]) if resync < size else size
        start = left
        marks.fill(False)
        while left < size:
            marked[left] = True
            left = hops[left]
        # from the first leave on, last[s] is the last leave at or before s
        # and ends[s] the slot that mismatch ends in; both only grow
        last, ends = hop, ages[:size]
        np.multiply(before, marks, out=last)
        np.maximum.accumulate(last, out=last)
        resync_slots(sends.runs, ok, ends)
        np.multiply(ends, marks, out=ends)
        np.maximum.accumulate(ends, out=ends)
        # ends becomes 1 while mismatched and 0 once synced, and last the
        # mismatch age after each slot
        np.subtract(ends, before, out=ends)
        np.minimum(ends, 1, out=ends)
        np.maximum(ends, 0, out=ends)
        np.subtract(steps, last, out=last)
        np.multiply(last, ends, out=last)
        # before the first leave the lane is in the state it carried in
        head = last[:start]
        head.fill(0)
        if resync > 0:
            np.add(steps[:resync], age, out=head[:resync])
        # cost[s] is the age before slot s, cost[s + 1] the age after it
        np.copyto(cost[1:], last)
        cost[0] = age
        risky += int(np.count_nonzero(cost[1:] >= zeta))
        if sends.draws is None:
            if isinstance(sends.at, int):
                np.greater_equal(cost[:size], sends.at, out=marks)
            else:
                # a table lane sends where the age before the slot has its bit set
                marks[0] = sends.at[min(age, len(sends.at) - 1)]
                _take(sends.at, last[: size - 1], marks[1:])
        send_count += int(np.count_nonzero(sent))
        age = int(cost[size])
        lane[1:] = age, _fold_costs(cost, energy, sent, alpha, bn, cost_sum), risky, send_count


def _index_dtype(horizon: int) -> type:
    """The integer type of the kernels' slots and ages: int32 holds every
    age, threshold and slot sum below a horizon of 2**30."""
    import numpy as np

    return np.int32 if horizon < 2**30 else np.int64


def rollouts(
    spec: EnvSpec, seed: int | np.random.SeedSequence, policies: Sequence[Policy], horizon: int
) -> list[TrajectoryStats]:
    """Roll out each of ``policies`` on the events of ``seed``.

    A policy is a threshold policy of ``spec.metric`` or, for aoii, also a
    ``GreedyPolicy`` over an aoii table or a ``RandomPolicy``.  Entry i
    equals ``run_policy(spec.build(seed), policies[i], horizon)`` bit for
    bit, but no env is built.  A greedy lane reads the table's send bits
    once, when the call starts.  A random lane draws from the policy's own
    generator a block at a time, the values its ``decide`` would read, so
    that policy is spent: roll it out here or through ``run_policy``, not
    both.  Each lane carries its state, cost sum and counts across blocks.
    Every array is allocated once, at ``BLOCK`` entries, so memory does not
    grow with the horizon.
    """
    import numpy as np

    if horizon < 1:
        raise ValueError(f"horizon must be at least 1, got {horizon}")
    aoii = spec.metric == "aoii"
    if aoii:
        rules = [_mismatch_sends(policy, horizon) for policy in policies]
    else:
        rules = [_age_threshold(policy, horizon) for policy in policies]
    params = spec.params
    alpha, bn = params.alpha, params.beta * params.nu
    arrival_rng, channel_rng, query_rng, source_rng = _substreams(seed)
    initial = INITIAL_AOII[1] if aoii else INITIAL_AOI[1]
    lanes = [[rule, initial, 0.0, 0, 0] for rule in rules]
    itype = _index_dtype(horizon)
    slots = np.arange(BLOCK + 1, dtype=itype)
    next_ok, first, second = (np.empty(BLOCK + 1, itype) for _ in range(3))
    # a lane's two int arrays are dead by the time it adds its energy terms,
    # so the float array for those shares their memory
    pair = np.empty(2 * (BLOCK + 1), itype)
    hop, buffer, energy = pair[: BLOCK + 1], pair[BLOCK + 1 :], pair.view(np.float64)[: BLOCK + 1]
    flag = np.empty(BLOCK + 1, bool)
    cost = np.empty(BLOCK + 1)
    work = (slots, hop, buffer, flag, cost, energy)
    # threshold lanes need no more; table and random lanes share three arrays
    spare = None
    if aoii and not all(isinstance(policy, AoiiThresholdPolicy) for policy in policies):
        spare = (np.empty(BLOCK + 1, itype), np.empty(BLOCK + 1, bool), np.empty(BLOCK + 1, bool))
    zeta = spec.risk.zeta_aoii if aoii else spec.risk.zeta
    tx = INITIAL_AOI[0]
    for start in range(0, horizon, BLOCK):
        size = min(BLOCK, horizon - start)
        ok, early, late = next_ok[: size + 1], first[: size + 1], second[: size + 1]
        # each block's uniforms are drawn into the cost buffer, which the
        # lanes only write after every draw has been compared
        draw, oks = cost[:size], flag[:size]
        np.less(channel_rng.random(size, out=draw), params.p, out=oks)
        _first_from(ok, slots[:size], size, oks)
        if aoii:
            fails = draw >= params.p
            moves = source_rng.random(size, out=draw) >= spec.source.p_r
            _first_from(late, slots[:size], size, moves)
            np.less(draw, spec.source.p_c, out=oks)
            _first_from(early, slots[:size], size, oks)
            _mismatch_lanes(lanes, size, ok, early, late, moves, fails, work, spare, alpha, bn, zeta)
        else:
            # gen[s]: the slot the sender's packet before slot s was generated
            # in; an arrival in slot a brings a packet of slot a + 1
            arrivals = arrival_rng.random(size, out=draw) < params.lam
            gen, fresh, steps = early, late, slots[1 : size + 1]
            gen[0] = -tx
            np.add(steps, tx, out=gen[1:])
            np.multiply(gen[1:], arrivals, out=gen[1:])
            np.add(gen[1:], -tx, out=gen[1:])
            np.maximum.accumulate(gen, out=gen)
            # fresh[v]: the first slot whose packet was generated in slot v
            # or later; the packet before slot 0 was generated in slot -tx
            _first_from(fresh[1:], steps, size, arrivals)
            fresh[0] = 0 if tx == 0 else fresh[1]
            tx = size - int(gen[size])
            asks = None if spec.metric == "aoi" else query_rng.random(size, out=draw) < spec.query.q
            _age_lanes(lanes, size, gen, fresh, ok, asks, work, alpha, bn, zeta)
    return [
        TrajectoryStats(
            steps=horizon,
            avg_cost=cost_sum / horizon,
            risky_freq=risky / horizon,
            send_count=sends,
        )
        for _, _, cost_sum, risky, sends in lanes
    ]


def threshold_rollouts(
    spec: EnvSpec, seed: int | np.random.SeedSequence, thresholds: Sequence[int], horizon: int
) -> list[TrajectoryStats]:
    """``rollouts`` of ``threshold_policy(spec.metric, value)`` for each of
    ``thresholds``; a value the policy refuses is refused before any draw."""
    return rollouts(spec, seed, [threshold_policy(spec.metric, value) for value in thresholds], horizon)
