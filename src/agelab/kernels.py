"""Block kernels of ``env.threshold_rollouts``: every threshold policy of a
sweep stepped over one block of a seed's events at a time.

Under a threshold policy the receiver age climbs by one each slot and
resets only at a delivery, and the mismatch age resets only at a resync.
So a lane hops through a block from one delivery (aoii: one loss of sync)
to the next through next-event tables built once per block, with one
Python step per hop, and numpy fills in every slot's age, send, risky flag
and cost in between.

Masked numpy writes branch on every element, so flags select by
multiplication instead.  Ages are compared as float64 copies, exact for
integers, because numpy has loaded its float64 comparison loops for the
draws already, and each loop a process runs adds its code pages to the
process's resident memory.  Like every agelab module, this one imports
numpy only inside the functions that use it.
"""

from __future__ import annotations

__all__ = ["first_from", "age_lanes", "mismatch_lanes"]


def first_from(out, values, size, *flags):
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


def age_lanes(lanes, size, gen, fresh, next_ok, asks, work, alpha, bn, zeta):
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


def mismatch_lanes(lanes, size, next_ok, back, leave, stay, work, alpha, bn, zeta):
    """Step every AoiiThresholdPolicy(theta) lane ``[theta, age, cost_sum,
    risky, sends]`` over one block of ``size`` slots, with Python work once
    per loss of sync.

    ``next_ok[s]``, ``back[s]`` and ``leave[s]`` are the first slot at or
    after s whose attempt would be delivered, in which the source returns to
    the receiver's value, and in which a synced source moves away, ``size``
    where there is none.  A lane that leaves sync in slot L is at age
    s - L + 1 after slot s, sends from slot L + max(theta, 1) on, and
    resyncs at the first return or delivered attempt after L; its next
    leave is the first move away after that.  So the lane hops from leave
    to leave, and the ages, sends, risky steps and costs of the slots
    between are then computed for the whole block at once.  At theta = 0 a
    lane sends every slot, so it leaves sync only in a slot flagged in both
    arrays of ``stay``: the source moves away and the attempt fails.
    """
    import numpy as np

    slots, hop, ages, flag, cost, energy = (a[: size + 1] for a in work)
    hop, marks, before, steps = hop[:size], flag[:size], slots[:size], slots[1:]
    hops, marked = memoryview(hop), memoryview(marks)

    def resync_slots(theta, out):
        first = max(theta, 1)
        np.copyto(out, back[1:])
        if first <= size:
            np.minimum(out[: size + 1 - first], next_ok[first:], out=out[: size + 1 - first])

    for lane in lanes:
        theta, age, cost_sum, risky, sends = lane
        if theta == 0:
            first_from(ages, before, size, *stay)
            leaves = ages
        else:
            leaves = leave
        # hop[L]: the next leave after one in slot L
        resync_slots(theta, hop)
        np.add(hop, 1, out=hop)
        _take(leaves, hop, hop)
        # a lane carried in mismatched resyncs at the first return, or at the
        # first delivered attempt once its age reaches theta; one carried in
        # synced (resync = -1) starts from its first leave
        if age:
            resync = min(int(back[0]), int(next_ok[min(max(theta - age, 0), size)]))
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
        resync_slots(theta, ends)
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
        sends += int(np.count_nonzero(np.greater_equal(cost[:size], theta, out=marks)))
        age = int(cost[size])
        lane[1:] = age, _fold_costs(cost, energy, marks, alpha, bn, cost_sum), risky, sends
