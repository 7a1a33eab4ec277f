"""The Partial-Sums algorithm on the MCB network (paper §7.1).

Simulates the tree machine level by level, first bottom-up, then
top-down.  "A father node is simulated by the same processor that
simulates its left son, thus only the messages between father and right
son need actually be sent."  Node ``(l, j)`` is simulated by the processor
holding its leftmost descendant leaf, ``P_{(j-1)*2^l + 1}``.

Schedule (paper verbatim): in the bottom-up sweep at level ``l``, the
processor simulating node ``(l, 2j)`` writes on channel
``((j-1) mod k) + 1`` during in-level cycle ``ceil(j/k)``; the message is
read by the simulator of ``(l+1, j)``.  The top-down sweep mirrors this.
Total cost: ``O(p/k + log k)`` cycles and ``O(p)`` messages.

Deviations / resolutions:

* The paper assumes ``p = 2^r`` w.l.o.g. (via the §2 simulation lemma).
  We instead pad the tree with *virtual* leaves holding the identity and
  let **silence stand for the identity**: virtual nodes never transmit,
  and a reader treats an empty channel as an identity contribution.  This
  keeps the exact cost bounds without simulating a larger network.

* With an extra ``p`` messages and ``ceil(p/k)`` cycles, each ``P_i``
  also acquires the *successor* partial sum ``a^+_{i+1}`` (used by the
  §7.2 group formation); enabled with ``include_next=True``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import add
from typing import Any, Callable, Optional

from ..mcb.message import EMPTY, Message
from ..mcb.network import MCBNetwork
from ..mcb.program import CycleOp, Listen, ProcContext, Sleep


@dataclass(frozen=True)
class PartialSums:
    """What each processor knows after the algorithm (paper §7.1).

    Attributes
    ----------
    prev:
        ``a^+_{i-1}`` — the exclusive prefix (identity for ``P_1``).
    incl:
        ``a^+_i`` — the inclusive prefix.
    next:
        ``a^+_{i+1}`` if requested (``None`` otherwise; for ``P_p`` it
        equals ``incl`` — there is no successor).
    """

    prev: Any
    incl: Any
    next: Optional[Any] = None


def _next_pow2(p: int) -> int:
    q = 1
    while q < p:
        q *= 2
    return q


def _sleep(t: int):
    """Yield an exact idle period (no-op for t <= 0)."""
    if t > 0:
        yield Sleep(t)


def _up_sweep(
    pid: int,
    a: Any,
    k: int,
    big_p: int,
    op: Callable[[Any, Any], Any],
    identity: Any,
):
    """Sub-generator for ``P_pid``'s part of the bottom-up sweep.

    Returns ``vals``: level -> subtree sum of the node ``P_pid``
    simulates at that level (level 0 is ``a`` itself).  Every processor
    spends the same ``sum_l ceil(P / 2^{l+1} / k)`` cycles in it.
    """
    vals: dict[int, Any] = {0: a}
    for l in range(big_p.bit_length() - 1):
        transfers = big_p >> (l + 1)
        level_cycles = math.ceil(transfers / k)
        sender_j = receiver_j = None
        if (pid - 1) % (1 << l) == 0:
            s = ((pid - 1) >> l) + 1
            if s % 2 == 0:
                sender_j = s // 2  # I am right son of (l+1, s/2)
        if (pid - 1) % (1 << (l + 1)) == 0:
            receiver_j = ((pid - 1) >> (l + 1)) + 1
        if sender_j is not None:
            slot = sender_j - 1
            yield from _sleep(slot // k)
            yield CycleOp(write=slot % k + 1, payload=Message("up", vals[l]))
            yield from _sleep(level_cycles - slot // k - 1)
        elif receiver_j is not None:
            slot = receiver_j - 1
            yield from _sleep(slot // k)
            got = yield CycleOp(read=slot % k + 1)
            right = identity if got is EMPTY else got[0]
            vals[l + 1] = op(vals[l], right)
            yield from _sleep(level_cycles - slot // k - 1)
        else:
            yield from _sleep(level_cycles)
    return vals


def mcb_partial_sums(
    net: MCBNetwork,
    values: dict[int, Any],
    *,
    op: Callable[[Any, Any], Any] = add,
    identity: Any = 0,
    include_next: bool = False,
    phase: str = "partial-sums",
) -> dict[int, PartialSums]:
    """Compute partial sums of per-processor values on the network.

    Parameters
    ----------
    net:
        The MCB network to run on.
    values:
        1-based pid -> local value ``a_i`` (must cover ``1..p``).
    op, identity:
        A commutative associative operator and its identity.  Values must
        be scalar (they travel in single-field messages).
    include_next:
        Also deliver ``a^+_{i+1}`` to each ``P_i`` (extra stage).

    Returns
    -------
    dict
        pid -> :class:`PartialSums`.
    """
    p, k = net.p, net.k
    if sorted(values) != list(range(1, p + 1)):
        raise ValueError("values must be given for every processor 1..p")
    big_p = _next_pow2(p)
    r = big_p.bit_length() - 1  # number of levels above the leaves

    def program(ctx: ProcContext):
        pid = ctx.pid
        a = values[pid]
        vals = yield from _up_sweep(pid, a, k, big_p, op, identity)

        # --- top-down sweep -------------------------------------------
        down: dict[int, Any] = {}
        if pid == 1:
            down[r] = identity  # the root receives omega
        for l in range(r - 1, -1, -1):
            transfers = big_p >> (l + 1)
            level_cycles = math.ceil(transfers / k)
            sender_j = receiver_j = None
            if (pid - 1) % (1 << (l + 1)) == 0:
                j = ((pid - 1) >> (l + 1)) + 1
                right_leftmost_leaf = (2 * j - 1) * (1 << l) + 1
                if right_leftmost_leaf <= p:
                    sender_j = j  # I am the father; right son is real
            if (pid - 1) % (1 << l) == 0:
                s = ((pid - 1) >> l) + 1
                if s % 2 == 0:
                    receiver_j = s // 2
            if sender_j is not None:
                # I also simulate the left son: it inherits F locally.
                down[l] = down[l + 1]
                slot = sender_j - 1
                yield from _sleep(slot // k)
                yield CycleOp(
                    write=slot % k + 1,
                    payload=Message("down", op(down[l + 1], vals[l])),
                )
                yield from _sleep(level_cycles - slot // k - 1)
            elif receiver_j is not None:
                slot = receiver_j - 1
                yield from _sleep(slot // k)
                got = yield CycleOp(read=slot % k + 1)
                assert got is not EMPTY, "real right son must hear its father"
                down[l] = got[0]
                yield from _sleep(level_cycles - slot // k - 1)
            else:
                if (pid - 1) % (1 << (l + 1)) == 0:
                    # Father of an entirely-virtual right son: left son
                    # (myself) still inherits F.
                    down[l] = down[l + 1]
                yield from _sleep(level_cycles)

        prev = down[0]
        incl = op(prev, a)

        nxt = None
        if include_next:
            # Every P_j (j >= 2) ships its inclusive prefix to P_{j-1}.
            # Writer P_j uses channel ((j-2) mod k)+1 in cycle (j-2) div k;
            # reader P_{j-1} reads that channel in that cycle.  A processor
            # may write and read in the same cycle (distinct roles).
            stage_cycles = math.ceil((p - 1) / k)
            write_cycle = (pid - 2) // k if pid >= 2 else None
            read_cycle = (pid - 1) // k if pid <= p - 1 else None
            got = None
            # Jump straight to the (at most two) cycles in which I act
            # instead of stepping through the stage one sleep at a time.
            events = sorted({c for c in (write_cycle, read_cycle) if c is not None})
            t = 0
            for c in events:
                yield from _sleep(c - t)
                w = wp = rd = None
                if write_cycle == c:
                    w = (pid - 2) % k + 1
                    wp = Message("next", incl)
                if read_cycle == c:
                    rd = (pid - 1) % k + 1
                res = yield CycleOp(write=w, payload=wp, read=rd)
                if rd is not None:
                    got = res
                t = c + 1
            yield from _sleep(stage_cycles - t)
            nxt = incl if pid == p else (got[0] if got not in (None, EMPTY) else None)
        return PartialSums(prev=prev, incl=incl, next=nxt)

    return net.run({i: program for i in range(1, p + 1)}, phase=phase)


def mcb_total_sum(
    net: MCBNetwork,
    values: dict[int, Any],
    *,
    op: Callable[[Any, Any], Any] = add,
    identity: Any = 0,
    phase: str = "total-sum",
) -> dict[int, Any]:
    """Total sum only: bottom-up sweep plus one broadcast from the root.

    "If only the total sum is of interest, the bottom-up phase followed by
    a single broadcast message from P_1 (which simulates the root)
    suffices."  Every processor learns the total.
    """
    p, k = net.p, net.k
    if sorted(values) != list(range(1, p + 1)):
        raise ValueError("values must be given for every processor 1..p")
    big_p = _next_pow2(p)
    r = big_p.bit_length() - 1

    def program(ctx: ProcContext):
        pid = ctx.pid
        vals = yield from _up_sweep(pid, values[pid], k, big_p, op, identity)
        if pid == 1:
            total = vals[r]
            yield CycleOp(write=1, payload=Message("total", total), read=1)
            return total
        # Everyone reaches the broadcast cycle together; park until the
        # root's message lands rather than polling the channel.
        _, got = yield Listen(1, until_nonempty=True)
        return got[0]

    return net.run({i: program for i in range(1, p + 1)}, phase=phase)


def partial_sums_cycle_bound(p: int, k: int) -> int:
    """Closed-form cycle count of one sweep pair (for tests/benches).

    Sum over levels of ``ceil((P/2^{l+1}) / k)`` for both sweeps, where
    ``P`` is ``p`` rounded up to a power of two — ``O(p/k + log k)``.
    """
    big_p = _next_pow2(p)
    r = big_p.bit_length() - 1
    per_sweep = sum(math.ceil((big_p >> (l + 1)) / k) for l in range(r))
    return 2 * per_sweep
