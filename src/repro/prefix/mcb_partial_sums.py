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

Each processor yields its part of a stage as one :class:`Sweep` op.
The schedule is oblivious (:func:`_tree`), so the fast engine runs a
stage from the values alone, as one pass that applies ``op`` level by
level (:meth:`Sweep.stage`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from operator import add
from typing import Any, Callable, Generator, Optional

from ..mcb.errors import ProtocolError
from ..mcb.message import EMPTY, Message, numeric_bits
from ..mcb.network import MCBNetwork
from ..mcb.program import (
    Collective,
    CycleOp,
    Listen,
    Sleep,
    StageOp,
)


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


def _program(pid: int, a: Any, stage: tuple):
    """Sub-generator: ``P_pid``'s part of a :class:`Sweep` stage over its
    value ``a``.  Returns the total, or its :class:`PartialSums`."""
    p, k, op, identity, total, include_next = stage
    big_p = _next_pow2(p)
    r = big_p.bit_length() - 1  # number of levels above the leaves
    vals = yield from _up_sweep(pid, a, k, big_p, op, identity)
    if total:
        if pid == 1:
            yield CycleOp(write=1, payload=Message("total", vals[r]), read=1)
            return vals[r]
        # Everyone reaches the broadcast cycle together; park until the
        # root's message lands rather than polling the channel.
        _, got = yield Listen(1, until_nonempty=True)
        return got[0]

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


@lru_cache(maxsize=256)
def _tree(p: int, k: int) -> tuple[list, dict]:
    """The tree of one ``(p, k)``: real nodes per level (leaves first),
    and per stage ``(total, include_next)`` its cycles, fast-forwarded
    cycles and ``(channel, writes)`` pairs.

    Sweep level ``l`` lasts ``c = ceil((P >> (l+1)) / k)`` cycles (``P``
    is ``p`` rounded up to a power of two); transfer ``j`` (one per real
    right son) is on channel ``j mod k + 1`` in cycle ``j div k``.  Its
    active slots ``0..s-1`` (real fathers bottom-up, real right sons
    top-down) keep ``min(c, (s-1) div k + 2)`` cycles busy: everyone
    yields in the first, slot ``j`` its op in cycle ``j div k`` and its
    closing sleep in the next; the engine fast-forwards the rest.
    """
    big_p = _next_pow2(p)
    sizes = [-(-p // (1 << l)) for l in range(big_p.bit_length())]
    sweep = up_ff = down_ff = 0
    up = [0] * (k + 1)  # writes per channel, one sweep
    for l in range(len(sizes) - 1):
        c = math.ceil((big_p >> (l + 1)) / k)
        sweep += c
        up_ff += c - min(c, (sizes[l + 1] - 1) // k + 2)
        down_ff += c - min(c, (sizes[l] // 2 - 1) // k + 2)
        for j in range(sizes[l] // 2):
            up[j % k + 1] += 1
    both = [2 * n for n in up]
    succ = list(both)
    for j in range(2, p + 1):
        succ[(j - 2) % k + 1] += 1
    up[1] += 1  # P_1's broadcast
    up, both, succ = (
        [(ch, n) for ch, n in enumerate(cw) if n] for cw in (up, both, succ)
    )
    return sizes, {
        (True, False): (sweep + 1, up_ff, up),
        (False, False): (2 * sweep, up_ff + down_ff, both),
        (False, True): (
            2 * sweep + math.ceil((p - 1) / k), up_ff + down_ff, succ
        ),
    }


class Sweep(StageOp):
    """Processor ``ctx.pid``'s part of a §7.1 stage over its ``value``,
    *defined* by its program (:func:`_program`).  ``shared`` is ``(p,
    k, op, identity, total, include_next)``: Partial-Sums or, with
    ``total``, Total-Sum."""

    __slots__ = ()

    label = "sweep"

    def check(self, pid: int, k: int) -> None:
        """The schedule uses at most the network's ``k`` channels."""
        ks = self.shared[1]
        if ks > k:
            raise ProtocolError(f"P{pid} sweeps for k={ks} (k={k})")

    def program(self) -> Generator:
        """:func:`_program`, the paper's per-processor schedule."""
        return _program(self.ctx.pid, self.value, self.shared)

    @classmethod
    def stage(
        cls, values: list, shared: tuple, span: int, max_fields: int
    ) -> Optional[Collective]:
        """The stage as one pass over the tree's levels, applying ``op``
        as the programs do (a virtual right son's silence stands for
        ``identity``) and charging ``Message(kind, v).bit_size()`` per
        transfer, in bulk for exact ints and floats, and :func:`_tree`'s
        costs.

        Taken only if there are ``p`` values; the stage ends within
        ``span``; and every message passes the write guard and its bit
        sizing, and every ``op`` call its operand types (else stepping
        raises the ``TypeError``).
        """
        p, k, fn, ident, total, nxt = shared
        if len(values) != p or max_fields < 1:
            return None
        sizes, shapes = _tree(p, k)
        cycles, ff, cw = shapes[total, nxt]
        if cycles > span:
            return None
        a = list(values)
        sent: list = []
        try:
            levels = [a]
            for size in sizes[1:]:
                below = levels[-1]
                n = len(below)
                sent += below[1::2]  # real right sons send up
                levels.append([
                    fn(below[2 * j], below[2 * j + 1] if 2 * j + 1 < n
                       else ident)
                    for j in range(size)
                ])
            if total:
                results = [levels[-1][0]] * p
                sent.append(results[0])
            else:
                down = [ident]  # the root receives the identity
                for below in reversed(levels[:-1]):
                    sons = []
                    for j, f in enumerate(down):
                        sons.append(f)  # the left son inherits locally
                        if 2 * j + 1 < len(below):
                            sons.append(fn(f, below[2 * j]))
                            sent.append(sons[-1])
                    down = sons
                incl = list(map(fn, down, a))
                succ = incl[1:] + incl[-1:] if nxt else [None] * p
                if nxt:
                    sent += incl[1:]
                results = list(map(PartialSums, down, incl, succ))
            bits = numeric_bits(len(sent), sent)
            if bits is None:  # every kind tag costs the same
                bits = sum(Message("sum", v).bit_size() for v in sent)
        except TypeError:  # stepping raises it at its cycle
            return None
        return Collective(results, bits, cw, cycles, ff)


def sweep_stage(net: MCBNetwork, values: list, phase: str, *shape) -> list:
    """One stage in which every processor yields its :class:`Sweep`:
    ``values[i]`` is ``P_{i+1}``'s value, ``shape`` is ``(op, identity,
    total, include_next)``; the results in pid order."""
    return net.run_stage(
        Sweep, values, (net.p, net.k) + shape, phase=phase
    )


def _run_sweep(net: MCBNetwork, values: dict, phase: str, *shape) -> dict:
    """:func:`sweep_stage` on a dict ``pid -> value`` covering ``1..p``;
    a dict ``pid -> result``."""
    pids = range(1, net.p + 1)
    if sorted(values) != list(pids):
        raise ValueError("values must be given for every processor 1..p")
    got = sweep_stage(net, [values[pid] for pid in pids], phase, *shape)
    return dict(zip(pids, got))


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
    return _run_sweep(net, values, phase, op, identity, False, include_next)


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
    return _run_sweep(net, values, phase, op, identity, True, False)


def partial_sums_cycle_bound(p: int, k: int) -> int:
    """Closed-form cycle count of one sweep pair (for tests/benches).

    Sum over levels of ``ceil((P/2^{l+1}) / k)`` for both sweeps, where
    ``P`` is ``p`` rounded up to a power of two — ``O(p/k + log k)``.
    """
    return _tree(p, k)[1][False, False][0]
