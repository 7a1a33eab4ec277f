"""Recursive Columnsort (paper §6.2).

When ``n < k^2(k-1)`` the direct algorithm cannot use all ``k`` channels
(too many columns for too few elements) and the §5.2 fallback to fewer
columns costs ``O(n/k')`` cycles with ``k' < k``.  The recursive scheme
restores near-optimal cycle counts: "perform the sorting phases of a
given level of the recursion by invoking the next level", shrinking the
column length level by level until a direct (§6.1 virtual-column)
Columnsort applies.

Structure of one recursive call on ``N`` elements, ``P`` processors and
a block of ``K`` channels:

* **base** (``N >= K^3``): the §6.1 virtual-column algorithm with ``K``
  columns of length ``N/K``;
* otherwise pick ``k' < K`` virtual columns (largest power of two with
  ``N >= k'^3``); each column holds ``N/k'`` elements on ``P/k'``
  processors with ``K/k'`` channels.  Sorting phases recurse on the
  columns (all ``k'`` calls in parallel on disjoint channel blocks);
  transformation phases run the segment schedule described below.

**Segment transformation.** The paper: "each virtual column is broken
into ``k/k'`` segments ... and all segments are broadcast simultaneously
— each segment using a separate channel."  We realize this with a
Birkhoff–von-Neumann schedule at *segment* granularity: segment
``(c, s)`` owns channel ``c*S + s`` (``S = K/k'``); each destination
column's incoming elements are assigned round-robin to its ``S``
receiver slots; the resulting ``K x K`` transfer matrix is
``(m/S)``-doubly-balanced, so it decomposes into ``m/S`` perfect
matchings — one per cycle.  In each cycle every segment broadcasts one
element and its sender simultaneously reads the one channel carrying an
element destined to its own slot, storing it over the element just sent
(the §6.1 trick).  A transformation phase therefore takes exactly
``m/S = N/K`` cycles — all ``K`` channels busy — and the total cost is
``O(s * n/k)`` cycles and ``O(s * n)`` messages for recursion depth
``s``, which is Corollary 5's claim.

As in the virtual-column algorithm, phase 7 sorts column 1 *ascending*
(implemented by recursing on order-negated elements), so the positional
phase-8 schedule remains meaningful.

Constraints: this implementation requires ``n``, ``p`` and ``k`` to be
powers of two with ``k <= p | n`` and an even distribution (the paper
makes the same kind of w.l.o.g. assumption — "n, p, and k are powers of
4^s" — justified by the §2 simulation lemma).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Sequence

import numpy as np

from ..columnsort.matrix import PHASE_PERMS
from ..columnsort.schedule import bvn_decomposition
from ..mcb.message import Message
from ..mcb.network import MCBNetwork
from ..mcb.program import CycleOp, ProcContext, Sleep
from .common import neg_elem, pack_elem, unpack_elem
from .even_pk import SortResult
from .rank_sort import rank_sort_group
from .virtual import virtual_transformation


def _is_pow2(x: int) -> bool:
    return x >= 1 and (x & (x - 1)) == 0


# ---------------------------------------------------------------------------
# Segment-level broadcast schedule
# ---------------------------------------------------------------------------

@dataclass
class SegmentSchedule:
    """Schedule of one transformation phase at segment granularity.

    ``cycles[u][x]`` is the 0-based row (within its column) that segment
    ``x = c*S + s`` broadcasts in cycle ``u``; ``reads[u][x]`` is the
    segment index whose channel segment ``x``'s sender must read (always
    defined — each cycle is a perfect matching of segments to receiver
    slots, and slot ``x``'s reader is segment ``x``'s sender).
    """

    m: int
    kprime: int
    s_per_col: int
    cycles: list[list[int]]
    reads: list[list[int]]


@lru_cache(maxsize=256)
def segment_schedule(phase: int, m: int, kprime: int, s_per_col: int) -> SegmentSchedule:
    """Build the ``N/K``-cycle segment schedule for a paper phase."""
    if phase not in PHASE_PERMS:
        raise ValueError(f"phase {phase} is not a transformation phase")
    s = s_per_col
    seg_len = m // s  # segment length == number of cycles
    big_k = kprime * s
    perm = PHASE_PERMS[phase](m, kprime)

    transfer = np.zeros((big_k, big_k), dtype=np.int64)
    edges: dict[tuple[int, int], list[int]] = {}
    for gpos in range(m * kprime):
        c, r = divmod(gpos, m)
        x = c * s + r // seg_len
        dst = int(perm[gpos])
        c2, r2 = divmod(dst, m)
        y = c2 * s + r2 // seg_len  # receiver slot, round-robin by dest row
        transfer[x, y] += 1
        edges.setdefault((x, y), []).append(r)
    for q in edges.values():
        q.reverse()

    cycles: list[list[int]] = []
    reads: list[list[int]] = []
    for matching, count in bvn_decomposition(transfer):
        inverse = [0] * big_k
        for x in range(big_k):
            inverse[int(matching[x])] = x
        for _ in range(count):
            row_of: list[int] = [0] * big_k
            for x in range(big_k):
                row_of[x] = edges[(x, int(matching[x]))].pop()
            cycles.append(row_of)
            reads.append(list(inverse))
    assert len(cycles) == seg_len
    return SegmentSchedule(
        m=m, kprime=kprime, s_per_col=s, cycles=cycles, reads=reads
    )


def segment_transformation(
    phase_no: int,
    col: int,
    member: int,
    npp: int,
    m: int,
    kprime: int,
    s_per_col: int,
    chan_base: int,
    mine: list[Any],
):
    """Sub-generator: one segment-scheduled transformation phase.

    ``col``/``member`` locate me inside the call (0-based); ``npp`` is my
    row count; channels used are ``chan_base + 1 .. chan_base + K``.
    Returns my new (scattered) elements.
    """
    sched = segment_schedule(phase_no, m, kprime, s_per_col)
    seg_len = m // s_per_col
    lo, hi = member * npp, (member + 1) * npp
    my_seg = col * s_per_col + lo // seg_len  # my rows lie in one segment
    out = list(mine)
    t_now = 0
    for u in range(seg_len):
        row = sched.cycles[u][my_seg]
        if not lo <= row < hi:
            continue
        if u > t_now:
            yield Sleep(u - t_now)
        src_seg = sched.reads[u][my_seg]
        got = yield CycleOp(
            write=chan_base + my_seg + 1,
            payload=Message("elem", *pack_elem(out[row - lo])),
            read=chan_base + src_seg + 1,
        )
        out[row - lo] = unpack_elem(got.fields)
        t_now = u + 1
    if seg_len > t_now:
        yield Sleep(seg_len - t_now)
    return out


# ---------------------------------------------------------------------------
# The recursive program
# ---------------------------------------------------------------------------

def recursion_plan(n: int, k: int) -> list[tuple[int, int, int]]:
    """The (N, K, k') triple at each recursion level (k'=0 marks base).

    Useful for tests and for the Corollary 5 cost model: depth ``s``
    yields ``O(s * n/k)`` cycles.
    """
    plan = []
    big_n, big_k = n, k
    while True:
        if big_k == 1 or big_n >= big_k ** 3:
            plan.append((big_n, big_k, 0))
            return plan
        kprime = big_k // 2
        while kprime >= 2 and big_n < kprime ** 3:
            kprime //= 2
        if kprime < 2:
            plan.append((big_n, big_k, 0))
            return plan
        plan.append((big_n, big_k, kprime))
        big_n //= kprime
        big_k //= kprime


def _rec_program(
    ctx: ProcContext,
    idx: int,
    big_p: int,
    chan_base: int,
    big_k: int,
    big_n: int,
    mine: list[Any],
):
    """Recursive sub-generator: sort ``big_n`` elements held evenly by the
    ``big_p`` processors of this call over channels
    ``chan_base+1 .. chan_base+big_k``.  ``idx`` is my 0-based position;
    returns my canonical descending segment."""
    npp = big_n // big_p

    if big_k == 1:
        out = yield from rank_sort_group(
            chan_base + 1, idx, [npp] * big_p, mine, ctx=ctx
        )
        return out

    kprime = 0
    if big_n < big_k ** 3:
        kprime = big_k // 2
        while kprime >= 2 and big_n < kprime ** 3:
            kprime //= 2
        if kprime < 2:
            kprime = 0  # tiny input: single-channel fallback below

    if big_n >= big_k ** 3 or kprime == 0:
        if big_n >= big_k ** 3:
            # base: §6.1 virtual-column Columnsort with big_k columns
            out = yield from _virtual_subgen(
                ctx, idx, big_p, chan_base, big_k, big_n, mine
            )
        else:
            out = yield from rank_sort_group(
                chan_base + 1, idx, [npp] * big_p, mine, ctx=ctx
            )
        return out

    s_per_col = big_k // kprime
    m = big_n // kprime
    g = big_p // kprime  # processors per virtual column
    col = idx // g
    w = idx % g
    sub_chan = chan_base + col * s_per_col

    def recurse(elems, ascending=False):
        if ascending:
            elems = [neg_elem(e) for e in elems]
        res = yield from _rec_program(ctx, w, g, sub_chan, s_per_col, m, elems)
        if ascending:
            res = [neg_elem(e) for e in res]
        return res

    mine = yield from recurse(mine)  # phase 1
    mine = yield from segment_transformation(
        2, col, w, npp, m, kprime, s_per_col, chan_base, mine
    )
    mine = yield from recurse(mine)  # phase 3
    mine = yield from segment_transformation(
        4, col, w, npp, m, kprime, s_per_col, chan_base, mine
    )
    mine = yield from recurse(mine)  # phase 5
    mine = yield from segment_transformation(
        6, col, w, npp, m, kprime, s_per_col, chan_base, mine
    )
    mine = yield from recurse(mine, ascending=(col == 0))  # phase 7
    mine = yield from segment_transformation(
        8, col, w, npp, m, kprime, s_per_col, chan_base, mine
    )
    mine = yield from recurse(mine)  # phase 9
    return mine


def _virtual_subgen(ctx, idx, big_p, chan_base, big_k, big_n, mine):
    """The §6.1 virtual-column Columnsort as a sub-generator (base case)."""
    npp = big_n // big_p
    g = big_p // big_k
    m = big_n // big_k
    col = idx // g
    w = idx % g
    counts = [npp] * g
    chan = chan_base + col + 1

    def sort_col(elems, ascending=False):
        res = yield from rank_sort_group(
            chan, w, counts, elems, ascending=ascending, ctx=ctx
        )
        return res

    mine = yield from sort_col(mine)
    mine = yield from virtual_transformation(
        2, col, w, npp, m, big_k, mine, chan_base=chan_base
    )
    mine = yield from sort_col(mine)
    mine = yield from virtual_transformation(
        4, col, w, npp, m, big_k, mine, chan_base=chan_base
    )
    mine = yield from sort_col(mine)
    mine = yield from virtual_transformation(
        6, col, w, npp, m, big_k, mine, chan_base=chan_base
    )
    mine = yield from sort_col(mine, ascending=(col == 0))
    mine = yield from virtual_transformation(
        8, col, w, npp, m, big_k, mine, chan_base=chan_base
    )
    mine = yield from sort_col(mine)
    return mine


def sort_recursive(
    net: MCBNetwork,
    parts: dict[int, Sequence[Any]],
    *,
    phase: str = "columnsort-recursive",
) -> SortResult:
    """Sort an even power-of-two distribution with the §6.2 recursion.

    Requires ``p`` and ``k`` powers of two, ``k | p``, equal ``n_i``,
    and ``p | n``.  Intended for the small-``n`` regime
    ``n < k^2(k-1)`` where it beats the fewer-columns fallback
    (Corollary 5); it is correct for larger ``n`` too (where it reduces
    to the §6.1 base case).
    """
    p, k = net.p, net.k
    if sorted(parts) != list(range(1, p + 1)):
        raise ValueError("parts must cover processors 1..p")
    if not (_is_pow2(p) and _is_pow2(k)):
        raise ValueError(
            "the recursive algorithm assumes p and k are powers of two "
            "(paper §6.2 w.l.o.g.; use the §2 simulation otherwise)"
        )
    lengths = {len(v) for v in parts.values()}
    if len(lengths) != 1:
        raise ValueError("distribution is not even")
    npp = lengths.pop()
    if not _is_pow2(npp):
        raise ValueError("the recursive algorithm assumes n/p is a power of two")

    def program(ctx: ProcContext):
        out = yield from _rec_program(
            ctx, ctx.pid - 1, p, 0, k, p * npp, list(parts[ctx.pid])
        )
        return out

    results = net.run({i: program for i in range(1, p + 1)}, phase=phase)
    return SortResult(output={pid: tuple(v) for pid, v in results.items()})
