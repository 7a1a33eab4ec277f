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
``(c, s)`` (rows ``s*m/S .. (s+1)*m/S - 1`` of column ``c``, ``S =
K/k'``) owns channel ``c*S + s + 1`` of the call's block, and receives
the elements whose destination rows lie in that segment.  The segment
transfer matrix is the transformation's permutation read as an
``(m/S) x K`` column-major matrix, doubly balanced, so it decomposes
into ``m/S`` perfect matchings — one per cycle.  In each cycle every
segment broadcasts one element and its sender simultaneously reads the
one channel carrying an element destined to its own segment, storing it
over the element just sent (the §6.1 trick).  That schedule is
oblivious: it is :func:`~repro.mcb.vector.lower.lower_virtual_phase`
with ``segments=S``, tiled over every call of the level (one
``blocks``-wide plan), and each processor runs it as a
:class:`~repro.mcb.program.RunPlan` — the fast engine moves the whole
phase in one collective step, as for the §6.1 base case.  A
transformation phase therefore takes exactly ``m/S = N/K`` cycles — all
``K`` channels busy — and the total cost is ``O(s * n/k)`` cycles and
``O(s * n)`` messages for recursion depth ``s``, which is Corollary 5's
claim.

As in the virtual-column algorithm, phase 7 sorts column 1 *ascending*
(implemented by recursing on order-negated elements), so the positional
phase-8 schedule remains meaningful.

Constraints: this implementation requires ``n``, ``p`` and ``k`` to be
powers of two with ``k <= p | n`` and an even distribution (the paper
makes the same kind of w.l.o.g. assumption — "n, p, and k are powers of
4^s" — justified by the §2 simulation lemma).
"""

from __future__ import annotations

from typing import Any, Sequence

from ..core.element import has_duplicates
from ..mcb.network import MCBNetwork
from ..mcb.program import ProcContext, RunPlan
from .common import neg_elem
from .even_pk import SortResult
from .rank_sort import rank_sort_group
from .virtual import virtual_columnsort, virtual_plans


def _is_pow2(x: int) -> bool:
    return x >= 1 and (x & (x - 1)) == 0


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
    # Every call of this level runs in lockstep on its own block —
    # processors b*big_p.. and channels b*big_k+1.. — so each transfer
    # phase is one block-diagonal plan over the network, which the fast
    # engine runs collectively.
    block, rest = divmod(ctx.pid - 1, big_p)
    assert rest == idx and chan_base == block * big_k, "blocks tile"
    blocks = ctx.p // big_p
    if big_k > 1 and big_n >= big_k ** 3:
        # Base: the §6.1 virtual-column Columnsort with big_k columns.
        g = big_p // big_k
        col, w = divmod(idx, g)
        plans = virtual_plans(big_n // big_k, big_k, g, blocks)
        return (yield from virtual_columnsort(
            ctx, plans, col == 0, w, chan_base + col + 1, [npp] * g, mine
        ))

    kprime = big_k // 2
    while kprime >= 2 and big_n < kprime ** 3:
        kprime //= 2
    if kprime < 2:  # one channel, or a tiny input: single-channel sort
        return (yield from rank_sort_group(
            chan_base + 1, idx, [npp] * big_p, mine, ctx=ctx
        ))

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

    # Sorting phases 1, 3, 5 and 7 (column 1 ascending in phase 7), each
    # followed by the segment-scheduled transformation phase 2, 4, 6 or 8.
    plans = virtual_plans(m, kprime, g, blocks, s_per_col)
    for plan, ascending in zip(plans, (False, False, False, col == 0)):
        mine = yield from recurse(mine, ascending)
        mine = yield RunPlan(plan, ctx.pid - 1, mine)
    return (yield from recurse(mine))  # phase 9


def sort_recursive(
    net: MCBNetwork,
    parts: dict[int, Sequence[Any]],
    *,
    phase: str = "columnsort-recursive",
) -> SortResult:
    """Sort an even power-of-two distribution with the §6.2 recursion.

    Requires ``p`` and ``k`` powers of two, ``k | p``, equal ``n_i``,
    ``p | n`` and distinct keys (§3; :func:`repro.sort.dispatch.mcb_sort`
    lifts repeated values to distinct triples).  Intended for the
    small-``n`` regime ``n < k^2(k-1)`` where it beats the fewer-columns
    fallback (Corollary 5); it is correct for larger ``n`` too (where it
    reduces to the §6.1 base case).
    """
    p, k = net.p, net.k
    if sorted(parts) != list(range(1, p + 1)):
        raise ValueError("parts must cover processors 1..p")
    if has_duplicates(parts):
        raise ValueError(
            "sort_recursive needs distinct keys (§3); sort repeated values "
            "with mcb_sort, which lifts them to distinct triples"
        )
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
