"""Sorting uneven distributions (paper Section 7.2).

The even-case algorithm relies on every processor holding the same number
of elements; here the input sizes ``n_i`` are arbitrary (and only locally
known).  The paper's plan, implemented stage by stage:

1. **Partial sums** (two applications of §7.1): every processor learns
   ``n`` and ``n_max`` (tree total-sums with ``+`` and ``max``) and its
   own partial sums ``n^+_{i-1}, n^+_i, n^+_{i+1}``.
2. **Group formation**: groups are formed one at a time; group ``j``
   absorbs processors while the (revised) partial sum stays below
   ``n/k + n_max - 1``, so every group holds ``m_j`` elements with
   ``n/k <= m_j < n/k + n_max`` (the trailing group may be smaller).
   The group's highest-numbered processor self-identifies as the
   *representative* — it sees the threshold fall between its own partial
   sum and its successor's — and announces ``(id, m_j)`` to the network;
   at most ``k`` announcement rounds.
3. **Element collection**: within each group (in parallel, one channel
   per group) members send their elements to the representative, each
   awaiting its turn by counting cycles — the wait is its revised partial
   sum, exactly as in the paper.  Columns are then padded with dummies to
   the common length ``M`` (max group size rounded up to a multiple of
   the column count).
4. **Phases 1–9** of Columnsort among the representatives.
5. **Phase 10**: representatives broadcast their columns twice (dummies
   silent) and every processor collects its own target segment, which
   spans at most two columns since ``n_i <= n_max <= M``.

Once the group counts are known, stages 3 and 5 are oblivious: each is
one :class:`~repro.mcb.vector.plan.SchedulePlan` (:func:`group_plans`)
whose write cycles are exactly those above — in collection, a member's
``t``-th element goes out in cycle ``revised partial sum + t`` — run as
one :class:`~repro.mcb.program.RunPlan` op, like stage 4's Columnsort
phases.  :func:`group_program` is one processor's part of stages 3–5;
§8's pair sort (:func:`repro.sort.ones.sort_ones`) is the same program
with fixed groups and a single broadcast pass.

Total: ``O(n/k + n_max)`` cycles and ``O(n + p)`` messages — by
Corollary 6 this is ``Theta(max{n/k, n_max})`` cycles and ``Theta(n)``
messages whenever ``n_max <= alpha * n`` for a constant ``alpha < 1``.

When ``n < k^2(k-1)`` the column count is capped at the largest valid
``k'`` (§5.2's fallback), so the implementation works for any input.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Any, Optional, Sequence

import numpy as np

from ..columnsort.matrix import max_columns_for
from ..mcb.message import EMPTY, Message
from ..mcb.network import MCBNetwork
from ..mcb.program import CycleOp, ProcContext, RunPlan, Sleep
from ..mcb.vector.plan import SchedulePlan
from ..prefix.mcb_partial_sums import mcb_partial_sums, mcb_total_sum
from .common import dummy_like
from .even_pk import SortResult, columnsort_program


def sort_uneven(
    net: MCBNetwork,
    parts: dict[int, Sequence[Any]],
    *,
    phase: str = "columnsort-uneven",
) -> SortResult:
    """Sort an arbitrary (uneven) distribution on MCB(p, k)."""
    p, k = net.p, net.k
    if sorted(parts) != list(range(1, p + 1)):
        raise ValueError("parts must cover processors 1..p")
    if any(len(v) == 0 for v in parts.values()):
        raise ValueError("the paper assumes n_i > 0 for every processor")

    counts = {i: len(parts[i]) for i in parts}

    # --- stage 1: partial sums (network stages, honestly costed) --------
    sums = mcb_partial_sums(
        net, counts, include_next=True, phase=f"{phase}/partial-sums"
    )
    n = mcb_total_sum(net, counts, phase=f"{phase}/total-n")[1]
    n_max = mcb_total_sum(
        net, counts, op=max, identity=0, phase=f"{phase}/total-nmax"
    )[1]

    k_used_cap = max_columns_for(n, k)
    threshold_width = math.ceil(n / k_used_cap) + n_max - 1

    # --- stage 2: group formation ---------------------------------------
    # Every processor runs the same announcement protocol; the groups
    # list ends up identical everywhere (it is broadcast knowledge).
    def formation_program(ctx: ProcContext):
        pid = ctx.pid
        my_prev = sums[pid].prev
        my_incl = sums[pid].incl
        my_next = sums[pid].next
        groups: list[tuple[int, int]] = []  # (rep pid, m_j)
        base = 0
        while base < n:
            t_r = base + threshold_width
            i_am_rep = (
                my_incl > base  # not grouped yet
                and my_incl <= t_r
                and (pid == p or my_next > t_r)
            )
            if i_am_rep:
                yield CycleOp(
                    write=1,
                    payload=Message("group", pid, my_incl - base),
                    read=1,
                )
                groups.append((pid, my_incl - base))
                base = my_incl
            else:
                got = yield CycleOp(read=1)
                assert got is not EMPTY, "a representative must announce"
                groups.append((got[0], got[1]))
                base += got[1]
        return groups

    groups_all = net.run(
        {i: formation_program for i in range(1, p + 1)},
        phase=f"{phase}/group-formation",
    )
    groups = groups_all[1]
    assert all(g == groups for g in groups_all.values())
    k_used = len(groups)
    assert k_used <= k_used_cap
    m_pad = max(m_j for _, m_j in groups)
    m_pad = math.ceil(m_pad / k_used) * k_used

    # --- stages 3-5 -----------------------------------------------------
    bounds = [0] + [sums[i].incl for i in range(1, p + 1)]
    reps = [rep for rep, _ in groups]
    plans = group_plans(reps, bounds, m_pad, 2)

    def program(ctx: ProcContext):
        return (yield from group_program(
            ctx, parts[ctx.pid], reps, bounds, m_pad, m_pad, plans
        ))

    results = net.run(
        {i: program for i in range(1, p + 1)}, phase=f"{phase}/sort"
    )
    return SortResult(output={pid: tuple(v) for pid, v in results.items()})


def group_plans(
    reps: Sequence[int], bounds: Sequence[int], m_pad: int, passes: int
) -> tuple[Optional[SchedulePlan], SchedulePlan]:
    """Stage 3's collection plan and stage 5's broadcast plan.

    Group ``j`` is the processors after ``reps[j-1]`` up to its
    representative ``reps[j]`` and talks on channel ``j + 1``;
    ``bounds[i - 1]`` and ``bounds[i]`` are ``P_i``'s partial sums
    ``n^+_{i-1}`` and ``n^+_i`` (so ``bounds[p] = n``).  Every row has
    ``m_pad`` slots.

    * Collection: a member writes its ``t``-th element in cycle
      ``n^+_{i-1} - base_j + t`` — its revised partial sum, the wait the
      paper's members count — and the representative reads it into
      that slot.  The plan ends with its last write; it is ``None`` if
      nobody writes (every group is a single processor).
    * Broadcast (``passes * m_pad`` cycles): in each pass every
      representative writes each real row of its column — the positions
      ``< n`` in column-major order: real elements are finite, so the
      dummies sort to the tail — and ``P_i`` reads its segment
      ``[n^+_{i-1}, n^+_i)`` into slots ``0..n_i-1``.  The segment's
      ``c``-th column is read in pass ``c``, so a segment may span
      ``passes`` columns.

    Both plans' events are int64 arrays built with NumPy, one write
    (and one read) per element position per pass, in position order.
    """
    p, n, k_used = len(bounds) - 1, bounds[-1], len(reps)
    rep = np.asarray(reps, dtype=np.int64)
    bound = np.asarray(bounds, dtype=np.int64)
    pos = np.arange(n, dtype=np.int64)
    # Each position's owner P_{owner+1}, its slot there and its group.
    owner = np.repeat(np.arange(p, dtype=np.int64), np.diff(bound))
    slot = pos - bound[owner]
    group = np.searchsorted(rep, owner + 1)
    member = owner + 1 != rep[group]
    collect = None
    if member.any():
        # Group j's base is the partial sum before its first processor.
        base = bound[np.concatenate([[0], rep[:-1]])]
        g = group[member]
        cycle = (pos - base[group])[member]
        collect = SchedulePlan(
            p, k_used, int(cycle.max()) + 1, m_pad,
            np.stack([cycle, owner[member], g + 1, slot[member]], axis=1),
            np.stack([cycle, rep[g] - 1, g + 1, cycle], axis=1),
        )

    col, row = np.divmod(pos, m_pad)
    cycle = (col - bound[owner] // m_pad) * m_pad + row
    assert (cycle < passes * m_pad).all(), "a segment spans too many columns"
    writes = np.stack([row, rep[col] - 1, col + 1, row], axis=1)
    writes = np.tile(writes, (passes, 1))
    writes[:, 0] += np.repeat(np.arange(passes, dtype=np.int64) * m_pad, n)
    reads = np.stack([cycle, owner, col + 1, slot], axis=1)
    return collect, SchedulePlan(p, k_used, passes * m_pad, m_pad, writes, reads)


def stage3_row(pid: int, mine: list, reps, bounds, m_pad: int, pad) -> list:
    """``P_pid``'s ``m_pad``-slot row entering stage 3: a member's own
    elements, or a representative's column — ``None`` for each element
    its members will send, its own elements, then ``pad(r)`` for the
    ``r``-th dummy."""
    j = bisect_left(reps, pid)  # my group: the first rep >= pid
    if pid != reps[j]:
        return mine + [None] * (m_pad - len(mine))
    heard = bounds[pid - 1] - bounds[reps[j - 1] if j else 0]
    row = [None] * heard + mine
    return row + [pad(r) for r in range(m_pad - len(row))]


def group_program(
    ctx: ProcContext, elems: Sequence[Any], reps: Sequence[int],
    bounds: Sequence[int], m_pad: int, collect_cycles: int, plans: tuple,
):
    """Sub-generator: ``P_ctx.pid``'s part of stages 3-5 of §7.2 —
    collection, Phases 1-9 of Columnsort among the representatives,
    Phase 10 — over its elements ``elems``.

    ``reps``, ``bounds`` and ``m_pad`` are as in :func:`group_plans`,
    which built ``plans``.  Collection lasts ``collect_cycles``: its
    plan, then a sleep for the rest.  A representative holds its column
    (:func:`stage3_row`) in ``m_pad`` aux slots until Phase 10 ends.
    Returns the processor's segment, a list (at once, after no cycle,
    when there is nothing to sort: ``m_pad == 0``).
    """
    if not m_pad:
        return []
    pid = ctx.pid
    collect, bcast = plans
    k_used = len(reps)
    rest = collect_cycles - (collect.cycles if collect is not None else 0)
    j = bisect_left(reps, pid)
    is_rep = pid == reps[j]
    mine = list(elems)
    if is_rep:
        ctx.aux_acquire(m_pad)
    row = stage3_row(pid, mine, reps, bounds, m_pad,
                     lambda r: dummy_like(mine[0], seq=r))
    if collect is not None:
        row = yield RunPlan(collect, pid - 1, row)
    if rest > 0:
        yield Sleep(rest)
    if is_rep:
        row = yield from columnsort_program(j, row, m_pad, k_used)
    else:
        yield Sleep(4 * m_pad)
    row = yield RunPlan(bcast, pid - 1, row)
    if is_rep:
        ctx.aux_release(m_pad)
    return row[: bounds[pid] - bounds[pid - 1]]
