"""Memory-efficient Columnsort via virtual columns (paper §6.1).

"We consider each group of processors as a single virtual processor with
a single virtual column, thus avoiding altogether the need for phases 0
and 10."  Each group of ``g = p/k`` processors holds one column of
length ``m = n/k`` (member ``w`` owns rows ``[w*n/p, (w+1)*n/p)`` in the
canonical layout); the group's channel carries all its traffic.

* Sorting phases (1, 3, 5, 7, 9) run a single-channel group sort —
  Rank-Sort by default, or the O(1)-memory Merge-Sort — as if each group
  were "a separate MCB(p/k, 1)".
* Transformation phases (2, 4, 6, 8) follow the usual ``m``-cycle
  schedule, but "all the work of a virtual processor during a given
  cycle is carried out by the processor containing the element to be
  broadcast in that cycle.  The element received during the cycle can be
  stored over the one just sent" — O(1) extra storage.  That schedule is
  oblivious, so each phase is one plan,
  :func:`~repro.mcb.vector.lower.lower_virtual_phase`, which every member
  runs as a :class:`~repro.mcb.program.RunPlan` op (the fast engine
  moves the whole phase in one collective step).  This scatters the
  column's contents across the group, which is harmless because the
  next sorting phase redistributes canonically.

Resolution of a paper-implicit point: phase 7 must *not* leave column 1
unsorted here (the scattering would make phase 8's positional schedule
meaningless), so column 1 is sorted **ascending** instead — the wrapped
elements (globally smallest) land exactly in the top ``m/2`` rows where
the down-shift expects them, and phase 9 restores descending order.
Verified against the sequential reference on randomized inputs (see
``tests/test_columnsort_reference.py``).

Total cost: ``O(n/k)`` cycles, ``O(n)`` messages, and per-processor
auxiliary memory ``O(n_i)`` with Rank-Sort or ``O(1)`` with Merge-Sort —
the memory/simplicity trade-off of §6.1 that ``benchmarks/bench_memory``
measures.

:func:`sort_virtual` is one stage in which every processor yields one
:class:`VirtualSort` op (``net.run_stage``).  The op is *defined* by
its program, :func:`virtual_columnsort` — the phases above — which the
reference interpreter, every observed run, the §2 simulators and every
declined step run, with their group sorts and transfers as collective
ops of their own.  Unobserved, with distinct int keys and Rank-Sort,
the fast engine instead runs the whole sort from
:meth:`VirtualSort.stage`, one NumPy table of the ``(p, n/p)``
elements, charged exactly what those phases charge.
"""

from __future__ import annotations

from typing import Any, Generator, Literal, Optional, Sequence

import numpy as np

from ..columnsort.matrix import require_valid_dims
from ..core.element import has_duplicates
from ..mcb.errors import MCBError, ProtocolError
from ..mcb.network import MCBNetwork
from ..mcb.program import Collective, ProcContext, RunPlan, StageOp
from ..mcb.vector.cache import plan_registry
from ..mcb.vector.executor import detect_dtype_rows, message_bits
from ..mcb.vector.lower import lower_virtual_phase
from ..mcb.vector.plan import SchedulePlan
from .common import neg_elem
from .even_pk import SortResult
from .merge_sort import merge_sort_group
from .rank_sort import rank_sort_group

Sorter = Literal["rank", "merge"]


def virtual_plans(
    m: int, k: int, g: int, blocks: int = 1, segments: int = 1
) -> tuple[SchedulePlan, ...]:
    """The :func:`~repro.mcb.vector.lower.lower_virtual_phase` plans of
    transformation phases 2, 4, 6 and 8 — §6.1's with one channel per
    column, §6.2's segment transformations with ``segments`` channels
    per column — from the shared
    :class:`~repro.mcb.vector.cache.PlanRegistry` (``backend="virtual"``).

    On a true miss each plan is checked once: it compiles, and each
    processor's reads refill exactly the slots it writes.
    """

    def build() -> tuple[SchedulePlan, ...]:
        plans = tuple(
            lower_virtual_phase(phase, m, k, g, blocks, segments)
            for phase in (2, 4, 6, 8)
        )
        for phase, plan in zip((2, 4, 6, 8), plans):
            sent = plan.writes[:, [1, 3]].tolist()
            got = plan.reads[:, [1, 3]].tolist()
            assert sorted(sent) == sorted(got), f"phase {phase} leaves a hole"
        return plans

    return plan_registry().lookup(
        f"virtual_m{m}_k{k}_g{g}_b{blocks}_s{segments}",
        backend="virtual", build=build,
    )


def virtual_columnsort(
    ctx: ProcContext,
    plans: Sequence[SchedulePlan],
    first: bool,
    member: int,
    channel: int,
    counts: Sequence[int],
    mine: list[Any],
    sorter: Sorter = "rank",
):
    """Sub-generator: phases 1-9 for group member ``member`` of a virtual
    column sorted on ``channel``; returns my canonical descending segment.

    ``plans`` are the column's :func:`virtual_plans` (``None`` each for
    an empty column), in which I am processor ``ctx.pid - 1``; ``first``
    marks column 1.
    """

    def sort_phase(elems, ascending=False):
        # The group sort's own generator where possible: each of its
        # cycles then resumes through one frame fewer.
        if sorter == "rank":
            return rank_sort_group(
                channel, member, counts, elems, ascending=ascending, ctx=ctx
            )
        if not ascending:
            return merge_sort_group(channel, member, counts, elems, ctx=ctx)
        # Merge-Sort has no ascending mode; a descending Merge-Sort of the
        # order-negated elements is the same thing (and keeps the O(1)
        # memory footprint and cycle alignment).
        return _negated(merge_sort_group(
            channel, member, counts, [neg_elem(e) for e in elems], ctx=ctx
        ))

    # Sorting phases 1, 3, 5 and 7, each followed by transfer phase 2, 4,
    # 6 or 8.  Phase 7 sorts column 1 ascending (the wrapped elements go
    # to the top rows).
    for ascending, plan in zip((False, False, False, first), plans):
        mine = yield from sort_phase(mine, ascending)
        if plan is not None:  # None: an empty column, no cycle to run
            mine = yield RunPlan(plan, ctx.pid - 1, mine)
    return (yield from sort_phase(mine))  # phase 9


def _negated(sort):
    """Sub-generator: run ``sort``; return its result order-negated."""
    return [neg_elem(e) for e in (yield from sort)]


class VirtualSort(StageOp):
    """``P_pid``'s part of :func:`sort_virtual`: ``value`` is its
    elements and ``shared`` is ``(p, k, g, n_i, sorter, plans)``, the
    shape, the group sort and the columns' :func:`virtual_plans`.

    ``out = yield VirtualSort(...)`` is *defined* by its program,
    :func:`virtual_columnsort` for member ``(pid - 1) % g`` of column
    ``(pid - 1) // g + 1``: ``out`` is ``P_pid``'s canonical descending
    segment.
    """

    __slots__ = ()

    label = "virtual_sort"

    def check(self, pid: int, k: int) -> None:
        """The columns use at most the network's ``k`` channels."""
        ks = self.shared[1]
        if ks > k:
            raise ProtocolError(
                f"P{pid} sorts virtual columns for k={ks} (k={k})"
            )

    def program(self) -> Generator:
        """:func:`virtual_columnsort` for my column and member."""
        _, _, g, npp, sorter, plans = self.shared
        col, w = divmod(self.ctx.pid - 1, g)
        return virtual_columnsort(
            self.ctx, plans, col == 0, w, col + 1, [npp] * g,
            list(self.value), sorter,
        )

    @classmethod
    def stage(
        cls, values: list, shared: tuple, span: int, max_fields: int
    ) -> Optional[Collective]:
        """The whole Rank-Sort columnsort on one ``(p, n_i)`` int64
        table: each sorting phase one ``argsort`` per column, each
        transfer its compiled plan's gather.

        Taken only if the sorter is Rank-Sort, the columns are not
        empty, every element is an exact int strictly inside
        ``±2^62``, the keys are distinct and the ``14 m`` cycles end
        within ``span``.  Then each sorting phase charges what
        :meth:`~repro.sort.rank_sort.SortGroup.collective` charges —
        ``m`` messages plus one per moved element on each column's
        channel, and ``2 m`` cycles — and each transfer what its
        :class:`~repro.mcb.program.RunPlan` charges.  Every processor
        peaks at Rank-Sort's ``2 n_i + 1`` aux slots.
        """
        p, k, g, npp, sorter, plans = shared
        m = g * npp
        if (
            sorter != "rank" or not m or max_fields < 1
            or len(values) != p or 14 * m > span
            or any(len(row) != npp for row in values)
            or detect_dtype_rows(values) != np.int64
        ):
            return None
        try:
            phases = [plan.compile() for plan in plans]
        except MCBError:
            return None
        if any(
            (ph.p, ph.k, ph.slots, ph.cycles) != (p, k, npp, m)
            for ph in phases
        ):
            return None
        flat = np.array(values, dtype=np.int64).ravel()
        keys = np.sort(flat)
        if (keys[1:] == keys[:-1]).any():
            return None  # repeated keys: stepping collides

        bits = 5 * int(message_bits(keys).sum())
        cw = np.zeros(k + 1, dtype=np.int64)
        seat = np.arange(m) // npp  # the member holding each row
        for i in range(5):  # sorting phases 1, 3, 5, 7 and 9
            cols = flat.reshape(k, m)
            order = np.argsort(cols, axis=1)
            # Descending, but column 1 ascending in phase 7.
            order = np.concatenate(
                (order[:1] if i == 3 else order[:1, ::-1], order[1:, ::-1])
            )
            cols = np.take_along_axis(cols, order, axis=1)
            moved = order // npp != seat
            cw[1:] += m + moved.sum(axis=1)
            bits += int(message_bits(cols[moved]).sum())
            flat = cols.ravel()
            if i < 4:  # transfer phase 2, 4, 6 or 8
                phase = phases[i]
                sent = flat[phase.w_flat]
                flat = np.concatenate((sent, flat))[phase.out_idx.ravel()]
                cw += phase.channel_write_counts()
                bits += int(message_bits(sent).sum())
        return Collective(
            flat.reshape(p, npp).tolist(), bits,
            [(ch, n) for ch, n in enumerate(cw.tolist()) if ch and n],
            14 * m, 0, [2 * npp + 1] * p,
        )


def sort_virtual(
    net: MCBNetwork,
    parts: dict[int, Sequence[Any]],
    *,
    sorter: Sorter = "rank",
    phase: str = "columnsort-virtual",
) -> SortResult:
    """Sort an even distribution on MCB(p, k) without collecting columns.

    Parameters
    ----------
    net:
        Network with ``k | p``.
    parts:
        pid -> local elements, all of equal size ``n/p``; the virtual
        column length ``m = n/k`` must satisfy ``m >= k(k-1)``, ``k | m``.
    sorter:
        ``"rank"`` (Rank-Sort, O(n_i) aux memory) or ``"merge"``
        (Merge-Sort, O(1) aux memory) for the virtual-column sorting
        phases.

    Keys must be distinct, as both group sorts need (§3);
    :func:`repro.sort.dispatch.mcb_sort` lifts repeated values to
    distinct ``(value, pid, index)`` triples first.
    """
    p, k = net.p, net.k
    if sorted(parts) != list(range(1, p + 1)):
        raise ValueError("parts must cover processors 1..p")
    if has_duplicates(parts):
        raise ValueError(
            "sort_virtual needs distinct keys (§3); sort repeated values "
            "with mcb_sort, which lifts them to distinct triples"
        )
    if p % k != 0:
        raise ValueError(f"this variant assumes k | p, got p={p}, k={k}")
    lengths = {len(v) for v in parts.values()}
    if len(lengths) != 1:
        raise ValueError(f"distribution is not even: lengths {sorted(lengths)}")
    npp = lengths.pop()
    g = p // k
    m = g * npp  # virtual column length
    require_valid_dims(m, k)
    plans = virtual_plans(m, k, g) if m else (None,) * 4
    out = net.run_stage(
        VirtualSort, [parts[pid] for pid in range(1, p + 1)],
        (p, k, g, npp, sorter, plans), phase=phase,
    )
    return SortResult(output={pid: tuple(v) for pid, v in enumerate(out, 1)})
