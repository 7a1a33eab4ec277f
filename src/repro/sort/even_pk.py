"""Columnsort on MCB(k, k): the basic algorithm of §5.2.

Setting: ``p = k``, even distribution, column ``i`` lives in processor
``P_i`` with ``N_i`` as the initial column data, column length
``m = n/k``.  The local sorting phases (1, 3, 5, 7, 9) cost nothing on
the network; phases 2, 4, 6 and 8 follow a collision-free broadcast
schedule in which every processor broadcasts at most one element per
cycle — ``m`` cycles and at most ``mk`` messages per phase, for a total
of ``O(n)`` messages and ``O(n/k)`` cycles.  By Theorem 3 and
Corollary 3 this is optimal (``n_max = n_max2``), and the message and
cycle bounds are achieved simultaneously.

Implementation notes:

* Receivers place incoming elements at their exact destination row (the
  schedule is globally known, so both endpoints can compute it locally);
  this realizes the matrix transformations positionally.
* Elements whose destination is their own column are kept locally
  without a broadcast ("these elements need not be shifted at all"),
  which only reduces the message count.
* Phase 9 (an extra local sort) is included as in the paper's MCB
  implementation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..columnsort.matrix import require_valid_dims
from ..mcb.errors import ConfigurationError
from ..mcb.network import MCBNetwork
from ..mcb.program import ProcContext, RunPlan
from ..mcb.vector.lower import lower_columnsort_phases
from ..mcb.vector.plan import SchedulePlan
from .common import descending


@dataclass
class SortResult:
    """Output of a distributed sort: final per-processor contents."""

    output: dict[int, tuple]

    def as_lists(self) -> dict[int, list]:
        """The output as mutable lists (convenience for callers)."""
        return {pid: list(v) for pid, v in self.output.items()}


@lru_cache(maxsize=64)
def _generator_plans(
    m: int, k: int, paper_phase2: bool, wrap_skip: bool
) -> tuple[SchedulePlan, ...]:
    """The four transfer-phase plans the generator path runs, cached.

    Each plan is checked once, statically: :meth:`SchedulePlan.compile`
    enforces collision-freedom, matched reads and unique destinations,
    and its reads plus moves must refill rows ``0..m-1`` of every
    column — except column 1's wrap-skip ghost rows after phase 6,
    whose elements stay parked at column ``k`` until phase 8 refills
    them.
    """
    plans = lower_columnsort_phases(m, k, paper_phase2, wrap_skip)
    for phase, plan in zip((2, 4, 6, 8), plans):
        compiled = plan.compile()
        filled = np.zeros((k, plan.slots), dtype=bool)
        filled[compiled.r_proc, compiled.r_dst] = True
        filled[compiled.m_proc, compiled.m_dst] = True
        want = np.ones((k, m), dtype=bool)
        if wrap_skip and phase == 6:
            want[0, : m // 2] = False
        assert (filled[:, :m] == want).all(), f"phase {phase} leaves a hole"
    return plans


def columnsort_program(
    col_idx: int,
    column: list,
    m: int,
    k: int,
    *,
    paper_phase2: bool = False,
    wrap_skip: bool = False,
):
    """Sub-generator running phases 1-9 of Columnsort for one column.

    ``col_idx`` is 0-based; ``column`` is the initial column data (length
    ``m``).  Returns the final sorted column (a descending list).  All
    ``k`` columns must run this concurrently, each writing its own
    channel ``col_idx + 1``.  With ``paper_phase2`` the transpose runs on
    the paper's closed-form schedule instead of the general one; with
    ``wrap_skip`` (``k >= 2``) phases 6 and 8 park the wrap-around
    traffic at column ``k`` instead of shifting it.

    The transfer phases 2, 4, 6 and 8 run the plans of
    :func:`~repro.mcb.vector.lower.lower_columnsort_phases` — the plans
    the vector engine compiles — each as one
    :class:`~repro.mcb.program.RunPlan` op, which stands for the plan's
    :meth:`~repro.mcb.vector.plan.SchedulePlan.as_program` ops: the fast
    engine runs a phase that all ``k`` columns enter together in one
    collective step, and every other engine steps those ops.  The local
    sorts between them only touch rows ``0..m-1``.
    """
    if m == 0:
        return []  # every phase is zero cycles long
    wrap = wrap_skip and k > 1
    p2, p4, p6, p8 = _generator_plans(m, k, bool(paper_phase2), wrap)
    row = descending(column)  # phase 1
    if wrap:
        row += [None] * (m // 2)  # parking slots for column k's wrap
    row = yield RunPlan(p2, col_idx, row)  # phase 2
    row[:m] = descending(row[:m])  # phase 3
    row = yield RunPlan(p4, col_idx, row)  # phase 4
    row[:m] = descending(row[:m])  # phase 5
    row = yield RunPlan(p6, col_idx, row)  # phase 6
    if col_idx != 0:
        row[:m] = descending(row[:m])  # phase 7: all columns except 1
    row = yield RunPlan(p8, col_idx, row)  # phase 8
    return descending(row[:m])  # phase 9


def sort_even_pk(
    net: MCBNetwork,
    columns: dict[int, list],
    *,
    paper_phase2: bool = False,
    wrap_skip: bool = False,
    phase: str = "columnsort",
    engine: str = "generator",
    backend: str = "columnsort",
) -> SortResult:
    """Sort an even distribution on MCB(k, k) (paper §5.2, basic case).

    Parameters
    ----------
    net:
        Network with ``p == k``.
    columns:
        pid -> local elements; all the same length ``m`` with
        ``m >= k(k-1)`` and ``k | m`` (columnsort backend only — the
        comparator-network backends accept any even shape).
    engine:
        ``"generator"`` (default) steps per-processor programs on the
        network's cycle loop; ``"vector"`` compiles the oblivious
        schedules and executes them as NumPy gather/scatter
        (:mod:`repro.sort.vector`) — identical outputs and stats;
        ``wrap_skip`` lowers to static park/unpark moves and is fully
        supported.
    backend:
        ``"columnsort"`` (default) runs the §5.2 pipeline below;
        ``"batcher"`` runs Batcher's odd-even merge network
        (:mod:`repro.sort.cnet_sort`) on the same engine.

    Returns
    -------
    SortResult
        pid -> descending segment (``P_1`` holds the largest elements).
    """
    if backend != "columnsort":
        if paper_phase2 or wrap_skip:
            raise ConfigurationError(
                "paper_phase2/wrap_skip are columnsort schedule "
                f"variants; backend {backend!r} has no such knobs"
            )
        from .cnet_sort import sort_cnet

        return sort_cnet(net, columns, backend, phase=phase, engine=engine)
    if engine == "vector":
        from .vector import sort_even_pk_vector

        return sort_even_pk_vector(
            net, columns,
            paper_phase2=paper_phase2, wrap_skip=wrap_skip, phase=phase,
        )
    if engine != "generator":
        raise ConfigurationError(
            f"unknown engine {engine!r}; expected 'generator' or 'vector'"
        )
    k = net.k
    if net.p != k:
        raise ValueError(f"sort_even_pk requires p == k, got p={net.p}, k={k}")
    if sorted(columns) != list(range(1, k + 1)):
        raise ValueError("columns must be given for every processor 1..k")
    lengths = {len(c) for c in columns.values()}
    if len(lengths) != 1:
        raise ValueError(f"distribution is not even: lengths {sorted(lengths)}")
    m = lengths.pop()
    require_valid_dims(m, k)

    def program(ctx: ProcContext):
        result = yield from columnsort_program(
            ctx.pid - 1, list(columns[ctx.pid]), m, k,
            paper_phase2=paper_phase2, wrap_skip=wrap_skip,
        )
        return result

    out = net.run({i: program for i in range(1, k + 1)}, phase=phase)
    return SortResult(output={pid: tuple(v) for pid, v in out.items()})
