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
* The pipeline is the ``columnsort`` comparator network
  (:func:`repro.mcb.cnet.columnsort_network`), so it runs through the
  same drivers as every other ``p = k`` backend
  (:mod:`repro.sort.cnet_sort`).
"""

from __future__ import annotations

from ..mcb.network import MCBNetwork
from .cnet_sort import cnet_plans, cnet_program, sort_cnet
from .common import SortResult


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

    This is :func:`~repro.sort.cnet_sort.cnet_program` on the
    ``columnsort`` network: the transfer phases 2, 4, 6 and 8 run the
    plans of :func:`~repro.mcb.vector.lower.lower_columnsort_phases` —
    the plans the vector engine compiles — each as one
    :class:`~repro.mcb.program.RunPlan` op, and the local sorts between
    them only touch rows ``0..m-1``.
    """
    plans = cnet_plans("columnsort", m, k, paper_phase2, wrap_skip) if m else ()
    return (yield from cnet_program("columnsort", col_idx, column, m, k, plans))


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
        schedules and executes each as two NumPy gathers — identical
        outputs and stats; ``wrap_skip`` lowers to static park/unpark
        moves and is fully supported.
    backend:
        ``"columnsort"`` (default) runs the §5.2 pipeline;
        ``"batcher"`` runs Batcher's odd-even merge network.  Both are
        comparator networks run by :func:`repro.sort.cnet_sort.sort_cnet`
        on the chosen engine.

    Returns
    -------
    SortResult
        pid -> descending segment (``P_1`` holds the largest elements).
    """
    if backend == "columnsort" and net.p != net.k:
        raise ValueError(
            f"sort_even_pk requires p == k, got p={net.p}, k={net.k}"
        )
    return sort_cnet(
        net, columns, backend, phase=phase, engine=engine,
        paper_phase2=paper_phase2, wrap_skip=wrap_skip,
    )
