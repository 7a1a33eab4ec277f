"""Vector-engine support for the p = k sorts: compiled plans + batching.

Every even ``p = k`` sort is a comparator network
(:mod:`repro.mcb.cnet`) whose communication rounds are oblivious
plans; :mod:`repro.sort.cnet_sort` runs them on either engine.  This
module holds what the vector side shares:

* :func:`prewarm_plan_cache` fills the plan cache ahead of the first
  job;
* :func:`sort_even_pk_batch`, the batch axis: ``B`` independent
  instances (same ``(k, m)``, different data) run through one compiled
  schedule as a single ``(k, slots, B)`` pass, amortizing compilation
  and all per-phase Python overhead across the batch.

Outputs and ``RunStats.to_dict()`` equal the generator engines' bit
for bit (``tests/test_vector_columnsort.py``,
``tests/test_differential.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ..mcb.errors import ConfigurationError
from ..mcb.trace import RunStats
from ..mcb.vector import VectorRun, build_batched_state
from .cnet_sort import (
    _cnet_pipeline,
    _column_length,
    _phase_label,
    _variant,
    cnet_plans,
)
from .common import SortResult


def prewarm_plan_cache(configs: Iterable[Sequence]) -> int:
    """Lower and compile plans ahead of the first job; returns configs
    warmed.

    Two config shapes are accepted, both fetched through
    :func:`~repro.sort.cnet_sort.cnet_plans`:

    * ``(m, k[, paper_phase2[, wrap_skip]])`` — columnsort
      transformation phases (the historical form);
    * ``(backend, m, k[, paper_phase2[, wrap_skip]])`` — a
      comparator-network backend by name (``"batcher"``, or
      ``"columnsort"``); a variant on any backend but columnsort
      raises :class:`~repro.mcb.errors.ConfigurationError`.

    Intended as a worker-pool initializer: spawn-context workers start
    with an empty registry, so without pre-warming every worker pays
    the full schedule compile (or disk load) on its first job.
    """
    warmed = 0
    for cfg in configs:
        if not isinstance(cfg[0], str):
            cfg = ("columnsort", *cfg)
        backend, m, k, *variant = cfg
        cnet_plans(backend, int(m), int(k), *map(bool, variant))
        warmed += 1
    return warmed


@dataclass
class BatchSortResult:
    """Outputs of a batched vector sort: one result + stats per lane."""

    results: list[SortResult]
    stats: list[RunStats]


def sort_even_pk_batch(
    k: int,
    batches: Sequence[dict[int, list]],
    *,
    paper_phase2: bool = False,
    wrap_skip: bool = False,
    phase: str = "columnsort",
    backend: str = "columnsort",
) -> BatchSortResult:
    """Sort ``B`` independent even ``p = k`` instances in one pass.

    Every batch lane must present the same ``(k, m)`` shape (different
    data/seeds are the point); the compiled schedule executes once over
    a ``(k, m, B)`` state.  Lane ``b``'s ``stats[b]`` is exactly the
    ``RunStats`` a solo run of lane ``b`` would produce: structural
    counters (cycles, messages, channel writes) are shared by
    construction, bits are accounted per lane.

    ``backend`` selects the network (:mod:`repro.mcb.cnet`):
    ``"columnsort"`` (default) runs the §5.2 pipeline, ``"batcher"``
    Batcher's odd-even merge network, both through
    :func:`repro.sort.cnet_sort._cnet_pipeline` like a solo vector sort.
    The network backends accept any even shape (no columnsort dimension
    rule) but have no ``paper_phase2`` / ``wrap_skip`` variants —
    requesting them together is refused.
    """
    if not batches:
        raise ConfigurationError("sort_even_pk_batch needs at least one lane")
    variant = _variant(backend, k, paper_phase2, wrap_skip)
    m = _column_length(k, batches[0], backend)
    for lane in batches[1:]:
        if _column_length(k, lane, backend) != m:
            raise ValueError("all batch lanes must share the same (k, m)")
    state = build_batched_state(
        [[lane[pid] for pid in range(1, k + 1)] for lane in batches]
    )
    run = VectorRun(
        k, k, phase=_phase_label(backend, phase), batch=len(batches)
    )
    state = _cnet_pipeline(run, state, backend, m, variant)
    lane_phases = run.finish()
    # One contiguous (B, k, m) conversion instead of B strided slices,
    # then C-level dict/tuple assembly per lane.
    all_rows = np.ascontiguousarray(state[:, :m].transpose(2, 0, 1)).tolist()
    pids = range(1, k + 1)
    results = [
        SortResult(output=dict(zip(pids, map(tuple, rows))))
        for rows in all_rows
    ]
    return BatchSortResult(
        results=results,
        stats=[RunStats(phases=[ph]) for ph in lane_phases],
    )
