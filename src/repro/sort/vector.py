"""Vector-engine support for the p = k sorts: compiled plans + batching.

Every even ``p = k`` sort is a comparator network
(:mod:`repro.mcb.cnet`) whose communication rounds are oblivious
plans; :mod:`repro.sort.cnet_sort` runs them on either engine.  This
module holds what the vector side shares:

* :func:`compiled_columnsort_phases` compiles the four §5.2
  transformation plans of
  :func:`repro.mcb.vector.lower.lower_columnsort_phases` — the same
  plans the generator engines run — once per
  ``(m, k, paper_phase2, wrap_skip)`` (cached, with hit/miss and
  compile-time counters on the global metrics registry);
  ``wrap_skip`` compiles too, since the wrap-around optimization is a
  static permutation once column ``k``'s wrapped elements get
  ``floor(m/2)`` parking slots beyond the column
  (:func:`repro.mcb.vector.lower.lower_wrap_skip`);
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
from ..mcb.vector import (
    CompiledPhase,
    VectorRun,
    build_batched_state,
    lower_columnsort_phases,
)
from ..mcb.vector.cache import (
    columnsort_plan_stem,
    plan_registry,
)
from .common import SortResult


def compiled_columnsort_phases(
    m: int, k: int, paper_phase2: bool = False, wrap_skip: bool = False
) -> tuple[CompiledPhase, ...]:
    """The four compiled transformation phases for an ``m x k`` sort.

    Cached per ``(m, k, paper_phase2, wrap_skip)`` in the process-wide
    :class:`~repro.mcb.vector.cache.PlanRegistry` (shared with the
    comparator-network backends), backed by the persistent on-disk
    cache (``~/.cache/repro/plans`` or ``$REPRO_PLAN_CACHE``), so a
    fresh process loads compiled plans in milliseconds instead of
    recompiling.  Every lookup counts on ``vector_plan_cache_total``
    (labelled ``result=hit|disk_hit|miss`` and
    ``backend="columnsort"``) and each true miss adds its wall time to
    the ``vector_plan_compile_seconds`` counter, both on
    :func:`repro.obs.metrics.global_registry`, so compile cost is
    visible in ``/metrics``.  :func:`prewarm_plan_cache` fills the
    cache ahead of the first job (service workers do this at pool
    start).
    """
    paper_phase2 = bool(paper_phase2)
    wrap_skip = bool(wrap_skip)

    def build() -> tuple[CompiledPhase, ...]:
        return tuple(
            plan.compile()
            for plan in lower_columnsort_phases(m, k, paper_phase2, wrap_skip)
        )

    return plan_registry().lookup(
        columnsort_plan_stem(m, k, paper_phase2, wrap_skip),
        backend="columnsort",
        build=build,
    )


#: Mirror the functools.lru_cache surface the tests (and any cached
#: callers) rely on.  Clearing evicts *every* backend's entries — the
#: registry is the single eviction surface.
compiled_columnsort_phases.cache_clear = plan_registry().clear  # type: ignore[attr-defined]


def prewarm_plan_cache(configs: Iterable[Sequence]) -> int:
    """Compile plans ahead of the first job; returns configs warmed.

    Two config shapes are accepted, covering every backend through the
    shared :class:`~repro.mcb.vector.cache.PlanRegistry`:

    * ``(m, k[, paper_phase2[, wrap_skip]])`` — columnsort
      transformation phases (the historical form);
    * ``(backend, m, k)`` — a comparator-network backend by name
      (``"batcher"``, or ``"columnsort"`` for the plain phases).

    Intended as a worker-pool initializer: spawn-context workers start
    with an empty module cache, so without pre-warming every worker
    pays the full schedule compile on its first job.
    """
    from .cnet_sort import compiled_cnet_phases

    warmed = 0
    for cfg in configs:
        if cfg and isinstance(cfg[0], str):
            compiled_cnet_phases(cfg[0], int(cfg[1]), int(cfg[2]))
            warmed += 1
            continue
        m, k, *rest = cfg
        paper_phase2 = bool(rest[0]) if len(rest) > 0 else False
        wrap_skip = bool(rest[1]) if len(rest) > 1 else False
        compiled_columnsort_phases(int(m), int(k), paper_phase2, wrap_skip)
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
    from ..mcb.cnet import build_network
    from .cnet_sort import (
        _cnet_pipeline,
        _column_length,
        _variant,
        _phase_label,
    )

    if not batches:
        raise ConfigurationError("sort_even_pk_batch needs at least one lane")
    variant = _variant(backend, k, paper_phase2, wrap_skip)
    network = build_network(backend, k)
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
    state = _cnet_pipeline(run, state, network, m, variant)
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
