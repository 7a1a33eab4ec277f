"""Vectorized §5.2 columnsort: compiled schedules + multi-instance batching.

The even ``p = k`` columnsort is fully oblivious: phases 2/4/6/8 follow
fixed broadcast schedules and phases 1/3/5/7/9 are free local sorts.
This module compiles the four transformation schedules once per
``(m, k, paper_phase2, wrap_skip)`` (cached, with hit/miss and
compile-time counters on the global metrics registry) and executes a
whole sort as nine whole-matrix NumPy operations instead of ``4m``
generator dispatch rounds — with bit-identical outputs and identical
``RunStats.to_dict()`` accounting to the generator engines, verified by
``tests/test_vector_columnsort.py``.

``wrap_skip=True`` compiles too: the §5.2 wrap-around optimization is a
*static* permutation once column ``k``'s wrapped elements are given
``floor(m/2)`` parking slots beyond the column
(:func:`repro.mcb.vector.lower.lower_wrap_skip`), so the vector engine
runs it with the generator's exact message savings.  Only the adaptive
``mcb_sort`` strategies (merge_sort, sample_partition, ...) remain
generator-only — their traffic depends on run-time data.

:func:`sort_even_pk_batch` adds the batch axis: ``B`` independent
instances (same ``(k, m)``, different data) run through one compiled
schedule as a single ``(k, m, B)`` pass, amortizing compilation and all
per-phase Python overhead across the batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ..columnsort.matrix import require_valid_dims
from ..mcb.errors import ConfigurationError
from ..mcb.network import MCBNetwork
from ..mcb.trace import RunStats
from ..mcb.vector import (
    CompiledPhase,
    VectorRun,
    build_batched_state,
    build_state,
    lower_paper_transpose,
    lower_phase_columnar,
    lower_wrap_skip,
)
from ..mcb.vector.cache import (
    columnsort_plan_stem,
    plan_registry,
)
from .even_pk import SortResult


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
        first = (
            lower_paper_transpose(m, k)
            if paper_phase2
            else lower_phase_columnar(2, m, k)
        )
        fourth = lower_phase_columnar(4, m, k)
        if wrap_skip:
            plan6, plan8 = lower_wrap_skip(m, k)
        else:
            plan6 = lower_phase_columnar(6, m, k)
            plan8 = lower_phase_columnar(8, m, k)
        return (
            first.compile(), fourth.compile(),
            plan6.compile(), plan8.compile(),
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
    warmed = 0
    for cfg in configs:
        if cfg and isinstance(cfg[0], str):
            backend, m, k = cfg[0], int(cfg[1]), int(cfg[2])
            if backend == "columnsort":
                compiled_columnsort_phases(m, k)
            else:
                from .cnet_sort import compiled_cnet_phases

                compiled_cnet_phases(backend, m, k)
            warmed += 1
            continue
        m, k, *rest = cfg
        paper_phase2 = bool(rest[0]) if len(rest) > 0 else False
        wrap_skip = bool(rest[1]) if len(rest) > 1 else False
        compiled_columnsort_phases(int(m), int(k), paper_phase2, wrap_skip)
        warmed += 1
    return warmed


def _descending(
    state: np.ndarray, skip_first: bool = False, width: int | None = None
) -> np.ndarray:
    """Sort every column (row of ``state``) descending, in place.

    Ties carry no hidden order: equal values are equal elements (bit
    accounting is a function of the value), so an in-place sort matches
    the generator's ``sorted(column, reverse=True)`` exactly.  Works on
    the batch axis too — axis 1 is the slot axis in both layouts.
    ``width`` restricts the sort to the first ``width`` slots (the
    wrap-skip layout parks elements beyond the column proper).  Numeric
    states sort via negate/sort/negate, which stays in place instead of
    materializing a reversed-stride copy per phase.
    """
    lo = 1 if skip_first else 0
    view = state[lo:] if width is None else state[lo:, :width]
    if view.dtype == object:
        view[...] = np.sort(view, axis=1)[:, ::-1]
    else:
        np.negative(view, out=view)
        view.sort(axis=1)
        np.negative(view, out=view)
    return state


def _ascending(
    state: np.ndarray, skip_first: bool = False, width: int | None = None
) -> np.ndarray:
    """Sort every column ascending, in place (negated-state pipeline)."""
    lo = 1 if skip_first else 0
    view = state[lo:] if width is None else state[lo:, :width]
    view.sort(axis=1)
    return state


def _with_parking(state: np.ndarray, extra: int) -> np.ndarray:
    """Append ``extra`` parking slots along the slot axis (wrap-skip)."""
    shape = list(state.shape)
    shape[1] += extra
    out = np.empty(shape, dtype=state.dtype)
    if state.dtype != object:
        out[:, state.shape[1]:] = 0
    out[:, : state.shape[1]] = state
    return out


def _columnsort_pipeline(
    run: VectorRun,
    state: np.ndarray,
    phases: tuple[CompiledPhase, ...],
    width: int | None = None,
) -> np.ndarray:
    # Every transform discards its input, so phases donate their state
    # buffer to the executor (no per-phase defensive copy).
    if state.dtype == object or run._dispatch is not None:
        state = _descending(state, width=width)              # phase 1
        state = run.execute(phases[0], state, donate=True)   # phase 2
        state = _descending(state, width=width)              # phase 3
        state = run.execute(phases[1], state, donate=True)   # phase 4
        state = _descending(state, width=width)              # phase 5
        state = run.execute(phases[2], state, donate=True)   # phase 6
        state = _descending(state, skip_first=True, width=width)  # phase 7
        state = run.execute(phases[3], state, donate=True)   # phase 8
        return _descending(state, width=width)               # phase 9
    # Numeric, unobserved runs: each descending sort is negate/sort/
    # negate, and bit accounting is sign-invariant (ints charge
    # ``bit_length(abs(v))``, floats a flat 64), so one global negation
    # brackets the whole run and the five sorts go plain ascending —
    # eight fewer full-matrix passes.  Observed runs stay on the
    # descending path: dispatch events carry the actual values.
    np.negative(state, out=state)
    state = _ascending(state, width=width)                   # phase 1
    state = run.execute(phases[0], state, donate=True)       # phase 2
    state = _ascending(state, width=width)                   # phase 3
    state = run.execute(phases[1], state, donate=True)       # phase 4
    state = _ascending(state, width=width)                   # phase 5
    state = run.execute(phases[2], state, donate=True)       # phase 6
    state = _ascending(state, skip_first=True, width=width)  # phase 7
    state = run.execute(phases[3], state, donate=True)       # phase 8
    state = _ascending(state, width=width)                   # phase 9
    np.negative(state, out=state)
    return state


def _validated_columns(
    k: int, columns: dict[int, list], require_dims: bool = True
) -> int:
    """Shared ``sort_even_pk`` input validation; returns ``m``.

    ``require_dims=False`` relaxes the columnsort dimension rule
    (``m >= k(k-1)``, ``k | m``) — the comparator-network backends sort
    any even ``p = k`` shape.
    """
    if sorted(columns) != list(range(1, k + 1)):
        raise ValueError("columns must be given for every processor 1..k")
    lengths = {len(c) for c in columns.values()}
    if len(lengths) != 1:
        raise ValueError(
            f"distribution is not even: lengths {sorted(lengths)}"
        )
    m = lengths.pop()
    if require_dims:
        require_valid_dims(m, k)
    return m


def sort_even_pk_vector(
    net: MCBNetwork,
    columns: dict[int, list],
    *,
    paper_phase2: bool = False,
    wrap_skip: bool = False,
    phase: str = "columnsort",
) -> SortResult:
    """:func:`repro.sort.even_pk.sort_even_pk` on the vector engine.

    Costs accumulate in ``net.stats`` and obs events flow through the
    network's attached observers, exactly as a generator run would —
    the network object stays the single accounting surface either way.
    ``wrap_skip`` runs the compiled parking layout of
    :func:`~repro.mcb.vector.lower.lower_wrap_skip`, matching the
    generator's message savings broadcast for broadcast.
    """
    k = net.k
    if net.p != k:
        raise ValueError(
            f"sort_even_pk requires p == k, got p={net.p}, k={k}"
        )
    m = _validated_columns(k, columns)
    wrap = wrap_skip and k > 1
    phases = compiled_columnsort_phases(m, k, paper_phase2, wrap)
    state = build_state([list(columns[pid]) for pid in range(1, k + 1)])
    if wrap:
        state = _with_parking(state, m // 2)
    run = VectorRun(
        net.p, k, phase=phase, stats=net.stats, dispatch=net._dispatch
    )
    state = _columnsort_pipeline(
        run, state, phases, width=m if wrap else None
    )
    run.finish()
    rows = state[:, :m].tolist()
    return SortResult(
        output={pid: tuple(rows[pid - 1]) for pid in range(1, k + 1)}
    )


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

    ``backend`` selects the schedule family: ``"columnsort"`` (default)
    runs the §5.2 pipeline above; ``"batcher"`` runs Batcher's odd-even
    merge network (:mod:`repro.mcb.cnet`) through the same batched
    state.  The network backends accept any even shape (no columnsort
    dimension rule) but ignore ``paper_phase2`` / ``wrap_skip``, which
    are columnsort notions — requesting them together is refused.
    """
    if not batches:
        raise ConfigurationError("sort_even_pk_batch needs at least one lane")
    cnet = backend != "columnsort"
    if cnet:
        from ..mcb.cnet import build_network

        network = build_network(backend, k)  # validates the name
        if paper_phase2 or wrap_skip:
            raise ConfigurationError(
                "paper_phase2/wrap_skip are columnsort schedule variants; "
                f"backend {backend!r} has no such knobs"
            )
    m = _validated_columns(k, batches[0], require_dims=not cnet)
    for lane in batches[1:]:
        if _validated_columns(k, lane, require_dims=not cnet) != m:
            raise ValueError("all batch lanes must share the same (k, m)")
    lanes = len(batches)
    wrap = wrap_skip and k > 1
    state = build_batched_state(
        [[lane[pid] for pid in range(1, k + 1)] for lane in batches]
    )
    if cnet:
        from .cnet_sort import _cnet_pipeline, compiled_cnet_phases

        if network.slot_factor == 2:
            # Merge-split scratch: partner columns land in slots m..2m-1.
            state = np.concatenate([state, state], axis=1)
        compiled = compiled_cnet_phases(backend, m, k)
        run = VectorRun(k, k, phase=f"{phase}/cnet-{backend}", batch=lanes)
        state = _cnet_pipeline(run, state, network, compiled, m)
        lane_phases = run.finish()
    else:
        if wrap:
            state = _with_parking(state, m // 2)
        phases = compiled_columnsort_phases(m, k, paper_phase2, wrap)
        run = VectorRun(k, k, phase=phase, batch=lanes)
        state = _columnsort_pipeline(
            run, state, phases, width=m if wrap else None
        )
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
