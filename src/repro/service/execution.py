"""Picklable job executors: what actually runs in the worker pool.

The event loop never simulates anything.  Workers hand these
module-level functions (picklable, stdlib-``ProcessPoolExecutor``-safe)
to the configured executor:

* :func:`run_lane` — one :class:`~repro.bench.runner.BenchSpec`
  configuration, delegated to the benchmark harness's
  :func:`repro.bench.runner.run_config` so service results are
  byte-identical to bench results (same payload shape, same cache
  entries).
* :func:`run_batch_lanes` — the uncached lanes of one vector batch job,
  executed through :func:`repro.sort.vector.sort_even_pk_batch` as a
  single columnar pass; returns one ``run_config``-shaped payload per
  lane so batch lanes and solo runs share the result cache.
* :func:`prewarm_worker` — a process-pool *initializer* that compiles
  the vector plan cache for a known set of ``(m, k)`` configurations
  before the worker accepts jobs, so the first batch job never pays
  compile latency inside its measured wall time.
"""

from __future__ import annotations

import json
import time
from typing import Any, Sequence

from ..bench.runner import BenchSpec, run_config, _fingerprint


def run_lane(spec: BenchSpec) -> dict[str, Any]:
    """Run one configuration."""
    payload = run_config(spec)
    _observe_lane_walls([payload], spec.algorithm)
    return payload


def run_batch_lanes(
    spec: BenchSpec, seeds: Sequence[int]
) -> list[dict[str, Any]]:
    """Sort ``len(seeds)`` independent instances in one vector pass.

    ``spec`` is the job's configuration (its own seed is ignored;
    ``seeds`` names the lanes to run — the cache misses of a possibly
    partially-warm batch).  Each returned payload matches
    :func:`repro.bench.runner.run_config` for the corresponding solo
    spec, except ``wall_s`` is the *shared* pass time divided evenly
    across lanes (lanes have no individual wall clock by construction).
    """
    from ..core.distribution import Distribution
    from ..sort.vector import sort_even_pk_batch

    lanes = [
        {
            pid: list(part)
            for pid, part in Distribution.even(
                spec.n, spec.p, seed=seed
            ).parts.items()
        }
        for seed in seeds
    ]
    start = time.perf_counter()
    batch = sort_even_pk_batch(
        spec.k, lanes, phase="sort", backend=spec.backend
    )
    wall = (time.perf_counter() - start) / max(1, len(seeds))
    payloads = []
    for seed, result, stats in zip(seeds, batch.results, batch.stats):
        lane_spec = spec._replace(seed=seed)
        payload = {
            "spec": list(lane_spec),
            "stats": stats.to_dict(),
            "fingerprint": _fingerprint(sorted(result.output.items())),
            "wall_s": round(wall, 6),
        }
        # JSON-canonical, matching run_config, so cache round-trips
        # compare equal.
        payloads.append(json.loads(json.dumps(payload)))
    _observe_lane_walls(payloads, spec.algorithm)
    return payloads


#: Worker-side per-lane wall-time sketch: every metered lane observes
#: its simulation wall seconds here, in the *worker's* registry; the
#: shipped delta folds the sketches of all pool processes into one
#: mergeable latency distribution on the service's /metrics.
_LANE_SKETCH = "service_lane_wall_seconds"
_LANE_SKETCH_HELP = (
    "per-lane simulation wall time, folded across executor processes"
)


def _observe_lane_walls(payloads: Sequence[dict[str, Any]], algorithm: Any) -> None:
    from ..obs.metrics import global_registry

    sketch = global_registry().sketch(_LANE_SKETCH, _LANE_SKETCH_HELP)
    for payload in payloads:
        sketch.observe(payload["wall_s"], algorithm=algorithm)


def _registry_state() -> dict[str, Any]:
    from ..obs.metrics import global_registry

    return global_registry().export_state()


def run_lane_metered(spec: BenchSpec) -> dict[str, Any]:
    """:func:`run_lane` plus the registry increments it caused.

    Process-pool workers mutate their *own* global registry, which the
    parent's /metrics never sees; the metered variants snapshot the full
    registry around the run — counters, gauges, histograms, quantile
    sketches — and ship the increments back with the payload (plain
    tuples and dicts — picklable) so the app can fold them into its
    registry via :meth:`~repro.obs.metrics.MetricsRegistry.fold_state`.
    """
    from ..obs.metrics import MetricsRegistry

    before = _registry_state()
    payload = run_lane(spec)
    return {
        "payload": payload,
        "metrics": MetricsRegistry.delta_state(before, _registry_state()),
    }


def run_batch_lanes_metered(
    spec: BenchSpec, seeds: Sequence[int]
) -> dict[str, Any]:
    """:func:`run_batch_lanes` plus the registry increments."""
    from ..obs.metrics import MetricsRegistry

    before = _registry_state()
    payloads = run_batch_lanes(spec, seeds)
    return {
        "payloads": payloads,
        "metrics": MetricsRegistry.delta_state(before, _registry_state()),
    }


def prewarm_worker(configs: Sequence[Sequence[Any]]) -> None:
    """Compile the vector plan cache for ``configs`` in this process.

    Passed as the ``initializer`` of the service's process pool (and run
    inline for the ``sync``/``thread`` executors), with ``configs`` a
    sequence of ``(m, k[, paper_phase2[, wrap_skip]])`` tuples — see
    :func:`repro.sort.vector.prewarm_plan_cache`.  Compile time lands on
    the ``vector_plan_compile_seconds`` counter at pool start instead of
    inside the first job's wall clock.
    """
    from ..sort.vector import prewarm_plan_cache

    prewarm_plan_cache(configs)
