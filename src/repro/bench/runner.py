"""Process-pool grid runner for benchmark configurations.

The worker (:func:`run_config`) is a module-level function over a
picklable :class:`BenchSpec`, so grids fan out across cores with the
stdlib :class:`~concurrent.futures.ProcessPoolExecutor` — no extra
dependencies.  Each configuration runs on a fresh network in its own
process; the returned payload is the JSON projection of the network's
``RunStats`` plus a short fingerprint of the algorithm's output, which
is what the determinism tests compare across runs and engines.

:func:`run_grid` composes the pool with the
:class:`~repro.bench.cache.ResultCache`: configurations with an entry on
disk are returned immediately, only the misses are simulated.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, NamedTuple, Optional

from ..core.distribution import Distribution
from ..mcb.network import MCBNetwork
from .cache import CacheKey, ResultCache


class BenchSpec(NamedTuple):
    """One point of a benchmark grid (picklable, hashable).

    ``engine`` selects the execution engine for algorithms that support
    it (``mcb_sort``'s / ``mcb_select``'s ``"generator"`` /
    ``"vector"``) and ``backend`` the even ``p == k`` sort schedule.
    Both are part of the cache identity so engine and backend
    comparisons never alias.
    """

    algorithm: str
    p: int
    k: int
    n: int
    seed: int = 0
    engine: str = "generator"
    backend: str = "columnsort"

    @property
    def key(self) -> CacheKey:
        return CacheKey(
            algorithm=self.algorithm, p=self.p, k=self.k, n=self.n,
            seed=self.seed, engine=self.engine, backend=self.backend,
        )


def _fingerprint(value: Any) -> str:
    """Short stable digest of an algorithm outcome (for determinism checks)."""
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def env_metadata() -> dict[str, Any]:
    """Machine context to stamp into bench records and load reports.

    Wall-clock numbers are only comparable against the conditions they
    were measured under; this captures the cheap, dependency-free part
    of those conditions (interpreter, platform, core count, 1-minute
    load average where the OS provides one).
    """
    import platform

    meta: dict[str, Any] = {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
    }
    try:
        meta["loadavg_1m"] = round(os.getloadavg()[0], 3)
    except (AttributeError, OSError):  # pragma: no cover — e.g. Windows
        pass
    return meta


def resolve_max_workers(max_workers: Optional[int] = None) -> Optional[int]:
    """Effective worker-pool width for this process.

    One resolution rule shared by every pool owner (:func:`run_grid`,
    ``repro serve --workers``, ``repro experiments --max-workers``): an
    explicit argument wins, else the ``REPRO_BENCH_MAX_WORKERS``
    environment variable applies — also when called as a library, not
    only through the CLI — else ``None`` (caller's default, usually
    ``os.cpu_count()``).  ``0`` means "in-process, no pool".

    Raises ``ValueError`` on a non-integer or negative setting instead
    of silently spawning an unbounded pool.
    """
    if max_workers is None:
        env = os.environ.get("REPRO_BENCH_MAX_WORKERS")
        if env is not None:
            try:
                max_workers = int(env)
            except ValueError:
                raise ValueError(
                    "REPRO_BENCH_MAX_WORKERS must be an integer, "
                    f"got {env!r}"
                ) from None
    if max_workers is not None and max_workers < 0:
        raise ValueError(f"max_workers must be >= 0, got {max_workers}")
    return max_workers


def _run_sort(net: MCBNetwork, spec: BenchSpec) -> str:
    from ..sort import mcb_sort

    dist = Distribution.even(spec.n, spec.p, seed=spec.seed)
    out = mcb_sort(net, dist, engine=spec.engine, backend=spec.backend)
    return _fingerprint(sorted(out.output.items()))


def _run_select(net: MCBNetwork, spec: BenchSpec) -> str:
    from ..select import mcb_select

    dist = Distribution.even(spec.n, spec.p, seed=spec.seed)
    d = (spec.n + 1) // 2  # median
    res = mcb_select(net, dist, d, engine=spec.engine)
    return _fingerprint(res.value)


#: Algorithm registry: name -> worker(net, spec) -> output fingerprint.
#: Extend from benchmark modules via plain assignment before run_grid.
ALGORITHMS: dict[str, Callable[[MCBNetwork, BenchSpec], str]] = {
    "sort": _run_sort,
    "select": _run_select,
}


def run_config(spec: BenchSpec) -> dict[str, Any]:
    """Run one configuration on a fresh network (process-pool worker).

    Returns a JSON-safe payload::

        {"spec": [...], "stats": RunStats.to_dict(),
         "fingerprint": "...", "wall_s": ...}
    """
    try:
        worker = ALGORITHMS[spec.algorithm]
    except KeyError:
        raise ValueError(
            f"unknown benchmark algorithm {spec.algorithm!r}; "
            f"known: {sorted(ALGORITHMS)}"
        ) from None
    net = MCBNetwork(p=spec.p, k=spec.k)
    start = time.perf_counter()
    fingerprint = worker(net, spec)
    wall = time.perf_counter() - start
    payload = {
        "spec": list(spec),
        "stats": net.stats.to_dict(),
        "fingerprint": fingerprint,
        "wall_s": round(wall, 6),
    }
    # JSON-canonical (e.g. int dict keys -> strings) so a payload served
    # from the on-disk cache compares equal to a freshly computed one.
    return json.loads(json.dumps(payload))


def run_grid(
    specs: list[BenchSpec],
    *,
    cache: Optional[ResultCache] = None,
    max_workers: Optional[int] = None,
) -> list[dict[str, Any]]:
    """Run a grid of configurations, in parallel, through the cache.

    Results come back in ``specs`` order regardless of which processes
    finish first, and every cache miss is written back so the next grid
    run (or a widened sweep sharing points) skips it.

    Parameters
    ----------
    specs:
        Grid points to evaluate (duplicates are evaluated once and
        shared).
    cache:
        Optional :class:`ResultCache`; when given, entries on disk are
        returned without simulating.
    max_workers:
        Pool width; ``None`` (the default) falls back to the
        ``REPRO_BENCH_MAX_WORKERS`` environment variable, and past that
        to the executor's ``os.cpu_count()``.  ``0`` forces in-process
        execution — useful under pytest where a fork-bomb per test
        would cost more than it saves.  The pool is never wider than
        the number of cache misses, and is not spawned at all when the
        whole grid is served from cache or fits one in-process run.
    """
    max_workers = resolve_max_workers(max_workers)
    results: dict[BenchSpec, dict[str, Any]] = {}
    todo: list[BenchSpec] = []
    for spec in specs:
        if spec in results or spec in todo:
            continue
        cached = cache.get(spec.key) if cache is not None else None
        if cached is not None:
            results[spec] = cached
        else:
            todo.append(spec)

    if not todo:
        # Every spec was a cache hit: never pay pool spin-up for a
        # fully warmed grid.
        return [results[spec] for spec in specs]

    if max_workers == 0 or len(todo) == 1:
        fresh = [run_config(spec) for spec in todo]
    else:
        width = min(len(todo), max_workers) if max_workers else None
        with ProcessPoolExecutor(max_workers=width) as pool:
            fresh = list(pool.map(run_config, todo))
    for spec, payload in zip(todo, fresh):
        results[spec] = payload
        if cache is not None:
            cache.put(spec.key, payload)

    return [results[spec] for spec in specs]
