"""Deterministic on-disk cache for benchmark results.

One JSON file per configuration, keyed on the exact
``(algorithm, p, k, n, seed, engine, backend)`` tuple.  Engine runs are
deterministic for a fixed seed, so a cache hit is exactly as good as a
re-run — grids can be resumed, extended, or re-plotted without
re-simulating configurations that already have results on disk.

The file format is stable: one compact JSON line with sorted keys, the
key tuple embedded in the payload (``"key"``), and a schema tag
(``"cache_version"``) that guards against reading results written by an
incompatible harness.  Entries are written without indentation because
``indent`` switches CPython to its pure-Python encoder; readers parse
any JSON layout, so older indented entries still hit.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, NamedTuple, Optional

#: Bump when the stored payload shape changes incompatibly; mismatched
#: entries read as misses and are overwritten on the next put().
#: v2: keys grew an ``engine`` field (generator vs vector execution).
#: v3: keys grew a shard-count field (multi-core batch sharding).
#: v4: keys grew a ``backend`` field (columnsort vs comparator-network
#: schedules), so backend runs never alias each other's results.
#: v5: keys lost the shard-count field (batch sharding removed), so
#: file names drop their ``_sh{n}`` part.
CACHE_VERSION = 5


def default_cache_root() -> Path:
    """The shared persistent-cache root: ``~/.cache/repro``.

    Honours ``XDG_CACHE_HOME`` like every other XDG-aware tool.  Both
    the bench result cache and the compiled-plan cache
    (:mod:`repro.mcb.vector.cache`) nest under this directory.
    """
    base = os.environ.get("XDG_CACHE_HOME")
    root = Path(base) if base else Path.home() / ".cache"
    return root / "repro"


def _cache_counter(hit: bool) -> None:
    # Same observability pattern as the columnsort schedule caches
    # (src/repro/columnsort/schedule.py): every lookup lands on one
    # global counter with a result label, so any consumer — the bench
    # harness or the job service's /metrics endpoint — sees hit rates
    # without plumbing a registry through.
    from ..obs.metrics import global_registry

    global_registry().counter(
        "bench_result_cache_total",
        "bench result-cache lookups by result",
    ).inc(result="hit" if hit else "miss")


class CacheKey(NamedTuple):
    """The identity of one benchmark configuration."""

    algorithm: str
    p: int
    k: int
    n: int
    seed: int
    engine: str = "generator"
    backend: str = "columnsort"

    def filename(self) -> str:
        """Deterministic, human-scannable file name for this key."""
        return (
            f"{self.algorithm}_p{self.p}_k{self.k}_n{self.n}"
            f"_seed{self.seed}_{self.engine}_{self.backend}.json"
        )


class ResultCache:
    """Directory of per-configuration JSON results.

    Every :meth:`get` is counted on the ``bench_result_cache_total``
    counter of :func:`repro.obs.metrics.global_registry` with a
    ``result=hit|miss`` label (in addition to the per-instance
    ``hits``/``misses`` attributes), so cache efficiency shows up in any
    Prometheus exposition for free.

    Parameters
    ----------
    root:
        Directory to store entries in (created on first write).
    """

    def __init__(self, root: Path | str):
        self.root = Path(root)
        self.hits = 0
        self.misses = 0

    def _path(self, key: CacheKey) -> Path:
        return self.root / key.filename()

    def get(self, key: CacheKey) -> Optional[dict[str, Any]]:
        """Return the cached payload for ``key``, or ``None`` on a miss.

        Corrupt or version-mismatched entries count as misses (and will
        be overwritten by the next :meth:`put`), never as errors.
        """
        path = self._path(key)
        try:
            payload = json.loads(path.read_text())
        except (OSError, ValueError):
            self.misses += 1
            _cache_counter(hit=False)
            return None
        if (
            not isinstance(payload, dict)
            or payload.get("cache_version") != CACHE_VERSION
            or payload.get("key") != list(key)
        ):
            self.misses += 1
            _cache_counter(hit=False)
            return None
        self.hits += 1
        _cache_counter(hit=True)
        return payload["result"]

    def put(self, key: CacheKey, result: dict[str, Any]) -> Path:
        """Store ``result`` for ``key``; returns the file written.

        The write is atomic (temp file + rename) so a crashed run never
        leaves a half-written entry for later runs to trip over.
        """
        self.root.mkdir(parents=True, exist_ok=True)
        path = self._path(key)
        payload = {
            "cache_version": CACHE_VERSION,
            "key": list(key),
            "result": result,
        }
        tmp = path.with_suffix(".json.tmp")
        tmp.write_text(json.dumps(payload, sort_keys=True))
        tmp.replace(path)
        return path

    def __len__(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("*.json"))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ResultCache({str(self.root)!r}, entries={len(self)}, "
            f"hits={self.hits}, misses={self.misses})"
        )
