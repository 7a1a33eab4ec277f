"""Compiled-plan caching: one in-memory/on-disk registry, all backends.

Compiling a schedule plan is a pure function of its configuration —
``(m, k, paper_phase2, wrap_skip)`` for the columnsort transformation
phases, ``(network, m, k)`` for the comparator-network backends — so
the resulting :class:`~repro.mcb.vector.plan.CompiledPhase` arrays can
be written to disk once and loaded by every later process (service
boots, CI runs, fresh grid sweeps) in milliseconds instead of
recompiled.

:class:`PlanRegistry` is the single lookup/eviction/prewarm surface:
every backend's compiled plans live in one in-memory dict keyed by the
entry's filename stem, backed by the on-disk ``.npz`` store below.
Lookups count on ``vector_plan_cache_total`` labelled
``result=hit|disk_hit|miss`` *and* ``backend=<name>``; true misses add
their wall time to ``vector_plan_compile_seconds``.

Layout: one ``.npz`` per configuration under the cache directory,
holding each phase's four write-event arrays and its ``(p, slots)``
gather table ``out_idx`` (all int64) plus a scalar metadata record.
Entries were validated when first compiled; a load checks only that
every array has its shape and every index its range, so that a damaged
entry cannot index out of bounds.  The ``PLAN_SCHEMA_VERSION`` baked
into both the filename and the payload invalidates every entry whenever
the compiled representation changes — bump it in the same commit that
changes :class:`CompiledPhase`'s layout or the lowerings' output.

The directory is resolved by :func:`plan_cache_dir`:

* ``REPRO_PLAN_CACHE=<dir>`` — use that directory;
* ``REPRO_PLAN_CACHE`` set to ``off``/``0``/empty — disable entirely;
* unset — ``~/.cache/repro/plans`` (via
  :func:`repro.bench.cache.default_cache_root`, so ``XDG_CACHE_HOME``
  is honoured).

Corrupt, truncated, out-of-range or version-mismatched entries load as
``None`` (a miss) — never as errors; writes are atomic (temp file +
rename).
"""

from __future__ import annotations

import os
import tempfile
import time
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from ...bench.cache import default_cache_root
from .plan import CompiledPhase

#: Bump whenever the on-disk representation changes incompatibly — a
#: CompiledPhase layout change, a lowering-output change, anything that
#: would make a stale entry wrong.  Mismatched entries read as misses.
PLAN_SCHEMA_VERSION = 3

_ARRAY_FIELDS = ("w_cycle", "w_proc", "w_chan", "w_src", "out_idx")
_DISABLED = {"", "0", "off", "none", "disabled"}


def plan_cache_dir() -> Optional[Path]:
    """The plan-cache directory, or ``None`` when caching is disabled."""
    env = os.environ.get("REPRO_PLAN_CACHE")
    if env is not None:
        if env.strip().lower() in _DISABLED:
            return None
        return Path(env)
    return default_cache_root() / "plans"


def plan_entry_path(root: Path, stem: str) -> Path:
    """Deterministic entry path for one cache stem (version-suffixed)."""
    return root / f"{stem}_v{PLAN_SCHEMA_VERSION}.npz"


def columnsort_plan_stem(
    m: int, k: int, paper_phase2: bool, wrap_skip: bool
) -> str:
    """Registry/filename stem of one columnsort configuration."""
    return (
        f"columnsort_m{m}_k{k}"
        f"_paper{int(paper_phase2)}_wrap{int(wrap_skip)}"
    )


def cnet_plan_stem(network: str, m: int, k: int) -> str:
    """Registry/filename stem of one comparator-network configuration.

    The network name is part of the identity, so network plans never
    alias each other or the columnsort entries above.
    """
    return f"cnet_{network}_m{m}_k{k}"


class PlanRegistry:
    """One in-memory + on-disk cache for every backend's compiled plans.

    Entries are keyed by their filename stem (which encodes backend and
    shape), so ``clear()`` / :func:`repro.sort.vector.prewarm_plan_cache`
    evict and warm columnsort and comparator-network plans through one
    surface.  Each :meth:`lookup` counts on ``vector_plan_cache_total``
    (labels ``result=hit|disk_hit|miss``, ``backend=<name>``) and each
    true miss adds its wall time to ``vector_plan_compile_seconds`` on
    :func:`repro.obs.metrics.global_registry`.
    """

    def __init__(self) -> None:
        self._mem: dict[str, tuple[CompiledPhase, ...]] = {}

    def _count(self, result: str, backend: str) -> None:
        from ...obs.metrics import global_registry

        global_registry().counter(
            "vector_plan_cache_total",
            "compiled plan-cache lookups by result and backend",
        ).inc(result=result, backend=backend)

    def lookup(
        self,
        stem: str,
        *,
        backend: str,
        build: Callable[[], Sequence["CompiledPhase"]],
    ) -> tuple["CompiledPhase", ...]:
        """Memory -> disk -> ``build()`` resolution for one entry."""
        if stem in self._mem:
            self._count("hit", backend)
            return self._mem[stem]
        root = plan_cache_dir()
        path = plan_entry_path(root, stem) if root is not None else None
        if path is not None:
            cached = load_compiled_phases(path)
            if cached is not None:
                self._count("disk_hit", backend)
                self._mem[stem] = cached
                return cached
        self._count("miss", backend)
        from ...obs.metrics import global_registry

        start = time.perf_counter()
        phases = tuple(build())
        self._mem[stem] = phases
        global_registry().counter(
            "vector_plan_compile_seconds",
            "wall-clock seconds spent compiling schedule plans",
        ).inc(time.perf_counter() - start)
        if path is not None:
            try:
                save_compiled_phases(path, phases)
            except OSError:
                pass  # a read-only cache dir must never fail the compile
        return phases

    def clear(self) -> None:
        """Evict every backend's in-memory entries (disk stays)."""
        self._mem.clear()

    def __len__(self) -> int:
        return len(self._mem)

    def __contains__(self, stem: str) -> bool:
        return stem in self._mem


_REGISTRY = PlanRegistry()


def plan_registry() -> PlanRegistry:
    """The process-wide :class:`PlanRegistry` singleton."""
    return _REGISTRY


def save_compiled_phases(
    path: Path, phases: Sequence[CompiledPhase]
) -> Path:
    """Atomically write ``phases`` to ``path``; returns the file written."""
    path.parent.mkdir(parents=True, exist_ok=True)
    arrays: dict[str, np.ndarray] = {
        "schema": np.array(
            [PLAN_SCHEMA_VERSION, len(phases)], dtype=np.int64
        ),
    }
    for i, ph in enumerate(phases):
        arrays[f"p{i}_meta"] = np.array(
            [ph.p, ph.k, ph.cycles, ph.slots], dtype=np.int64
        )
        arrays[f"p{i}_kind"] = np.array(ph.kind)
        for name in _ARRAY_FIELDS:
            arrays[f"p{i}_{name}"] = getattr(ph, name)
    fd, tmp = tempfile.mkstemp(
        dir=path.parent, prefix=path.stem, suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as fh:
            np.savez(fh, **arrays)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path


def load_compiled_phases(
    path: Path,
) -> Optional[tuple[CompiledPhase, ...]]:
    """Load a cached entry, or ``None`` when absent/corrupt/stale."""
    try:
        with np.load(path, allow_pickle=False) as data:
            schema = data["schema"]
            if schema[0] != PLAN_SCHEMA_VERSION:
                return None
            phases = []
            for i in range(int(schema[1])):
                p, k, cycles, slots = map(int, data[f"p{i}_meta"])
                arrays = {
                    name: np.ascontiguousarray(
                        data[f"p{i}_{name}"], dtype=np.int64
                    )
                    for name in _ARRAY_FIELDS
                }
                if not _entry_fits(p, k, cycles, slots, arrays):
                    return None
                phases.append(
                    CompiledPhase(
                        p=p, k=k, cycles=cycles, slots=slots,
                        kind=str(data[f"p{i}_kind"]),
                        **arrays,
                    )
                )
            return tuple(phases)
    except Exception:
        return None


def _entry_fits(
    p: int, k: int, cycles: int, slots: int, arrays: dict[str, np.ndarray]
) -> bool:
    """Whether one loaded phase's arrays have the shapes and index
    ranges its ``p, k, cycles, slots`` allow."""
    n = len(arrays["w_cycle"])
    ranges = {  # name: (shape, low, high)
        "w_cycle": ((n,), 0, cycles),
        "w_proc": ((n,), 0, p),
        "w_chan": ((n,), 1, k + 1),
        "w_src": ((n,), 0, slots),
        "out_idx": ((p, slots), 0, n + p * slots),
    }
    for name, (shape, lo, hi) in ranges.items():
        a = arrays[name]
        if a.shape != shape or (a.size and not lo <= a.min() <= a.max() < hi):
            return False
    return min(p, k, slots) >= 1 and cycles >= 0
