"""Plan caching: one in-memory/on-disk registry for both engines.

An oblivious transfer schedule is a pure function of its configuration
— ``(m, k, paper_phase2, wrap_skip)`` for columnsort, ``(network, m,
k)`` for the comparator-network backends, ``(m, k, g, blocks,
segments)`` for §6.1/§6.2's virtual phases — so one process lowers it
once, and its compiled :class:`~repro.mcb.vector.plan.CompiledPhase`
arrays are written to disk once and loaded by every later process
(service boots, CI runs, fresh grid sweeps) in milliseconds.

:class:`PlanRegistry` is the single lookup/eviction/prewarm surface.
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
import threading
import time
from collections import OrderedDict
from functools import partial
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from ...bench.cache import default_cache_root
from .plan import CompiledPhase, SchedulePlan

#: Bump whenever the on-disk representation changes incompatibly — a
#: CompiledPhase layout change, a lowering-output change, anything that
#: would make a stale entry wrong.  Mismatched entries read as misses.
PLAN_SCHEMA_VERSION = 3

#: Bytes of plan arrays :class:`PlanRegistry` keeps in memory: it also
#: holds the uneven sort's data-dependent group shapes, one per shape
#: a long-lived service is ever asked for.
PLAN_CACHE_BUDGET = 64 << 20

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
    """The one cache of lowered oblivious plans, in memory and on disk.

    An entry is the tuple of :class:`~repro.mcb.vector.plan.SchedulePlan`
    objects one lowering built, keyed by its filename stem; the
    generator engines and the vector executor run the same objects.
    Each :meth:`lookup` counts on ``vector_plan_cache_total`` (labels
    ``result=hit|disk_hit|miss``, ``backend=<name>``) and each true miss
    adds its wall time to ``vector_plan_compile_seconds`` on
    :func:`repro.obs.metrics.global_registry`.  Past
    :data:`PLAN_CACHE_BUDGET` bytes of plan arrays the least recently
    used entries leave memory (not disk).
    """

    def __init__(self) -> None:
        self._mem: OrderedDict[str, tuple[tuple, int]] = OrderedDict()
        self._bytes = 0
        self._lock = threading.Lock()

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
        build: Callable[[], Sequence[SchedulePlan]],
    ) -> tuple[SchedulePlan, ...]:
        """Memory -> disk -> ``build()`` resolution for one entry.

        ``build`` lowers and checks the plans; a true miss compiles
        each and writes them to disk, a disk hit rebuilds them with
        :meth:`SchedulePlan.from_compiled`.
        """
        with self._lock:
            entry = self._mem.get(stem)
            if entry is not None:
                self._mem.move_to_end(stem)
        if entry is not None:
            self._count("hit", backend)
            return entry[0]
        root = plan_cache_dir()
        path = plan_entry_path(root, stem) if root is not None else None
        if path is not None:
            cached = load_compiled_phases(path)
            if cached is not None:
                self._count("disk_hit", backend)
                return self._keep(
                    stem, tuple(map(SchedulePlan.from_compiled, cached))
                )
        self._count("miss", backend)
        from ...obs.metrics import global_registry

        start = time.perf_counter()
        plans = tuple(build())
        phases = [plan.compile() for plan in plans]
        global_registry().counter(
            "vector_plan_compile_seconds",
            "wall-clock seconds spent compiling schedule plans",
        ).inc(time.perf_counter() - start)
        if path is not None:
            try:
                save_compiled_phases(path, phases)
            except OSError:
                pass  # a read-only cache dir must never fail the compile
        return self._keep(stem, plans)

    def _keep(self, stem: str, plans: tuple) -> tuple:
        """Hold ``plans`` under ``stem``, evicting least recently used
        entries past the budget (never the entry just kept).  The step
        tables a stepped engine later caches on a plan are charged to
        the entry when they are built (:meth:`_grow`)."""
        size = 0
        charge = partial(self._grow, stem)
        for plan in plans:
            phase = plan.compile()
            arrays = [plan.writes, plan.reads, plan.moves]
            arrays += [getattr(phase, name) for name in _ARRAY_FIELDS]
            size += sum(getattr(a, "nbytes", 0) for a in arrays)
            plan._charge = charge
        with self._lock:
            self._bytes += size - self._mem.pop(stem, ((), 0))[1]
            self._mem[stem] = (plans, size)
            self._evict()
        return plans

    def _grow(self, stem: str, plan: SchedulePlan, size: int) -> None:
        """Charge ``size`` more bytes that ``plan`` caches to entry
        ``stem``, if it still holds ``plan``, and evict past the
        budget."""
        with self._lock:
            entry = self._mem.get(stem)
            if entry is None or not any(p is plan for p in entry[0]):
                return
            self._mem[stem] = (entry[0], entry[1] + size)
            self._bytes += size
            self._evict()

    def _evict(self) -> None:
        """Drop least recently used entries while past the budget,
        keeping at least one (call with the lock held)."""
        while self._bytes > PLAN_CACHE_BUDGET and len(self._mem) > 1:
            self._bytes -= self._mem.popitem(last=False)[1][1]

    @property
    def nbytes(self) -> int:
        """Bytes of plan arrays, and of the step tables built on the
        plans, held in memory."""
        return self._bytes

    def clear(self) -> None:
        """Evict every in-memory entry (disk stays)."""
        with self._lock:
            self._mem.clear()
            self._bytes = 0

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
    ranges its ``p, k, cycles, slots`` allow; a slot not filled by a
    read must take a value of its own processor."""
    if min(p, k, slots) < 1 or cycles < 0:
        return False
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
    out = arrays["out_idx"]
    own = (out - n) // slots == np.arange(p)[:, None]
    return bool(((out < n) | own).all())
