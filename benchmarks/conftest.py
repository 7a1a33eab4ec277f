"""Shared helpers for the benchmark harness.

Every benchmark sweeps a parameter, measures cycles/messages on the MCB
simulator, prints the table the corresponding paper claim predicts
(visible live thanks to ``capsys.disabled``), asserts the reproduction
holds (who wins / how costs scale), and times one representative
configuration through pytest-benchmark.

Machine-readable trajectory: a session-scoped recorder mirrors every
table emitted through :func:`emit` (plus any explicit :func:`record`
calls) into ``benchmarks/results/session/BENCH_<name>.json`` — one JSON
object per line, *appended* through the :class:`repro.obs.sinks.JsonlSink`
— so local runs accumulate instead of each session overwriting the
last.  Every record carries the session's ``run`` id plus a unique
``id`` so individual runs stay separable when a file holds many
sessions.  The session files are not tracked: the committed
``benchmarks/results/BENCH_<name>.json`` trajectories are the baselines
``check_perf_regression.py`` reads first, before the session's records,
so running a bench leaves the tracked files as they are.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

import pytest

from repro.analysis import format_table
from repro.bench import ResultCache, env_metadata, run_grid
from repro.obs.sinks import JsonlSink

RESULTS_DIR = Path(__file__).resolve().parent / "results"
CACHE_DIR = RESULTS_DIR / "cache"
#: Where a session's records are appended (untracked; see the module
#: docstring).
SESSION_DIR = RESULTS_DIR / "session"

# Benchmarks must not read or write the user's ~/.cache: default the
# persistent compiled-plan cache to results/cache/plans (gitignored with
# the rest of results/), where CI persists it as an actions cache keyed
# by the plan schema version.  An explicit REPRO_PLAN_CACHE wins.
os.environ.setdefault("REPRO_PLAN_CACHE", str(CACHE_DIR / "plans"))


class BenchRecorder:
    """Collect per-benchmark records; append one JSONL-in-.json file each.

    Records are grouped by benchmark name — by default the originating
    test with its parametrization stripped, overridable per record with
    ``bench=`` so a benchmark can publish under a canonical name (one
    file per benchmark, not one per test function).  Files are appended
    at session end via the obs JSONL sink; each record carries the
    session ``run`` id and a unique ``id`` (``run/seq``) so the perf
    trajectory accumulates across sessions without ambiguity.
    """

    def __init__(self) -> None:
        self._records: dict[str, list[dict]] = {}
        self.run_id = (
            time.strftime("%Y%m%dT%H%M%S", time.gmtime())
            + f"-{os.getpid()}"
        )
        self._seq = 0
        #: Machine conditions, stamped into every record: wall-clock
        #: numbers are meaningless without the environment they were
        #: measured under.
        self.env = env_metadata()

    @staticmethod
    def _bench_name(nodeid: str) -> str:
        # "bench_sort_even.py::test_e1_scaling[4]" -> "sort_even__test_e1_scaling"
        path, _, rest = nodeid.partition("::")
        stem = Path(path).stem.removeprefix("bench_")
        test = rest.partition("[")[0] or "session"
        return f"{stem}__{test}"

    def record(
        self, nodeid: str, payload: dict, *, bench: str | None = None
    ) -> None:
        name = bench if bench is not None else self._bench_name(nodeid)
        self._seq += 1
        self._records.setdefault(name, []).append(
            {
                "bench": name,
                "run": self.run_id,
                "id": f"{self.run_id}/{self._seq}",
                "nodeid": nodeid,
                "env": self.env,
                **payload,
            }
        )

    def flush(self) -> list[Path]:
        written = []
        for name, rows in sorted(self._records.items()):
            SESSION_DIR.mkdir(parents=True, exist_ok=True)
            path = SESSION_DIR / f"BENCH_{name}.json"
            with JsonlSink(path, mode="a") as sink:
                for row in rows:
                    sink.emit(row)
            written.append(path)
        return written


@pytest.fixture(scope="session")
def _bench_recorder():
    recorder = BenchRecorder()
    yield recorder
    files = recorder.flush()
    if files:
        print(f"\n[bench] wrote {len(files)} result file(s) under {SESSION_DIR}")


@pytest.fixture
def record(request, _bench_recorder):
    """Record one machine-readable result row for this benchmark.

    Usage: ``record(config={...}, cycles=..., messages=...)`` — any
    keyword becomes a JSON field; wall-clock seconds since test start
    are stamped automatically as ``wall_s``.  Pass ``bench="name"`` to
    publish under a canonical file name instead of the test-derived one.
    """
    start = time.perf_counter()

    def _record(*, bench=None, **payload):
        payload.setdefault("wall_s", round(time.perf_counter() - start, 6))
        _bench_recorder.record(request.node.nodeid, payload, bench=bench)

    return _record


@pytest.fixture(scope="session")
def bench_cache():
    """Session-wide deterministic result cache under results/cache/.

    Engine runs are deterministic per (algorithm, p, k, n, seed), so
    entries persist *across* sessions: re-running a benchmark grid only
    simulates configurations that have never been measured.  Delete the
    directory to force a full re-run.
    """
    return ResultCache(CACHE_DIR)


@pytest.fixture
def bench_grid(bench_cache):
    """Run a list of :class:`repro.bench.BenchSpec` through the pool.

    Thin wrapper over :func:`repro.bench.run_grid` that shares the
    session cache.  Pass ``max_workers=0`` to force in-process runs
    (the default fans out over all cores).
    """

    def _run(specs, **kwargs):
        kwargs.setdefault("cache", bench_cache)
        return run_grid(specs, **kwargs)

    return _run


@pytest.fixture
def emit(capsys, request, _bench_recorder):
    """Print an experiment table to the real terminal (uncaptured) and
    mirror it into the session's machine-readable results."""
    start = time.perf_counter()

    def _emit(title, headers, rows, notes=None, *, bench=None):
        with capsys.disabled():
            print()
            print(format_table(headers, rows, title=title))
            if notes:
                print(notes)
            print()
        _bench_recorder.record(
            request.node.nodeid,
            {
                "title": title,
                "headers": list(headers),
                "rows": [list(r) for r in rows],
                "notes": notes,
                "wall_s": round(time.perf_counter() - start, 6),
            },
            bench=bench,
        )

    return _emit
