"""Load-generator benchmark: percentile trajectory + warm-cache gate.

Runs one deterministic closed-loop scenario of uniform (bench-identical)
sort/select queries through the in-process target twice against a shared
result cache:

* **cold** — empty cache, every query simulated;
* **warm** — identical schedule resubmitted, every query served from
  the cache.

Both passes produce the standard ``loadgen-report/v1`` percentile
report; the records land in
``benchmarks/results/session/BENCH_loadgen.json`` (canonical bench name
``loadgen``), and ``benchmarks/results/BENCH_loadgen.json`` is the
committed trajectory of load-test percentiles.  The regression gate is the
**warm/cold throughput ratio** — two measurements from the same session
on the same machine, hence machine-independent.  Required: **>= 2x**;
if serving cached queries is not clearly cheaper than simulating them,
the cache path or the runner overhead has regressed.
"""

from __future__ import annotations

from repro.bench.cache import ResultCache
from repro.loadgen import (
    InProcessTarget,
    LoadRunner,
    QueryTemplate,
    ScenarioSpec,
    build_report,
    validate_report,
)
from repro.obs.metrics import MetricsRegistry

REQUIRED_WARM_SPEEDUP = 2.0

P = K = 4

#: Uniform-only (cacheable) mixed traffic; seed_stride=1 keeps seeds
#: distinct within a pass so the cold pass is all misses, while the
#: identical schedule makes the warm pass all hits.
SCENARIO = ScenarioSpec(
    name="bench-loadgen",
    arrival="closed",
    concurrency=4,
    queries=32,
    warmup=4,
    seed=7,
    seed_stride=1,
    templates=(
        QueryTemplate(name="sort-uniform", algorithm="sort",
                      p=P, k=K, n=64, weight=3.0),
        QueryTemplate(name="select-uniform", algorithm="select",
                      p=P, k=2, n=64, weight=1.0),
    ),
)


def _run_pass(cache: ResultCache) -> dict:
    runner = LoadRunner(
        SCENARIO, InProcessTarget(cache=cache), registry=MetricsRegistry()
    )
    report = build_report(runner.run())
    validate_report(report)
    return report


def test_loadgen_percentiles(benchmark, emit, record, tmp_path):
    cache = ResultCache(tmp_path / "cache")
    cold, warm = benchmark.pedantic(
        lambda: (_run_pass(cache), _run_pass(cache)),
        rounds=1, iterations=1,
    )
    measured = SCENARIO.queries - SCENARIO.warmup
    assert cold["queries"]["ok"] == measured, cold["queries"]
    assert cold["cache"]["hits"] == 0, cold["cache"]
    assert warm["cache"]["hits"] == measured, warm["cache"]
    for report in (cold, warm):
        assert report["latency"]["p50_s"] > 0
        assert report["latency"]["p999_s"] > 0

    speedup = warm["throughput"]["qps"] / cold["throughput"]["qps"]

    record(
        bench="loadgen",
        p=P,
        k=K,
        queries=SCENARIO.queries,
        cold=cold,
        warm=warm,
        speedup={"warm_cache": round(speedup, 3)},
    )

    emit(
        "load generator — closed-loop uniform mix through the result "
        f"cache ({SCENARIO.queries} queries, concurrency "
        f"{SCENARIO.concurrency}; warm-cache throughput "
        f"≥{REQUIRED_WARM_SPEEDUP:.0f}x required)",
        ["pass", "p50 (ms)", "p99 (ms)", "p99.9 (ms)", "q/s", "hits"],
        [
            [
                name,
                f"{1e3 * d['latency']['p50_s']:.2f}",
                f"{1e3 * d['latency']['p99_s']:.2f}",
                f"{1e3 * d['latency']['p999_s']:.2f}",
                f"{d['throughput']['qps']:.1f}",
                d["cache"]["hits"],
            ]
            for name, d in (("cold", cold), ("warm", warm))
        ],
        notes=f"warm/cold throughput: {speedup:.1f}x",
        bench="loadgen",
    )

    assert speedup >= REQUIRED_WARM_SPEEDUP, (
        f"warm-cache throughput {speedup:.2f}x < required "
        f"{REQUIRED_WARM_SPEEDUP}x over the cold pass"
    )
