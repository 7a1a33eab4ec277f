"""Service benchmark: sustained job load through the async HTTP server.

Boots the real stack — :class:`repro.service.ServiceServer` on an
ephemeral port, worker pool, result cache — and pushes a mixed workload
(generator sorts, selections, one vector batch) through ``POST /jobs``
twice:

* **cold** — empty cache, every lane simulated through the executor;
* **warm** — identical specs resubmitted, every lane served from the
  result cache without touching the pool.

For each pass we record end-to-end per-job latency (submission to
terminal state, including queue wait) at p50/p99 plus aggregate
throughput in jobs/second.  The gate is the **warm/cold throughput
ratio**: a ratio of two measurements on the same machine in the same
session, hence machine-independent.  Required: **>= 2x** — if serving
a cached job is not clearly cheaper than simulating it, the cache or
the admission path has regressed.

Results accumulate in ``benchmarks/results/session/BENCH_service.json``
(canonical bench name ``service``); the CI perf-regression check
compares them with the committed ``benchmarks/results/BENCH_service.json``.
"""

from __future__ import annotations

import asyncio
import json
import statistics
import time

from repro.bench.cache import ResultCache
from repro.obs import MetricsRegistry
from repro.service import ServiceApp, ServiceServer

REQUIRED_WARM_SPEEDUP = 2.0

#: The sustained mixed workload: every entry is one POST /jobs body.
P = K = 8
WORKLOAD = (
    [
        {"algorithm": "sort", "p": P, "k": K, "n": 256, "seed": s}
        for s in range(12)
    ]
    + [
        {"algorithm": "select", "p": P, "k": 2, "n": 128, "seed": s}
        for s in range(8)
    ]
    + [
        {
            "algorithm": "sort", "p": P, "k": K, "n": P * 64,
            "seed": 100 + 4 * b, "engine": "vector", "batch": 4,
        }
        for b in range(2)
    ]
)


async def _request(port: int, method: str, path: str, body=None):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    payload = json.dumps(body).encode() if body is not None else b""
    head = (
        f"{method} {path} HTTP/1.1\r\n"
        f"Host: bench\r\nContent-Length: {len(payload)}\r\n\r\n"
    )
    writer.write(head.encode() + payload)
    await writer.drain()
    data = await reader.read()
    writer.close()
    head_bytes, _, body_bytes = data.partition(b"\r\n\r\n")
    status = int(head_bytes.split(b" ", 2)[1])
    return status, json.loads(body_bytes)


async def _run_pass(port: int, app: ServiceApp) -> dict:
    """Submit the whole workload, wait for drain, collect latencies."""
    start = time.perf_counter()
    ids = []
    for body in WORKLOAD:
        status, accepted = await _request(port, "POST", "/jobs", body)
        assert status == 202, (status, accepted)
        ids.append(accepted["id"])
    await app.join()
    wall = time.perf_counter() - start

    latencies = []
    hits = misses = 0
    for job_id in ids:
        status, job = await _request(port, "GET", f"/jobs/{job_id}")
        assert status == 200 and job["state"] == "done", job
        latencies.append(job["finished_at"] - job["submitted_at"])
        hits += job["cache_hits"]
        misses += job["cache_misses"]
    latencies.sort()
    return {
        "jobs": len(ids),
        "wall_s": round(wall, 6),
        "throughput_jobs_s": round(len(ids) / wall, 3),
        "latency_p50_ms": round(1e3 * statistics.median(latencies), 3),
        "latency_p99_ms": round(
            1e3 * latencies[max(0, int(0.99 * len(latencies)) - 1)], 3
        ),
        "cache_hits": hits,
        "cache_misses": misses,
    }


async def _bench(cache_dir) -> tuple[dict, dict]:
    app = ServiceApp(
        queue_size=len(WORKLOAD),
        workers=4,
        executor="process",
        cache=ResultCache(cache_dir),
        registry=MetricsRegistry(),
    )
    server = ServiceServer(app, port=0)
    await server.start()
    try:
        cold = await _run_pass(server.port, app)
        warm = await _run_pass(server.port, app)
    finally:
        await server.stop(0)
    return cold, warm


def test_service_sustained_load(benchmark, emit, record, tmp_path):
    cold, warm = benchmark.pedantic(
        lambda: asyncio.run(_bench(tmp_path / "cache")),
        rounds=1, iterations=1,
    )
    lanes = sum(spec.get("batch", 1) for spec in WORKLOAD)
    assert cold["cache_misses"] == lanes, cold
    assert warm["cache_hits"] == lanes, warm
    speedup = warm["throughput_jobs_s"] / cold["throughput_jobs_s"]

    record(
        bench="service",
        p=P,
        k=K,
        jobs=len(WORKLOAD),
        lanes=lanes,
        cold=cold,
        warm=warm,
        speedup={"warm_cache": round(speedup, 3)},
    )

    emit(
        "MCB job service — sustained mixed load over HTTP "
        f"({len(WORKLOAD)} jobs / {lanes} lanes, 4 workers, process pool; "
        f"warm-cache throughput ≥{REQUIRED_WARM_SPEEDUP:.0f}x required)",
        ["pass", "p50 (ms)", "p99 (ms)", "jobs/s", "cache hit/miss"],
        [
            [
                name,
                f"{d['latency_p50_ms']:.1f}",
                f"{d['latency_p99_ms']:.1f}",
                f"{d['throughput_jobs_s']:.1f}",
                f"{d['cache_hits']}/{d['cache_misses']}",
            ]
            for name, d in (("cold", cold), ("warm", warm))
        ],
        notes=f"warm/cold throughput: {speedup:.1f}x",
        bench="service",
    )

    assert speedup >= REQUIRED_WARM_SPEEDUP, (
        f"warm-cache throughput {speedup:.2f}x < required "
        f"{REQUIRED_WARM_SPEEDUP}x over the cold pass"
    )
