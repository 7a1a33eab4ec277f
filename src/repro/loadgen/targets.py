"""Load targets: where a scenario's queries actually execute.

Two implementations of the same tiny async interface:

* :class:`InProcessTarget` — runs each query on the simulator directly,
  on a thread pool sized to the scenario's concurrency.  Queries whose
  identity matches the benchmark harness (uniform input, median rank)
  are delegated to :func:`repro.bench.runner.run_config` and optionally
  served from / written to a shared :class:`~repro.bench.cache.ResultCache`,
  so loadgen traffic and bench grids share cache entries byte for byte.
  Non-uniform profiles (skewed, duplicate-heavy, adversarial) are
  materialized here and always simulated.

* :class:`HttpTarget` — submits each query to a running
  ``python -m repro serve`` instance over its HTTP API (raw sockets, no
  client dependency) and polls to the terminal state.  The service's
  job model runs even distributions and median selection only, so this
  target accepts **uniform** templates exclusively —
  :meth:`HttpTarget.check_scenario` rejects anything else up front with
  a per-template explanation instead of failing query by query.

Both return a :class:`QueryOutcome`; a bounded-queue 429 from the
service maps to ``status="rejected"`` (counted, not raised) because
backpressure is part of what a load test measures.
"""

from __future__ import annotations

import asyncio
import json
import random
from concurrent.futures import ThreadPoolExecutor
from typing import Any, NamedTuple, Optional

from ..bench.cache import ResultCache
from ..bench.runner import BenchSpec, run_config
from ..core.distribution import Distribution
from .scenario import Query, ScenarioSpec


class QueryOutcome(NamedTuple):
    """What happened to one query (terminal, never raises)."""

    ok: bool
    status: str  # "done" | "failed" | "rejected"
    cache_hit: bool = False
    detail: str = ""


class Target:
    """Async execution surface the :class:`~repro.loadgen.engine.LoadRunner`
    drives.  ``start``/``close`` bracket the run; ``run`` executes one
    query and must return an outcome rather than raise."""

    async def start(self, concurrency: int) -> None:  # pragma: no cover
        """Acquire resources sized for ``concurrency`` parallel queries."""
        pass

    async def close(self) -> None:  # pragma: no cover
        """Release whatever :meth:`start` acquired."""
        pass

    async def run(self, query: Query) -> QueryOutcome:
        """Execute one query; report failure via the outcome, not raises."""
        raise NotImplementedError

    def describe(self) -> str:
        """One-line label for reports and the dashboard header."""
        return type(self).__name__


# ---------------------------------------------------------------------------
# In-process target
# ---------------------------------------------------------------------------

def materialize(query: Query) -> Distribution:
    """Build the input instance for a resolved query (deterministic)."""
    if query.distribution == "uniform":
        return Distribution.even(query.n, query.p, seed=query.seed)
    if query.distribution == "skewed":
        return Distribution.uneven(
            query.n, query.p, seed=query.seed, skew=query.skew
        )
    if query.distribution == "duplicate-heavy":
        rng = random.Random(query.seed)
        # Values from only `distinct` magnitudes, spread far apart so
        # ties are ties of value, not neighbours by accident.
        magnitudes = [1000 * (i + 1) for i in range(query.distinct)]
        values = [rng.choice(magnitudes) for _ in range(query.n)]
        base, extra = divmod(query.n, query.p)
        parts, at = [], 0
        for i in range(query.p):
            size = base + (1 if i < extra else 0)
            parts.append(values[at: at + size])
            at += size
        return Distribution.from_lists(parts)
    if query.distribution == "adversarial":
        sizes = Distribution.uneven(
            query.n, query.p, seed=query.seed, skew=query.skew
        ).sizes()
        return Distribution.theorem3_worst_case(sizes, seed=query.seed)
    raise ValueError(f"unknown distribution profile {query.distribution!r}")


def resolve_rank(query: Query, dist: Distribution) -> int:
    """Resolve a template's symbolic rank against the built instance."""
    if query.rank == "median":
        return (dist.n + 1) // 2
    if query.rank == "adversarial":
        from ..bounds.adversary import hardest_rank

        return hardest_rank(dist.sizes())
    return min(int(query.rank), dist.n)


def _bench_identical(query: Query) -> bool:
    """True when the query is exactly a benchmark-harness configuration
    (uniform even input; selection at the median), i.e. shares cache
    identity with :func:`repro.bench.runner.run_config`."""
    if query.distribution != "uniform":
        return False
    return query.algorithm == "sort" or query.rank == "median"


class InProcessTarget(Target):
    """Run queries on the simulator inside this process."""

    def __init__(
        self,
        *,
        cache: Optional[ResultCache] = None,
        max_workers: Optional[int] = None,
    ):
        self.cache = cache
        self._max_workers = max_workers
        self._pool: Optional[ThreadPoolExecutor] = None

    async def start(self, concurrency: int) -> None:
        """Spin up the thread pool (one worker per concurrency slot)."""
        width = self._max_workers or concurrency
        self._pool = ThreadPoolExecutor(
            max_workers=width, thread_name_prefix="loadgen"
        )

    async def close(self) -> None:
        """Shut the thread pool down, waiting for in-flight queries."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    async def run(self, query: Query) -> QueryOutcome:
        """Run one query on the pool without blocking the event loop."""
        loop = asyncio.get_running_loop()
        assert self._pool is not None, "start() must run before queries"
        return await loop.run_in_executor(self._pool, self.run_sync, query)

    def run_sync(self, query: Query) -> QueryOutcome:
        """Execute one query synchronously (thread-pool body)."""
        try:
            if _bench_identical(query):
                return self._run_bench_identical(query)
            return self._run_materialized(query)
        except Exception as exc:  # noqa: BLE001 — outcomes, not raises
            return QueryOutcome(
                ok=False, status="failed",
                detail=f"{type(exc).__name__}: {exc}",
            )

    def _run_bench_identical(self, query: Query) -> QueryOutcome:
        spec = BenchSpec(
            algorithm=query.algorithm, p=query.p, k=query.k, n=query.n,
            seed=query.seed, engine=query.engine, backend=query.backend,
        )
        if self.cache is not None:
            cached = self.cache.get(spec.key)
            if cached is not None:
                return QueryOutcome(ok=True, status="done", cache_hit=True)
        payload = run_config(spec)
        if self.cache is not None:
            self.cache.put(spec.key, payload)
        return QueryOutcome(ok=True, status="done")

    def _run_materialized(self, query: Query) -> QueryOutcome:
        from ..mcb.network import MCBNetwork

        dist = materialize(query)
        net = MCBNetwork(p=query.p, k=query.k)
        if query.algorithm == "sort":
            from ..sort import mcb_sort

            mcb_sort(
                net, dist, engine=query.engine, backend=query.backend
            )
        else:
            from ..select import mcb_select

            mcb_select(net, dist, resolve_rank(query, dist),
                       engine=query.engine)
        return QueryOutcome(ok=True, status="done")

    def describe(self) -> str:
        """Label naming the data path and whether a cache is attached."""
        cached = "cached" if self.cache is not None else "uncached"
        return f"in-process simulator ({cached})"


# ---------------------------------------------------------------------------
# HTTP target
# ---------------------------------------------------------------------------

class HttpTarget(Target):
    """Drive a running ``repro serve`` instance over its HTTP API."""

    def __init__(
        self,
        host: str,
        port: int,
        *,
        poll_interval_s: float = 0.005,
        timeout_s: float = 120.0,
    ):
        self.host = host
        self.port = port
        self.poll_interval_s = poll_interval_s
        self.timeout_s = timeout_s

    @classmethod
    def from_url(cls, url: str, **kwargs: Any) -> "HttpTarget":
        """Parse ``http://host:port`` (scheme optional) into a target."""
        body = url.partition("://")[2] or url
        host, sep, port_str = body.rstrip("/").rpartition(":")
        if not sep or not port_str.isdigit():
            raise ValueError(
                f"expected a URL like http://127.0.0.1:8577, got {url!r}"
            )
        return cls(host or "127.0.0.1", int(port_str), **kwargs)

    @staticmethod
    def check_scenario(spec: ScenarioSpec) -> None:
        """Reject scenarios the service's job model cannot express.

        ``POST /jobs`` runs even distributions and median selection
        only (see :class:`repro.service.jobs.JobSpec`), so every
        template must be ``uniform`` with the default rank; anything
        else raises with the offending templates named, instead of
        turning the whole run into per-query 400s.
        """
        offenders = [
            f"{t.display_name()!r} "
            f"(distribution={t.distribution!r}, rank={t.rank!r})"
            for t in spec.templates
            if t.distribution != "uniform" or t.rank != "median"
        ]
        if offenders:
            raise ValueError(
                "the HTTP target runs the service's job model — uniform "
                "(even) distributions with median selection only; run "
                "these templates against the in-process target instead: "
                + ", ".join(offenders)
            )

    async def run(self, query: Query) -> QueryOutcome:
        """Submit one job and poll it to a terminal state.

        A 429 admission refusal is a measured ``rejected`` outcome —
        backpressure is part of what a load test observes, not an
        error to raise."""
        body = {
            "algorithm": query.algorithm,
            "p": query.p, "k": query.k, "n": query.n,
            "seed": query.seed, "engine": query.engine,
            "backend": query.backend,
        }
        try:
            status, resp = await self._request("POST", "/jobs", body)
        except OSError as exc:
            return QueryOutcome(
                ok=False, status="failed", detail=f"connect: {exc}"
            )
        if status == 429:
            return QueryOutcome(
                ok=False, status="rejected",
                detail=str(resp.get("error", "queue full")),
            )
        if status != 202:
            return QueryOutcome(
                ok=False, status="failed",
                detail=f"POST /jobs -> {status}: {resp.get('error', resp)}",
            )
        return await self._poll(resp["id"])

    async def _poll(self, job_id: str) -> QueryOutcome:
        deadline = asyncio.get_running_loop().time() + self.timeout_s
        delay = self.poll_interval_s
        while True:
            status, job = await self._request("GET", f"/jobs/{job_id}")
            if status != 200:
                return QueryOutcome(
                    ok=False, status="failed",
                    detail=f"GET /jobs/{job_id} -> {status}",
                )
            state = job["state"]
            if state == "done":
                return QueryOutcome(
                    ok=True, status="done",
                    cache_hit=job.get("cache_hits", 0) > 0,
                )
            if state in ("failed", "aborted"):
                return QueryOutcome(
                    ok=False, status="failed",
                    detail=str(job.get("error") or job.get("abort_reason")
                               or state),
                )
            if asyncio.get_running_loop().time() > deadline:
                return QueryOutcome(
                    ok=False, status="failed",
                    detail=f"job {job_id} still {state} after "
                    f"{self.timeout_s}s",
                )
            await asyncio.sleep(delay)
            delay = min(2 * delay, 0.1)

    async def _request(
        self, method: str, path: str, body: Any = None
    ) -> tuple[int, dict[str, Any]]:
        reader, writer = await asyncio.open_connection(self.host, self.port)
        try:
            payload = json.dumps(body).encode() if body is not None else b""
            head = (
                f"{method} {path} HTTP/1.1\r\n"
                f"Host: loadgen\r\nContent-Length: {len(payload)}\r\n\r\n"
            )
            writer.write(head.encode() + payload)
            await writer.drain()
            data = await reader.read()
        finally:
            writer.close()
        head_bytes, _, body_bytes = data.partition(b"\r\n\r\n")
        status = int(head_bytes.split(b" ", 2)[1])
        return status, json.loads(body_bytes) if body_bytes else {}

    def describe(self) -> str:
        """Label naming the server this target drives."""
        return f"HTTP service at {self.host}:{self.port}"
