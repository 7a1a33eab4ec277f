"""The MCB job service core: bounded queue, worker pool, cache, metrics.

:class:`ServiceApp` is the whole service minus HTTP — deliberately, so
tests and benchmarks drive it deterministically (submit, ``join()``,
``shutdown()``) without sockets or sleeps.  The HTTP layer
(:mod:`repro.service.http`) is a thin request→method mapping on top.

Design contract (mirrors the obs pipeline's bounded-buffer philosophy):

* **Admission** validates against the engines' own
  :class:`~repro.mcb.errors.ConfigurationError` rules, then
  ``put_nowait``s onto a *bounded* :class:`asyncio.Queue`.  A full
  queue raises :class:`QueueFullError` (HTTP 429 + ``Retry-After``) and
  emits :class:`~repro.obs.events.JobRejected` — the queue never grows
  without bound.
* **Execution** happens on worker tasks that dispatch the picklable
  executors in :mod:`repro.service.execution` to a process pool (or a
  thread pool / inline, for tests), so the event loop never blocks on a
  simulation.  Batchable vector jobs run all uncached lanes in one
  columnar pass; everything else goes through the benchmark harness's
  ``run_config``.
* **Results** flow through the :class:`~repro.bench.cache.ResultCache`
  at lane granularity — repeated identical jobs are served without
  simulating, observable on ``bench_result_cache_total``.
* **Shutdown** drains with a deadline: queued-but-unstarted jobs are
  aborted (``reason="shutdown"``), in-flight jobs get ``drain_deadline``
  seconds to finish and are aborted with ``reason="deadline"`` past it.
"""

from __future__ import annotations

import asyncio
import math
import multiprocessing
import os
import time
from collections import deque
from concurrent.futures import Executor, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Optional

from ..bench.cache import ResultCache
from ..bench.runner import resolve_max_workers
from ..bounds.overlay import PhasePrediction, run_prediction
from ..obs.events import (
    JobAborted,
    JobFailed,
    JobFinished,
    JobQueued,
    JobRejected,
    JobStarted,
)
from ..obs.metrics import MetricsRegistry, global_registry
from ..obs.sinks import Sink
from .execution import (
    prewarm_worker,
    run_batch_lanes,
    run_batch_lanes_metered,
    run_lane,
    run_lane_metered,
)
from .jobs import Job, JobSpec, JobState

#: Sub-second-resolution buckets for request/job latency histograms (the
#: registry default buckets are sized for cycle counts, not seconds).
LATENCY_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)

#: Executor modes for the simulation work itself.
EXECUTOR_MODES = ("process", "thread", "sync")


class ServiceError(Exception):
    """Base class for service-level failures."""


class WorkerLostError(ServiceError):
    """A process-pool worker died while running the job.

    The job fails (it may itself have killed the worker, so it is not
    retried); the broken pool is dropped and the next job starts a fresh
    one, prewarmed like the first.
    """


class QueueFullError(ServiceError):
    """The bounded job queue is full; retry after ``retry_after_s``."""

    def __init__(self, retry_after_s: float):
        self.retry_after_s = retry_after_s
        super().__init__(
            f"job queue is full; retry after {retry_after_s:g}s"
        )


class ServiceClosedError(ServiceError):
    """The service is shutting down and no longer admits jobs."""


class ServiceApp:
    """Async job service over the paper's sort/select workloads.

    Parameters
    ----------
    queue_size:
        Bound of the admission queue (backpressure threshold).
    workers:
        Worker-task count *and* executor pool width; ``None`` resolves
        through :func:`repro.bench.runner.resolve_max_workers`
        (``REPRO_BENCH_MAX_WORKERS``), falling back to
        ``min(4, cpu_count)``.
    executor:
        ``"process"`` (default — simulations in a spawn-context
        :class:`ProcessPoolExecutor`; fork would duplicate the running
        event loop into the workers and can deadlock on inherited
        locks), ``"thread"``, or ``"sync"`` (inline on the event loop;
        deterministic, for tests/benches).
    cache:
        Optional :class:`~repro.bench.cache.ResultCache`; lanes with an
        entry are served without simulating.
    registry:
        Metrics registry; defaults to
        :func:`repro.obs.metrics.global_registry` so the cache counters
        (which always land there) and the service gauges share one
        ``/metrics`` exposition.
    sink:
        Optional service-wide :class:`~repro.obs.sinks.Sink` for job
        lifecycle events (closed by :meth:`shutdown`).  It is the only
        event destination: a job cannot name its own, so no client
        chooses a path the server writes to.
    keep_finished:
        How many terminal jobs to retain for ``GET /jobs/{id}`` before
        evicting the oldest — the bounded-memory guarantee under
        sustained load.
    prewarm:
        Optional sequence of ``(m, k[, paper_phase2[, wrap_skip]])``
        tuples: vector-sort plan-cache configurations compiled in every
        executor process at pool start
        (:func:`repro.service.execution.prewarm_worker`), so the first
        vector job never pays plan-compile latency.
    """

    def __init__(
        self,
        *,
        queue_size: int = 64,
        workers: Optional[int] = None,
        executor: str = "process",
        cache: Optional[ResultCache] = None,
        registry: Optional[MetricsRegistry] = None,
        sink: Optional[Sink] = None,
        keep_finished: int = 1024,
        prewarm: Optional[Any] = None,
    ):
        if queue_size < 1:
            raise ValueError(f"queue_size must be >= 1, got {queue_size}")
        if executor not in EXECUTOR_MODES:
            raise ValueError(
                f"executor must be one of {EXECUTOR_MODES}, got {executor!r}"
            )
        resolved = resolve_max_workers(workers)
        if resolved is None:
            resolved = min(4, os.cpu_count() or 1)
        self.queue_size = queue_size
        self.workers = resolved
        self.executor_mode = executor
        self.cache = cache
        self.registry = registry if registry is not None else global_registry()
        self.keep_finished = keep_finished
        self.prewarm = tuple(tuple(c) for c in prewarm) if prewarm else ()
        self._sink = sink
        self._queue: Optional[asyncio.Queue[Job]] = None
        self._worker_tasks: list[asyncio.Task] = []
        self._pool: Optional[Executor] = None
        self._jobs: dict[str, Job] = {}
        self._finished_order: deque[str] = deque()
        self._next_id = 0
        self._closing = False
        self._started = False
        #: EWMA of job wall seconds, seeding the Retry-After estimate.
        self._wall_ewma = 1.0

        reg = self.registry
        self._m_depth = reg.gauge(
            "service_queue_depth", "jobs waiting in the bounded queue"
        )
        self._m_inflight = reg.gauge(
            "service_jobs_in_flight", "jobs currently executing"
        )
        self._m_jobs = reg.counter(
            "service_jobs_total", "job admissions and outcomes by status"
        )
        self._m_requests = reg.counter(
            "service_http_requests_total", "HTTP requests by endpoint and code"
        )
        self._m_request_latency = reg.histogram(
            "service_request_seconds",
            "HTTP request latency by endpoint",
            buckets=LATENCY_BUCKETS,
        )
        self._m_job_wall = reg.histogram(
            "service_job_wall_seconds",
            "job execution wall time (queue wait excluded)",
            buckets=LATENCY_BUCKETS,
        )
        self._m_sink_errors = reg.counter(
            "service_sink_errors_total",
            "lifecycle events a sink failed to accept",
        )
        self._m_pool_restarts = reg.counter(
            "service_pool_restarts_total",
            "broken process pools dropped for a fresh one",
        )
        self._pool_restarts = 0
        self._m_depth.set(0)
        self._m_inflight.set(0)

    # ------------------------------------------------------------------
    # lifecycle

    async def start(self) -> None:
        """Create the queue and spawn the worker tasks (idempotent)."""
        if self._started:
            return
        if self.prewarm:
            # Always prewarm in the serving process too: sync/thread
            # executors share its plan cache directly, and even in
            # process mode this (a) publishes the plan-cache and
            # compile-seconds counters on the /metrics registry at boot
            # and (b) writes the persistent disk cache, so the spawn
            # workers' own initializer prewarm loads from disk instead
            # of recompiling per worker.
            prewarm_worker(self.prewarm)
        self._queue = asyncio.Queue(maxsize=self.queue_size)
        self._worker_tasks = [
            asyncio.create_task(self._worker(wid), name=f"mcb-worker-{wid}")
            for wid in range(self.workers)
        ]
        self._started = True

    async def shutdown(
        self, drain_deadline: Optional[float] = None
    ) -> list[Job]:
        """Stop admitting, drain with a deadline, report aborted jobs.

        Queued-but-unstarted jobs are aborted immediately
        (``reason="shutdown"``); in-flight jobs get ``drain_deadline``
        seconds (``None`` = unbounded) before being cancelled and
        aborted with ``reason="deadline"``.  Returns every job aborted
        by this shutdown.
        """
        self._closing = True
        aborted: list[Job] = []
        if self._queue is not None:
            while True:
                try:
                    job = self._queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
                self._abort(job, "shutdown")
                aborted.append(job)
                self._queue.task_done()
            self._m_depth.set(self._queue.qsize())
            if self._worker_tasks:
                try:
                    await asyncio.wait_for(
                        self._queue.join(), timeout=drain_deadline
                    )
                except asyncio.TimeoutError:
                    pass
        for task in self._worker_tasks:
            task.cancel()
        if self._worker_tasks:
            await asyncio.gather(*self._worker_tasks, return_exceptions=True)
        self._worker_tasks = []
        # A worker cancelled mid-execution marks its job aborted in its
        # CancelledError handler; collect those for the report.
        aborted.extend(
            job for job in self._jobs.values()
            if job.state is JobState.ABORTED and job.abort_reason == "deadline"
        )
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None
        self._close_sink()
        return aborted

    async def join(self) -> None:
        """Wait until every admitted job has reached a terminal state."""
        if self._queue is not None:
            await self._queue.join()

    # ------------------------------------------------------------------
    # admission

    def submit(self, spec: JobSpec) -> Job:
        """Validate and enqueue one job; returns its :class:`Job` record.

        Raises :class:`QueueFullError` when the bounded queue is full
        (the HTTP 429 path) and :class:`ServiceClosedError` during
        shutdown (the HTTP 503 path).
        """
        if not self._started or self._queue is None:
            raise ServiceError("service not started; call start() first")
        if self._closing:
            raise ServiceClosedError("service is shutting down")
        spec.validate()
        self._next_id += 1
        job_id = f"job-{self._next_id:06d}"
        job = Job(id=job_id, spec=spec, submitted_at=time.time())
        try:
            self._queue.put_nowait(job)
        except asyncio.QueueFull:
            retry_after = self._retry_after()
            self._m_jobs.inc(status="rejected")
            self._emit(
                JobRejected(
                    job_id=job_id,
                    queue_depth=self._queue.qsize(),
                    retry_after_s=retry_after,
                )
            )
            raise QueueFullError(retry_after) from None
        self._jobs[job_id] = job
        self._m_jobs.inc(status="queued")
        self._m_depth.set(self._queue.qsize())
        self._emit(
            JobQueued(
                job_id=job_id,
                algorithm=spec.algorithm,
                p=spec.p,
                k=spec.k,
                n=spec.n,
                seed=spec.seed,
                engine=spec.engine,
                batch=spec.batch,
                queue_depth=self._queue.qsize(),
            )
        )
        return job

    def get_job(self, job_id: str) -> Optional[Job]:
        """Look up one job by id (``None`` if unknown or evicted)."""
        return self._jobs.get(job_id)

    def jobs(self) -> list[Job]:
        """Every retained job, oldest first."""
        return list(self._jobs.values())

    def _retry_after(self) -> float:
        """Retry-After estimate: time to drain the full queue."""
        per_worker = self.queue_size / max(1, self.workers)
        return float(min(60, max(1, math.ceil(self._wall_ewma * per_worker))))

    # ------------------------------------------------------------------
    # execution

    async def _worker(self, wid: int) -> None:
        assert self._queue is not None
        while True:
            job = await self._queue.get()
            self._m_depth.set(self._queue.qsize())
            try:
                if job.state is JobState.QUEUED:
                    await self._execute(job, wid)
            except asyncio.CancelledError:
                if not job.state.is_terminal():
                    self._abort(job, "deadline")
                raise
            finally:
                self._queue.task_done()

    async def _execute(self, job: Job, wid: int) -> None:
        job.state = JobState.RUNNING
        job.started_at = time.time()
        job.worker = wid
        self._m_inflight.inc()
        self._emit(
            JobStarted(
                job_id=job.id,
                worker=wid,
                queue_wait_s=round(job.started_at - job.submitted_at, 6),
            )
        )
        try:
            result, hits, misses = await self._run_job(job.spec)
        except Exception as exc:
            job.finished_at = time.time()
            job.state = JobState.FAILED
            job.error = f"{type(exc).__name__}: {exc}"
            self._m_jobs.inc(status="failed")
            self._emit(JobFailed(job_id=job.id, error=job.error))
        else:
            job.finished_at = time.time()
            job.result = result
            job.cache_hits = hits
            job.cache_misses = misses
            job.state = JobState.DONE
            wall = job.wall_s or 0.0
            self._wall_ewma = 0.8 * self._wall_ewma + 0.2 * wall
            self._m_jobs.inc(status="done")
            self._m_job_wall.observe(wall)
            totals = result.get("totals", {})
            self._emit(
                JobFinished(
                    job_id=job.id,
                    cache_hits=hits,
                    cache_misses=misses,
                    wall_s=round(wall, 6),
                    cycles=totals.get("cycles", 0),
                    messages=totals.get("messages", 0),
                )
            )
        finally:
            self._m_inflight.inc(-1)
            # On cancellation (deadline shutdown) the job is not terminal
            # yet; the worker's abort path emits JobAborted itself.
            if job.state.is_terminal():
                self._trim_finished(job)

    async def _run_job(
        self, spec: JobSpec
    ) -> tuple[dict[str, Any], int, int]:
        """Serve the job's lanes from cache, simulate the rest."""
        keys = spec.lane_keys()
        payloads: dict[int, dict[str, Any]] = {}
        if self.cache is not None:
            for i, key in enumerate(keys):
                cached = self.cache.get(key)
                if cached is not None:
                    payloads[i] = cached
        hits = len(payloads)
        misses = len(keys) - hits
        todo = [i for i in range(len(keys)) if i not in payloads]
        if todo:
            bench_spec = spec.bench_spec()
            if self.executor_mode == "process":
                # Workers are separate processes: run the metered
                # variants and fold the full registry increments they
                # ship back — counters, gauges, histograms and quantile
                # sketches alike — into this process's registry, so
                # /metrics reflects worker-side activity (plan-cache
                # traffic, compile seconds, per-lane latency sketches)
                # under load.  sync/thread executors mutate the global
                # registry directly — folding there would double-count.
                if spec.batch > 1:
                    seeds = tuple(spec.seed + i for i in todo)
                    wrapped = await self._dispatch(
                        run_batch_lanes_metered, bench_spec, seeds
                    )
                    fresh = wrapped["payloads"]
                else:
                    wrapped = await self._dispatch(
                        run_lane_metered, bench_spec
                    )
                    fresh = [wrapped["payload"]]
                self._fold_worker_metrics(wrapped["metrics"])
            elif spec.batch > 1:
                seeds = tuple(spec.seed + i for i in todo)
                fresh = await self._dispatch(
                    run_batch_lanes, bench_spec, seeds
                )
            else:
                fresh = [await self._dispatch(run_lane, bench_spec)]
            for i, payload in zip(todo, fresh):
                payloads[i] = payload
                if self.cache is not None:
                    self.cache.put(keys[i], payload)
        lanes = [payloads[i] for i in range(len(keys))]
        cycles = sum(
            lane["stats"]["totals"]["cycles"] for lane in lanes
        )
        messages = sum(
            lane["stats"]["totals"]["messages"] for lane in lanes
        )
        result: dict[str, Any] = {
            "totals": {"cycles": cycles, "messages": messages},
        }
        bounds = self._bounds(spec, cycles, messages)
        if bounds is not None:
            result["bounds"] = bounds
        if spec.batch == 1:
            result["stats"] = lanes[0]["stats"]
            result["fingerprint"] = lanes[0]["fingerprint"]
        else:
            result["lanes"] = lanes
        return result, hits, misses

    def _bounds(
        self, spec: JobSpec, cycles: int, messages: int
    ) -> Optional[dict[str, Any]]:
        """Theory overlay: measured totals vs the paper's Θ bounds."""
        pred = run_prediction(
            spec.algorithm,
            n=spec.n,
            p=spec.p,
            k=spec.k,
            n_max=spec.n // spec.p,
        )
        if pred is None:
            return None
        if spec.batch > 1:
            # Lanes are independent instances: the budget scales linearly.
            pred = PhasePrediction(
                cycles=pred.cycles * spec.batch,
                messages=pred.messages * spec.batch,
                source=pred.source,
                scope=pred.scope,
            )
        return pred.with_ratios(cycles, messages)

    def _fold_worker_metrics(self, delta: dict[str, Any]) -> None:
        """Apply worker-process registry increments to this registry.

        ``delta`` is a :meth:`MetricsRegistry.delta_state` payload; a
        malformed one (version-skewed worker) is surfaced on the sink
        error counter rather than failing the job that carried it.
        """
        try:
            self.registry.fold_state(delta)
        except (KeyError, ValueError, TypeError):
            self._m_sink_errors.inc()

    async def _dispatch(self, fn, *args):
        """Run one executor function off the event loop (mode-dependent)."""
        if self.executor_mode == "sync":
            return fn(*args)
        loop = asyncio.get_running_loop()
        if self.executor_mode == "thread":
            return await loop.run_in_executor(None, fn, *args)
        pool = self._process_pool()
        try:
            future = loop.run_in_executor(pool, fn, *args)
        except BrokenProcessPool:
            # A worker died while the pool was idle: nothing of this job
            # ran yet, so it goes to a fresh pool.
            self._drop_pool(pool)
            pool = self._process_pool()
            future = loop.run_in_executor(pool, fn, *args)
        try:
            return await future
        except BrokenProcessPool as exc:
            self._drop_pool(pool)
            raise WorkerLostError(
                "a pool worker died while running the job; the pool "
                "is restarted for the next one"
            ) from exc

    def _process_pool(self) -> Executor:
        """The process pool, started (with prewarm) on first use."""
        if self._pool is None:
            pool_kwargs: dict[str, Any] = {}
            if self.prewarm:
                pool_kwargs["initializer"] = prewarm_worker
                pool_kwargs["initargs"] = (self.prewarm,)
            self._pool = ProcessPoolExecutor(
                max_workers=max(1, self.workers),
                mp_context=multiprocessing.get_context("spawn"),
                **pool_kwargs,
            )
        return self._pool

    def _drop_pool(self, pool: Executor) -> None:
        """Forget a broken pool, once, however many jobs it failed."""
        if self._pool is not pool:
            return  # another job already replaced it
        self._pool = None
        pool.shutdown(wait=False, cancel_futures=True)
        self._pool_restarts += 1
        self._m_pool_restarts.inc()

    # ------------------------------------------------------------------
    # bookkeeping

    def _abort(self, job: Job, reason: str) -> None:
        job.state = JobState.ABORTED
        job.abort_reason = reason
        job.finished_at = time.time()
        self._m_jobs.inc(status="aborted")
        self._emit(JobAborted(job_id=job.id, reason=reason))
        self._trim_finished(job)

    def _trim_finished(self, job: Job) -> None:
        """Bound the terminal-job index to ``keep_finished`` entries."""
        self._finished_order.append(job.id)
        while len(self._finished_order) > self.keep_finished:
            victim = self._finished_order.popleft()
            self._jobs.pop(victim, None)

    def _emit(self, event) -> None:
        """Deliver one lifecycle event; a broken sink never fails a job."""
        if self._sink is None:
            return
        try:
            self._sink.emit(event)
        except Exception:
            self._m_sink_errors.inc()

    def _close_sink(self) -> None:
        if self._sink is None:
            return
        try:
            self._sink.close()
        except Exception:
            self._m_sink_errors.inc()

    # ------------------------------------------------------------------
    # HTTP-layer accounting hooks

    def observe_request(
        self, endpoint: str, seconds: float, code: int
    ) -> None:
        """Record one HTTP request on the latency/count metrics."""
        self._m_requests.inc(endpoint=endpoint, code=code)
        self._m_request_latency.observe(seconds, endpoint=endpoint)

    def health(self) -> dict[str, Any]:
        """The ``GET /healthz`` payload.

        ``pool`` is ``"up"`` while a process pool is running, ``"down"``
        before the first process job and after a broken pool was dropped
        (the next job starts a fresh one), and ``"none"`` for the thread
        and sync executors; ``pool_restarts`` counts the dropped pools.
        """
        if self.executor_mode != "process":
            pool = "none"
        else:
            pool = "up" if self._pool is not None else "down"
        return {
            "status": "closing" if self._closing else "ok",
            "queue_depth": self._queue.qsize() if self._queue else 0,
            "in_flight": int(self._m_inflight.get()),
            "workers": self.workers,
            "executor": self.executor_mode,
            "pool": pool,
            "pool_restarts": self._pool_restarts,
            "jobs_retained": len(self._jobs),
        }
