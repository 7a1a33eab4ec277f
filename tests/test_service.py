"""Tests for the MCB job service core (no sockets, no sleeps).

Every async scenario is driven to completion with ``asyncio.run`` and
explicit ``join()``/``shutdown()`` calls — the event loop only advances
when the test says so, which is what makes the backpressure and
shutdown assertions deterministic.
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing
import os
import signal

import pytest

from repro.bench.cache import CacheKey, ResultCache
from repro.bench.runner import BenchSpec, resolve_max_workers, run_config
from repro.mcb.errors import ConfigurationError
from repro.obs import (
    JsonlSink,
    MemorySink,
    MetricsRegistry,
    Sink,
    global_registry,
)
from repro.service import (
    JobSpec,
    JobState,
    QueueFullError,
    ServiceApp,
    ServiceClosedError,
)

#: Small even-pk configuration: p = k = 4, m = 16 >= k(k-1), 4 | 16.
SORT = dict(algorithm="sort", p=4, k=4, n=64, seed=1)
SELECT = dict(algorithm="select", p=8, k=2, n=64, seed=0)


def drive(coro):
    return asyncio.run(coro)


def make_app(**kwargs) -> ServiceApp:
    kwargs.setdefault("executor", "sync")
    kwargs.setdefault("workers", 1)
    kwargs.setdefault("registry", MetricsRegistry())
    return ServiceApp(**kwargs)


class TestSpecValidation:
    def test_happy_specs_validate(self):
        JobSpec(**SORT).validate()
        JobSpec(**SELECT).validate()
        JobSpec(**{**SORT, "engine": "vector", "batch": 4}).validate()
        JobSpec(**{**SELECT, "engine": "vector"}).validate()

    @pytest.mark.parametrize("bad", [
        {**SORT, "algorithm": "quicksort"},
        {**SORT, "p": 0},
        {**SORT, "k": 0},
        {**SORT, "k": 8},                      # k > p
        {**SORT, "n": 0},
        {**SORT, "n": 63},                     # p does not divide n
        {**SORT, "engine": "quantum"},
        {**SORT, "batch": 0},
        {**SORT, "batch": 2},                  # batch needs the vector engine
        {**SORT, "engine": "vector", "p": 8, "k": 4, "n": 64},  # p != k
        {**SORT, "engine": "vector", "n": 16},  # m=4 < k(k-1)=12
        {**SORT, "backend": "bitonic"},        # removed backend
        {**SORT, "engine": "vector", "batch": 4, "backend": "bitonic"},
        {**SELECT, "backend": "batcher"},      # select has no backend axis
    ])
    def test_bad_specs_raise_configuration_error(self, bad):
        with pytest.raises(ConfigurationError):
            JobSpec(**bad).validate()

    def test_from_payload_rejects_junk(self):
        with pytest.raises(ConfigurationError):
            JobSpec.from_payload({"algorithm": "sort"})  # missing p/k/n
        with pytest.raises(ConfigurationError):
            JobSpec.from_payload({**SORT, "frobnicate": 1})
        with pytest.raises(ConfigurationError, match="unknown job spec"):
            JobSpec.from_payload({**SORT, "shards": 2})  # removed field
        with pytest.raises(ConfigurationError, match="unknown job spec"):
            JobSpec.from_payload(  # removed field: clients name no paths
                {**SORT, "sinks": [{"kind": "jsonl", "path": "x.jsonl"}]}
            )
        with pytest.raises(ConfigurationError):
            JobSpec.from_payload({**SORT, "p": "four"})
        with pytest.raises(ConfigurationError):
            JobSpec.from_payload({**SORT, "p": True})
        with pytest.raises(ConfigurationError):
            JobSpec.from_payload([1, 2, 3])

    def test_from_payload_rejects_sinks(self):
        with pytest.raises(ConfigurationError, match="'sinks'"):
            JobSpec.from_payload({**SORT, "sinks": ["memory"]})

    def test_lane_keys_alias_solo_runs(self):
        spec = JobSpec(**{**SORT, "engine": "vector", "batch": 3})
        assert spec.lane_keys() == [
            CacheKey("sort", 4, 4, 64, seed, "vector") for seed in (1, 2, 3)
        ]


class TestExecution:
    def test_sort_job_runs_and_matches_bench_harness(self):
        async def scenario():
            app = make_app()
            await app.start()
            job = app.submit(JobSpec(**SORT))
            assert job.state is JobState.QUEUED
            await app.join()
            await app.shutdown()
            return job

        job = drive(scenario())
        assert job.state is JobState.DONE
        expected = run_config(BenchSpec(**SORT))
        assert job.result["stats"] == expected["stats"]
        assert job.result["fingerprint"] == expected["fingerprint"]
        assert job.result["totals"]["cycles"] == expected["stats"]["totals"]["cycles"]

    def test_result_carries_bounds_overlay_ratios(self):
        async def scenario():
            app = make_app()
            await app.start()
            job = app.submit(JobSpec(**SELECT))
            await app.join()
            await app.shutdown()
            return job

        job = drive(scenario())
        bounds = job.result["bounds"]
        assert bounds["bound_source"] == "Corollary 7"
        assert bounds["cycles_ratio"] > 0
        assert bounds["messages_ratio"] > 0

    def test_repeat_job_is_served_from_cache(self, tmp_path):
        async def scenario():
            app = make_app(cache=ResultCache(tmp_path))
            await app.start()
            first = app.submit(JobSpec(**SORT))
            await app.join()
            second = app.submit(JobSpec(**SORT))
            await app.join()
            await app.shutdown()
            return first, second

        first, second = drive(scenario())
        assert (first.cache_hits, first.cache_misses) == (0, 1)
        assert (second.cache_hits, second.cache_misses) == (1, 0)
        assert second.result == first.result

    def test_vector_batch_lanes_match_solo_runs(self, tmp_path):
        vector = {**SORT, "engine": "vector"}

        async def scenario():
            app = make_app(cache=ResultCache(tmp_path))
            await app.start()
            batch = app.submit(JobSpec(**{**vector, "batch": 3}))
            await app.join()
            rerun = app.submit(JobSpec(**{**vector, "batch": 3}))
            await app.join()
            solo = app.submit(JobSpec(**{**vector, "seed": 2}))
            await app.join()
            await app.shutdown()
            return batch, rerun, solo

        batch, rerun, solo = drive(scenario())
        assert batch.state is JobState.DONE
        assert len(batch.result["lanes"]) == 3
        assert (batch.cache_hits, batch.cache_misses) == (0, 3)
        # Identical batch: every lane is a cache hit, nothing simulated.
        assert (rerun.cache_hits, rerun.cache_misses) == (3, 0)
        assert rerun.result == batch.result
        # A solo vector run of lane seed=2 reuses the batch's cache entry
        # and agrees with an independent generator-engine run.
        assert (solo.cache_hits, solo.cache_misses) == (1, 0)
        generator = run_config(BenchSpec(**{**SORT, "seed": 2}))
        assert solo.result["fingerprint"] == generator["fingerprint"]

    def test_failed_job_reports_error(self):
        # Force a failure past admission: monkeypatch-free, just feed the
        # worker a spec whose execution raises (selection engine guard).
        async def scenario():
            app = make_app()
            await app.start()
            job = app.submit(JobSpec(**SORT))
            object.__setattr__(job.spec, "algorithm", "no-such-algo")
            await app.join()
            await app.shutdown()
            return job

        job = drive(scenario())
        assert job.state is JobState.FAILED
        assert "no-such-algo" in job.error

    def test_finished_job_index_is_bounded(self):
        async def scenario():
            app = make_app(keep_finished=3, queue_size=16)
            await app.start()
            jobs = [app.submit(JobSpec(**SORT)) for _ in range(5)]
            await app.join()
            await app.shutdown()
            return app, jobs

        app, jobs = drive(scenario())
        assert len(app.jobs()) == 3
        assert app.get_job(jobs[0].id) is None
        assert app.get_job(jobs[-1].id) is jobs[-1]


class TestBackpressure:
    def test_overflow_rejects_with_retry_after_and_event(self):
        sink = MemorySink()

        async def scenario():
            app = make_app(workers=0, queue_size=2, sink=sink)
            await app.start()
            app.submit(JobSpec(**SORT))
            app.submit(JobSpec(**SORT))
            with pytest.raises(QueueFullError) as excinfo:
                app.submit(JobSpec(**SORT))
            return app, excinfo.value

        app, err = drive(scenario())
        assert err.retry_after_s >= 1
        kinds = [ev.kind for ev in sink.events]
        assert kinds.count("job_queued") == 2
        assert kinds.count("job_rejected") == 1
        rejected = [ev for ev in sink.events if ev.kind == "job_rejected"][0]
        assert rejected.queue_depth == 2
        jobs_total = app.registry.get("service_jobs_total")
        assert jobs_total.get(status="queued") == 2
        assert jobs_total.get(status="rejected") == 1
        # Rejected jobs are never stored: bounded memory by construction.
        assert len(app.jobs()) == 2

    def test_queue_depth_gauge_tracks_enqueue(self):
        async def scenario():
            app = make_app(workers=0, queue_size=4)
            await app.start()
            for _ in range(3):
                app.submit(JobSpec(**SORT))
            return app

        app = drive(scenario())
        assert app.registry.get("service_queue_depth").get() == 3


class TestShutdown:
    def test_shutdown_aborts_queued_unstarted_jobs(self):
        sink = MemorySink()

        async def scenario():
            app = make_app(workers=0, queue_size=8, sink=sink)
            await app.start()
            jobs = [app.submit(JobSpec(**SORT)) for _ in range(3)]
            aborted = await app.shutdown()
            return app, jobs, aborted

        app, jobs, aborted = drive(scenario())
        assert [j.id for j in aborted] == [j.id for j in jobs]
        assert all(j.state is JobState.ABORTED for j in jobs)
        assert all(j.abort_reason == "shutdown" for j in jobs)
        assert [ev.kind for ev in sink.events].count("job_aborted") == 3
        assert app.registry.get("service_jobs_total").get(status="aborted") == 3

    def test_shutdown_drains_in_flight_aborts_queued(self):
        async def scenario():
            app = make_app(workers=1, queue_size=8)
            await app.start()
            # Gate the dispatcher so job 1 is mid-execution (not merely
            # queued) at the moment shutdown begins.
            release: asyncio.Future = (
                asyncio.get_running_loop().create_future()
            )
            real_dispatch = type(app)._dispatch

            async def gated(fn, *args):
                await release
                return await real_dispatch(app, fn, *args)

            app._dispatch = gated
            first = app.submit(JobSpec(**SORT))
            second = app.submit(JobSpec(**SORT))
            await asyncio.sleep(0)  # worker picks up job 1, parks on gate
            assert first.state is JobState.RUNNING
            shutdown = asyncio.ensure_future(
                app.shutdown(drain_deadline=None)
            )
            await asyncio.sleep(0)  # shutdown drains the queue (job 2)
            release.set_result(None)
            aborted = await shutdown
            return first, second, aborted

        first, second, aborted = drive(scenario())
        # The in-flight job ran to completion; the queued one was aborted.
        assert first.state is JobState.DONE
        assert second.state is JobState.ABORTED
        assert second.abort_reason == "shutdown"
        assert aborted == [second]

    def test_deadline_zero_aborts_stuck_in_flight_job(self):
        async def scenario():
            app = make_app(workers=1)
            await app.start()
            # Replace the dispatcher with a future that never resolves —
            # a deterministic stand-in for a wedged simulation.
            stuck: asyncio.Future = asyncio.get_running_loop().create_future()

            async def never(*_args):
                await stuck

            app._dispatch = never
            job = app.submit(JobSpec(**SORT))
            # Hand the loop to the worker exactly once so the job starts.
            await asyncio.sleep(0)
            assert job.state is JobState.RUNNING
            aborted = await app.shutdown(drain_deadline=0)
            return job, aborted

        job, aborted = drive(scenario())
        assert job.state is JobState.ABORTED
        assert job.abort_reason == "deadline"
        assert job in aborted

    def test_submit_after_shutdown_is_refused(self):
        async def scenario():
            app = make_app()
            await app.start()
            await app.shutdown()
            with pytest.raises(ServiceClosedError):
                app.submit(JobSpec(**SORT))

        drive(scenario())


class TestLifecycleSink:
    def test_service_sink_sees_full_lifecycle(self, tmp_path):
        path = tmp_path / "jobs.jsonl"

        async def scenario():
            app = make_app(sink=JsonlSink(path, mode="a"))
            await app.start()
            app.submit(JobSpec(**SORT))
            await app.join()
            await app.shutdown()

        drive(scenario())
        kinds = [
            json.loads(line)["kind"]
            for line in path.read_text().splitlines()
        ]
        assert kinds == ["job_queued", "job_started", "job_finished"]

    def test_raising_sink_never_fails_a_job(self):
        class BoomSink(Sink):
            def emit(self, event):
                raise OSError("disk full")

            def close(self):
                raise OSError("disk full")

        async def scenario():
            app = make_app(sink=BoomSink())
            await app.start()
            job = app.submit(JobSpec(**SORT))
            await app.join()
            await app.shutdown()
            return app, job

        app, job = drive(scenario())
        assert job.state is JobState.DONE
        assert job.result["totals"]["cycles"] > 0
        errors = app.registry.get("service_sink_errors_total").get()
        # queued + started + finished emits, plus the close at shutdown
        assert errors == 4


class TestCacheMetrics:
    def test_result_cache_counts_on_global_registry(self, tmp_path):
        reg = global_registry()
        reg.reset()
        cache = ResultCache(tmp_path)
        key = CacheKey("sort", 4, 4, 64, 1)
        assert cache.get(key) is None
        cache.put(key, {"x": 1})
        assert cache.get(key) == {"x": 1}
        counter = reg.counter("bench_result_cache_total")
        assert counter.get(result="miss") == 1
        assert counter.get(result="hit") == 1

    def test_process_workers_fold_plan_metrics(self, monkeypatch):
        """A spawn worker's plan-cache traffic must land on the app's
        registry (the worker mutates its *own* global registry, which
        /metrics would otherwise never see)."""
        monkeypatch.setenv("REPRO_PLAN_CACHE", "off")
        vector = {**SORT, "engine": "vector"}

        async def scenario():
            app = make_app(executor="process", workers=1)
            await app.start()
            job = app.submit(JobSpec(**vector))
            await app.join()
            await app.shutdown()
            return app, job

        app, job = drive(scenario())
        assert job.state is JobState.DONE
        cache_counter = app.registry.get("vector_plan_cache_total")
        assert cache_counter.get(result="miss", backend="columnsort") >= 1
        assert app.registry.get("vector_plan_compile_seconds").get() > 0

    def test_lane_sketch_folds_across_process_workers(self):
        """Per-lane wall-time sketches observed in >= 2 separate worker
        processes must merge into one distribution on the app's registry
        — the whole point of the mergeable quantile sketch."""
        jobs = [
            {**SORT, "seed": s} for s in range(3)
        ] + [{**SELECT, "seed": s} for s in range(3)]

        async def scenario():
            app = make_app(executor="process", workers=2)
            await app.start()
            submitted = [app.submit(JobSpec(**spec)) for spec in jobs]
            await app.join()
            await app.shutdown()
            return app, submitted

        app, submitted = drive(scenario())
        assert all(j.state is JobState.DONE for j in submitted)
        sketch = app.registry.get("service_lane_wall_seconds")
        assert sketch.count(algorithm="sort") == 3
        assert sketch.count(algorithm="select") == 3
        for algorithm in ("sort", "select"):
            assert sketch.quantile(0.5, algorithm=algorithm) > 0
        # The folded sketch reaches the Prometheus exposition.
        text = app.registry.render_prometheus()
        assert "service_lane_wall_seconds" in text
        assert 'quantile="0.99"' in text


class TestDeadWorker:
    def test_killed_worker_is_replaced(self):
        """SIGKILL the only pool process between jobs: the service must
        drop the broken pool, start a fresh one, and say so in health."""

        async def scenario():
            app = make_app(executor="process", workers=1)
            await app.start()
            first = app.submit(JobSpec(**SORT))
            await app.join()
            before = app.health()
            for proc in multiprocessing.active_children():
                os.kill(proc.pid, signal.SIGKILL)
                proc.join(10)
            # The job that meets the broken pool either never reached it
            # (and runs on the fresh pool) or fails with WorkerLostError;
            # the one after it must run either way.
            later = []
            for seed in (2, 3):
                later.append(app.submit(JobSpec(**{**SORT, "seed": seed})))
                await app.join()
                if later[-1].state is JobState.DONE:
                    break
            after = app.health()
            await app.shutdown()
            return app, first, later, before, after

        app, first, later, before, after = drive(scenario())
        assert first.state is JobState.DONE
        assert later[-1].state is JobState.DONE, later[-1].error
        for job in later[:-1]:
            assert job.state is JobState.FAILED
            assert job.error.startswith("WorkerLostError")
        assert before["pool"] == after["pool"] == "up"
        assert (before["pool_restarts"], after["pool_restarts"]) == (0, 1)
        assert app.registry.get("service_pool_restarts_total").get() == 1


class TestWorkerSizing:
    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_MAX_WORKERS", "7")
        assert resolve_max_workers(2) == 2

    def test_env_applies_as_library_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_MAX_WORKERS", "3")
        assert resolve_max_workers(None) == 3
        app = make_app(workers=None)
        assert app.workers == 3

    def test_unset_env_means_caller_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_MAX_WORKERS", raising=False)
        assert resolve_max_workers(None) is None

    def test_garbage_env_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_MAX_WORKERS", "many")
        with pytest.raises(ValueError):
            resolve_max_workers(None)
        monkeypatch.setenv("REPRO_BENCH_MAX_WORKERS", "-1")
        with pytest.raises(ValueError):
            resolve_max_workers(None)
