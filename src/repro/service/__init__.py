"""repro.service — the MCB algorithms as a long-running async job server.

The ROADMAP's "millions of users, heavy traffic" direction: the paper's
Θ(max{n/k, n_max}) sort and O(n/k + log n · log log n) selection (§6–8)
become *workloads* behind an HTTP API instead of one-shot scripts.

* :mod:`repro.service.jobs` — job specs, admission-time validation
  (the engines' own :class:`~repro.mcb.errors.ConfigurationError`
  rules), lifecycle states;
* :mod:`repro.service.app` — :class:`ServiceApp`: bounded queue with
  explicit backpressure, worker pool routing batchable oblivious jobs
  to the vector engine and everything else through the bench
  ProcessPool, lane-granular result cache, metrics, graceful drain;
* :mod:`repro.service.http` — stdlib-asyncio HTTP/1.1 front end
  (``POST /jobs``, ``GET /jobs/{id}``, ``GET /metrics``, ...);
* :mod:`repro.service.execution` — the picklable pool-side executors;
* :mod:`repro.service.cli` — ``python -m repro serve``.

Quickstart (no HTTP, deterministic)::

    import asyncio
    from repro.service import JobSpec, ServiceApp

    async def main():
        app = ServiceApp(executor="sync", workers=1)
        await app.start()
        job = app.submit(JobSpec("sort", p=4, k=4, n=64, seed=1))
        await app.join()
        print(job.state, job.result["totals"])
        await app.shutdown()

    asyncio.run(main())

See ``docs/SERVICE.md`` for the API schema and operational contracts.
"""

from .app import (
    EXECUTOR_MODES,
    LATENCY_BUCKETS,
    QueueFullError,
    ServiceApp,
    ServiceClosedError,
    ServiceError,
)
from .http import ServiceServer
from .jobs import Job, JobSpec, JobState

__all__ = [
    "EXECUTOR_MODES",
    "LATENCY_BUCKETS",
    "Job",
    "JobSpec",
    "JobState",
    "QueueFullError",
    "ServiceApp",
    "ServiceClosedError",
    "ServiceError",
    "ServiceServer",
]
