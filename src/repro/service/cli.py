"""``python -m repro serve`` — run the MCB job service.

Examples::

    python -m repro serve                               # 127.0.0.1:8577
    python -m repro serve --port 0                      # free port, printed
    python -m repro serve --workers 8 --queue-size 256
    python -m repro serve --cache-dir /var/tmp/mcb-cache \
        --events-jsonl jobs.jsonl --drain-deadline 10

Submit work and read results with any HTTP client::

    curl -s -X POST localhost:8577/jobs \
        -d '{"algorithm": "sort", "p": 4, "k": 4, "n": 64, "seed": 1}'
    curl -s localhost:8577/jobs/job-000001
    curl -s localhost:8577/metrics

The server drains gracefully on SIGINT/SIGTERM: in-flight jobs get
``--drain-deadline`` seconds to finish, queued-but-unstarted jobs are
aborted and reported.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import signal
import sys

from ..bench.cache import ResultCache
from ..obs.sinks import JsonlSink
from .app import EXECUTOR_MODES, ServiceApp
from .http import ServiceServer


def add_serve_parser(sub) -> None:
    """Register the ``serve`` subcommand on the top-level CLI."""
    sp = sub.add_parser(
        "serve",
        help="run the async sort/select job server (HTTP API + /metrics)",
    )
    sp.add_argument("--host", default="127.0.0.1", help="bind address")
    sp.add_argument("--port", type=int, default=8577,
                    help="bind port (0 = pick a free port)")
    sp.add_argument("--workers", type=int, default=None,
                    help="worker count / pool width (default: "
                    "REPRO_BENCH_MAX_WORKERS, else min(4, cpus))")
    sp.add_argument("--queue-size", type=int, default=64,
                    help="bounded job-queue capacity (backpressure bound)")
    sp.add_argument("--executor", choices=EXECUTOR_MODES, default="process",
                    help="where simulations run (process pool by default)")
    sp.add_argument("--cache-dir", default=None, metavar="DIR",
                    help="result-cache directory (omit to disable caching)")
    sp.add_argument("--events-jsonl", default=None, metavar="PATH",
                    help="append job lifecycle events to this JSONL file")
    sp.add_argument("--keep-finished", type=int, default=1024,
                    help="terminal jobs retained for GET /jobs/{id}")
    sp.add_argument("--drain-deadline", type=float, default=30.0,
                    help="seconds granted to in-flight jobs on shutdown")
    sp.add_argument("--allow-shutdown", action="store_true",
                    help="enable POST /shutdown for remote graceful drains")
    sp.add_argument("--prewarm", action="append", default=None,
                    metavar="[backend:]MxK[:wrap]",
                    help="pre-compile the vector plan cache for this "
                    "shape in every worker at pool start — columnsort "
                    "by default, or any backend by name "
                    "(e.g. --prewarm 1024x32 --prewarm 20x5:wrap "
                    "--prewarm batcher:8x4); repeatable")
    sp.add_argument("--plan-cache", default=None, metavar="DIR",
                    help="persistent compiled-plan cache directory "
                    "(sets REPRO_PLAN_CACHE for this process and its "
                    "workers; 'off' disables; default: "
                    "~/.cache/repro/plans)")
    sp.set_defaults(fn=cmd_serve)


def parse_prewarm(entries) -> tuple:
    """Parse ``--prewarm [backend:]MxK[:wrap]`` into plan-cache tuples.

    Legacy shapes produce columnsort ``(m, k, paper, wrap)`` tuples; a
    leading backend name produces the registry's string-first
    ``(backend, m, k)`` form (see
    :func:`repro.sort.vector.prewarm_plan_cache`).
    """
    configs = []
    for entry in entries or ():
        body, _, flag = entry.partition(":")
        backend = None
        if body and not body[0].isdigit():
            backend, (body, _, flag) = body, flag.partition(":")
            if backend == "columnsort":
                backend = None  # same entries as the legacy form
        wrap = flag == "wrap"
        if flag and not wrap:
            raise SystemExit(
                f"--prewarm: unknown flag {flag!r} in {entry!r} "
                "(only ':wrap' is recognised)"
            )
        if backend is not None and wrap:
            raise SystemExit(
                f"--prewarm: ':wrap' is a columnsort variant, not "
                f"applicable to backend {backend!r} in {entry!r}"
            )
        m_str, sep, k_str = body.partition("x")
        try:
            m, k = int(m_str), int(k_str)
        except ValueError:
            sep = ""
        if not sep:
            raise SystemExit(
                f"--prewarm: expected [backend:]MxK[:wrap], got {entry!r}"
            )
        if backend is not None:
            configs.append((backend, m, k))
        else:
            configs.append((m, k, False, wrap))
    return tuple(configs)


def build_app(args) -> ServiceApp:
    """Construct the :class:`ServiceApp` an argparse namespace describes."""
    plan_cache = getattr(args, "plan_cache", None)
    if plan_cache is not None:
        # Via the environment so spawn-context pool workers inherit it.
        os.environ["REPRO_PLAN_CACHE"] = plan_cache
    sink = JsonlSink(args.events_jsonl, mode="a") if args.events_jsonl else None
    cache = ResultCache(args.cache_dir) if args.cache_dir else None
    return ServiceApp(
        queue_size=args.queue_size,
        workers=args.workers,
        executor=args.executor,
        cache=cache,
        sink=sink,
        keep_finished=args.keep_finished,
        prewarm=parse_prewarm(getattr(args, "prewarm", None)),
    )


async def _serve(args) -> int:
    app = build_app(args)
    server = ServiceServer(
        app,
        host=args.host,
        port=args.port,
        allow_shutdown=args.allow_shutdown,
        drain_deadline=args.drain_deadline,
    )
    await server.start()
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGINT, signal.SIGTERM):
        with contextlib.suppress(NotImplementedError, ValueError):
            loop.add_signal_handler(sig, server.request_shutdown)
    print(
        f"serving MCB jobs on http://{server.host}:{server.port} "
        f"(workers={app.workers}, queue={app.queue_size}, "
        f"executor={app.executor_mode}, "
        f"cache={'on' if app.cache is not None else 'off'})",
        flush=True,
    )
    await server.serve_until_shutdown()
    print("drained; bye", flush=True)
    return 0


def cmd_serve(args) -> int:
    """Entry point for ``python -m repro serve``."""
    try:
        return asyncio.run(_serve(args))
    except KeyboardInterrupt:  # signal handler unavailable (rare platforms)
        print("interrupted", file=sys.stderr)
        return 130
