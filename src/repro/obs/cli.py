"""``python -m repro profile`` / ``timeline`` — instrumented runs.

Examples::

    python -m repro profile sort   --n 1024 --p 16 --k 4
    python -m repro profile sort   --n 1024 --p 16 --k 4 --json
    python -m repro profile sort   --n 1024 --p 16 --k 4 --engine vector
    python -m repro profile select --n 1024 --p 16 --k 4 --rank 512
    python -m repro profile sort   --n 256 --p 8 --k 2 \
        --events events.jsonl --csv events.csv --prom metrics.prom
    python -m repro timeline sort  --n 1024 --p 16 --k 4 --out run.trace.json
    python -m repro timeline select --n 500 --p 16 --k 4 --rank 99

``profile`` prints the per-phase cost breakdown (cycles, messages, bits,
channel utilization, hottest channel, aux-memory peak) with the theory
overlay (predicted cycles/messages from :mod:`repro.bounds.formulas` and
measured/predicted ratios) plus a run-wide utilization timeline;
``--json`` emits the same report as one JSON document whose ``totals``
match the network's ``RunStats`` exactly.

``timeline`` runs the algorithm under a :class:`~repro.obs.trace.TraceBuilder`
and writes a Chrome Trace Event / Perfetto JSON document (load it at
https://ui.perfetto.dev): one lane per processor, one per channel, plus
phase/engine lanes.  A terminal lane summary is printed alongside.
"""

from __future__ import annotations

import json
import math
import sys
from typing import Any

from .profile import Profiler
from .sinks import CsvSink, JsonlSink
from .trace import TraceBuilder, render_lane_summary, to_chrome_trace

_ENGINES = ("fast", "vector")


def _add_run_arguments(sp) -> None:
    """The shared problem-instance flags of ``profile`` and ``timeline``."""
    sp.add_argument("algorithm", choices=["sort", "select"],
                    help="which paper algorithm to run")
    sp.add_argument("--n", type=int, default=1024, help="total elements")
    sp.add_argument("--p", type=int, default=16, help="processors")
    sp.add_argument("--k", type=int, default=4, help="broadcast channels")
    sp.add_argument("--seed", type=int, default=0, help="input seed")
    sp.add_argument("--skew", type=float, default=None,
                    help="uneven distribution skew (omit for even)")
    sp.add_argument("--strategy", default="auto",
                    help="sort strategy (see `repro sort --help`)")
    sp.add_argument("--rank", type=int, default=None,
                    help="selection rank (default: median)")
    sp.add_argument("--engine", choices=_ENGINES, default="fast",
                    help="execution engine: fast (generator; an observed "
                    "run steps on the reference interpreter's loop), vector "
                    "(compiled columnsort for sort, vectorized data plane "
                    "for select)")


def add_profile_parser(sub) -> None:
    """Register the ``profile`` subcommand on the main CLI subparsers."""
    sp = sub.add_parser(
        "profile",
        help="run sort/select under full obs instrumentation",
        description="Run an algorithm with the repro.obs pipeline attached "
        "and print/export a per-phase cost profile with theory overlay.",
    )
    _add_run_arguments(sp)
    sp.add_argument("--json", action="store_true",
                    help="emit the report as JSON on stdout")
    sp.add_argument("--events", default=None, metavar="PATH",
                    help="also export the raw event stream as JSONL")
    sp.add_argument("--csv", default=None, metavar="PATH",
                    help="also export the raw event stream as CSV")
    sp.add_argument("--prom", default=None, metavar="PATH",
                    help="also export the metrics registry in Prometheus "
                    "text exposition format")
    sp.add_argument("--timeline-buckets", type=int, default=60,
                    help="resolution of the utilization timeline")
    sp.set_defaults(fn=cmd_profile)


def add_timeline_parser(sub) -> None:
    """Register the ``timeline`` subcommand on the main CLI subparsers."""
    sp = sub.add_parser(
        "timeline",
        help="export a cycle-accurate Perfetto trace of a run",
        description="Run an algorithm under a TraceBuilder and write a "
        "Chrome Trace Event / Perfetto JSON document (per-processor and "
        "per-channel lanes); prints a terminal lane summary.",
    )
    _add_run_arguments(sp)
    sp.add_argument("--out", default="run.trace.json", metavar="PATH",
                    help="trace output path (default: run.trace.json)")
    sp.add_argument("--summary-width", type=int, default=64,
                    help="bucket count of the terminal channel sparklines")
    sp.set_defaults(fn=cmd_timeline)


def _run_algorithm(net, dist, args, config: dict[str, Any]):
    """Execute sort/select on ``net``; returns (ok, result-ish updates)."""
    from ..core.problem import is_sorted_output
    from ..mcb.errors import ConfigurationError
    from ..select import mcb_select
    from ..sort import mcb_sort

    if args.algorithm == "sort":
        config["strategy"] = args.strategy
        engine = "vector" if args.engine == "vector" else "generator"
        try:
            result = mcb_sort(net, dist, strategy=args.strategy, engine=engine)
        except ConfigurationError as exc:
            raise SystemExit(f"--engine {args.engine}: {exc}")
        ok = is_sorted_output(dist, result.output)
        config["verified"] = bool(ok)
        return ok
    rank = args.rank if args.rank is not None else math.ceil(dist.n / 2)
    if not 1 <= rank <= dist.n:
        raise SystemExit(f"--rank must lie in 1..{dist.n}")
    config["rank"] = rank
    engine = "vector" if args.engine == "vector" else "generator"
    res = mcb_select(net, dist, rank, engine=engine)
    config["selected"] = res.value
    return True


def _theory_config(args, dist) -> dict[str, Any]:
    return {
        "algorithm": args.algorithm,
        "n": dist.n,
        "p": args.p,
        "k": args.k,
        "n_max": dist.n_max,
    }


def cmd_profile(args) -> int:
    """Execute the profile subcommand; returns the process exit code."""
    # Imported lazily: repro.cli imports this module at startup and these
    # pull in numpy + the full algorithm stack.
    from ..cli import _make_distribution
    from ..mcb import MCBNetwork

    dist = _make_distribution(args)
    net = MCBNetwork(p=args.p, k=args.k)

    config: dict[str, Any] = {
        "algorithm": args.algorithm,
        "n": dist.n,
        "p": args.p,
        "k": args.k,
        "seed": args.seed,
        "engine": args.engine,
    }
    if args.skew is not None:
        config["skew"] = args.skew

    prof = Profiler(
        net,
        config=config,
        timeline_buckets=args.timeline_buckets,
        theory=_theory_config(args, dist),
    )
    with prof:
        ok = _run_algorithm(net, dist, args, prof.config)

    report = prof.report()

    if args.events:
        with JsonlSink(args.events) as sink:
            for ev in prof.events:
                sink.emit(ev)
    if args.csv:
        with CsvSink(args.csv) as sink:
            for ev in prof.events:
                sink.emit(ev)
    if args.prom:
        # Include the process-wide families (plan/schedule cache
        # counters, compile seconds) alongside the per-run registry;
        # per-run families win on a name collision.
        from .metrics import MetricsRegistry, global_registry

        merged = MetricsRegistry()
        merged._metrics.update(global_registry()._metrics)
        merged._metrics.update(prof.metrics_observer.registry._metrics)
        with open(args.prom, "w", encoding="utf-8") as fh:
            fh.write(merged.render_prometheus())

    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.render())
        exported = [p for p in (args.events, args.csv, args.prom) if p]
        if exported:
            print(f"\nexports written to: {', '.join(exported)}")
    if args.json:
        # render() already embeds the warning block in text mode; JSON
        # mode surfaces observer failures on stderr so they are never
        # silently swallowed by downstream json parsing.
        for warning in report.warnings():
            print(f"WARNING: {warning}", file=sys.stderr)
    if not ok:
        print("WARNING: sorted output failed verification", file=sys.stderr)
    return 0 if ok else 1


def cmd_timeline(args) -> int:
    """Execute the timeline subcommand; returns the process exit code."""
    from ..bounds.overlay import overlay_phases
    from ..cli import _make_distribution
    from ..mcb import MCBNetwork

    dist = _make_distribution(args)
    net = MCBNetwork(p=args.p, k=args.k)

    config: dict[str, Any] = {
        "algorithm": args.algorithm,
        "n": dist.n,
        "p": args.p,
        "k": args.k,
        "seed": args.seed,
        "engine": args.engine,
    }
    if args.skew is not None:
        config["skew"] = args.skew

    builder = TraceBuilder()
    net.attach_observer(builder)
    try:
        ok = _run_algorithm(net, dist, args, config)
    finally:
        net.detach_observer(builder)
    builder.finish()

    th = _theory_config(args, dist)
    by_phase, _total = overlay_phases(
        th["algorithm"],
        [pt.name for pt in builder.phases],
        n=th["n"], p=th["p"], k=th["k"], n_max=th["n_max"],
    )
    predictions = {
        name: pred.as_fields() for name, pred in by_phase.items()
    }

    doc = to_chrome_trace(builder, config=config, predictions=predictions)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)

    print(render_lane_summary(builder, width=args.summary_width))

    stats_phases = {
        ph["name"]: {"cycles": 0, "messages": 0}
        for ph in net.stats.to_dict()["phases"]
    }
    for ph in net.stats.to_dict()["phases"]:
        stats_phases[ph["name"]]["cycles"] += ph["cycles"]
        stats_phases[ph["name"]]["messages"] += ph["messages"]
    reconciled = builder.phase_totals() == stats_phases
    print(
        f"\ntrace written to {args.out} "
        f"({len(doc['traceEvents'])} events; load at https://ui.perfetto.dev)"
    )
    print(
        "reconciliation vs RunStats: "
        + ("OK (exact)" if reconciled else "MISMATCH")
    )
    if not reconciled:
        print("WARNING: trace totals diverge from RunStats", file=sys.stderr)
    if not ok:
        print("WARNING: sorted output failed verification", file=sys.stderr)
    return 0 if (ok and reconciled) else 1
