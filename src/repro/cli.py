"""Command-line interface: run the paper's algorithms from a shell.

    python -m repro sort      --n 1024 --p 16 --k 4 [--skew 2.0] [--strategy auto]
    python -m repro select    --n 1024 --p 16 --k 4 --rank 512
    python -m repro quantiles --n 1024 --p 16 --k 4 --q 4
    python -m repro figure1   [--m 6 --k 3]
    python -m repro max       --p 64 --k 4 [--model detect]
    python -m repro profile   sort --n 1024 --p 16 --k 4 [--json]
    python -m repro serve     --port 8577 --workers 4 --queue-size 64
    python -m repro loadgen   --preset mixed --watch [--report out.json]

Every command prints the result summary plus the cycle/message
accounting, so the CLI doubles as a quick cost explorer for the model.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from .analysis import format_table
from .core import Distribution
from .core.problem import is_sorted_output
from .mcb import MCBNetwork
from .loadgen.cli import add_loadgen_parser
from .obs.cli import add_profile_parser, add_timeline_parser
from .service.cli import add_serve_parser
from .select import mcb_select
from .select.multi import mcb_quantiles
from .sort import mcb_sort
from .sort.backends import BACKENDS


def _make_distribution(args) -> Distribution:
    if args.skew is not None:
        return Distribution.uneven(
            args.n, args.p, seed=args.seed, skew=args.skew
        )
    if args.n % args.p != 0:
        raise SystemExit(
            f"--n {args.n} is not a multiple of --p {args.p}; "
            "pass --skew for an uneven distribution"
        )
    return Distribution.even(args.n, args.p, seed=args.seed)


def _add_network_args(sp, with_n: bool = True) -> None:
    if with_n:
        sp.add_argument("--n", type=int, default=1024, help="total elements")
    sp.add_argument("--p", type=int, default=16, help="processors")
    sp.add_argument("--k", type=int, default=4, help="broadcast channels")
    sp.add_argument("--seed", type=int, default=0, help="input seed")


def cmd_sort(args) -> int:
    """Run a distributed sort and print the cost accounting."""
    dist = _make_distribution(args)
    net = MCBNetwork(p=args.p, k=args.k)
    result = mcb_sort(
        net, dist, strategy=args.strategy,
        backend=getattr(args, "backend", "columnsort"),
    )
    ok = is_sorted_output(dist, result.output)
    print(f"sorted n={dist.n} over p={args.p}, k={args.k} "
          f"(n_max={dist.n_max}): {'OK' if ok else 'SPEC VIOLATION'}")
    print(net.stats.breakdown())
    bound_c = max(dist.n / args.k, dist.n_max)
    print(f"\ncycles / max(n/k, n_max) = {net.stats.cycles / bound_c:.2f}   "
          f"messages / n = {net.stats.messages / dist.n:.2f}")
    return 0 if ok else 1


def cmd_select(args) -> int:
    """Run a selection by rank and print the cost accounting."""
    dist = _make_distribution(args)
    if not 1 <= args.rank <= dist.n:
        raise SystemExit(f"--rank must lie in 1..{dist.n}")
    net = MCBNetwork(p=args.p, k=args.k)
    res = mcb_select(net, dist, args.rank)
    print(f"rank {args.rank} of n={dist.n}: {res.value} "
          f"({res.trace.num_phases} filtering phases)")
    print(net.stats.breakdown())
    return 0


def cmd_quantiles(args) -> int:
    """Run a multi-rank quantile query and print the table."""
    dist = _make_distribution(args)
    net = MCBNetwork(p=args.p, k=args.k)
    res = mcb_quantiles(net, dist, args.q)
    rows = [
        [d, res.values[d], res.pool_sizes[d], res.traces[d].num_phases]
        for d in sorted(res.values)
    ]
    print(format_table(
        ["rank", "value", "candidate pool", "phases"],
        rows,
        title=f"{args.q}-quantiles of n={dist.n} (p={args.p}, k={args.k})",
    ))
    print()
    print(net.stats.breakdown())
    return 0


def cmd_figure1(args) -> int:
    """Reproduce Figure 1 (transformations + phase trace)."""
    from .columnsort import columnsort, transformations_demo

    import numpy as np

    print(transformations_demo(args.m, args.k))
    rng = np.random.default_rng(args.seed)
    vals = rng.permutation(args.m * args.k) + 1
    _, trace = columnsort(vals, args.m, args.k, trace=True)
    print()
    print(trace.render())
    return 0


def cmd_experiments(args) -> int:
    """Regenerate experiment tables by running the benchmark harness."""
    import os
    import subprocess
    from pathlib import Path

    bench_dir = Path(__file__).resolve().parents[2] / "benchmarks"
    if not bench_dir.is_dir():
        raise SystemExit(
            "benchmarks/ not found next to the source tree; run from a "
            "source checkout"
        )
    cmd = [
        sys.executable, "-m", "pytest", str(bench_dir),
        "--benchmark-disable", "-q",
    ]
    if args.filter:
        cmd += ["-k", args.filter]
    env = os.environ.copy()
    if args.max_workers is not None:
        # Plumbed to repro.bench.run_grid in the pytest subprocess.
        env["REPRO_BENCH_MAX_WORKERS"] = str(args.max_workers)
    return subprocess.call(cmd, env=env)


def cmd_backends(args) -> int:
    """Print the backend crossover table (cost model per shape)."""
    import json

    from .sort.backends import crossover_table

    rows = crossover_table()
    if args.json:
        print(json.dumps(rows, indent=2, sort_keys=True))
        return 0
    table = []
    for row in rows:
        cells = [row["k"], row["m"], row["n"]]
        for backend in BACKENDS:
            entry = row["backends"][backend]
            cells.append(
                f"{entry['cycles']}cy/{entry['messages']}msg"
                if entry["available"] else "—"
            )
        cells.append(row["choice"])
        table.append(cells)
    print(format_table(
        ["k", "m", "n", *BACKENDS, "auto picks"],
        table,
        title="comparator-network backend crossover "
        "(comm cycles / messages per sort)",
    ))
    return 0


def cmd_max(args) -> int:
    """Extrema finding under the chosen channel-model variant."""
    import numpy as np

    from .mcb.extensions import ExtendedNetwork, find_max_bitwise
    from .prefix import mcb_total_sum

    rng = np.random.default_rng(args.seed)
    vals = {i + 1: int(rng.integers(0, 1 << 20)) for i in range(args.p)}
    truth = max(vals.values())
    if args.model == "exclusive":
        net = MCBNetwork(p=args.p, k=args.k)
        res = mcb_total_sum(net, vals, op=max, identity=0)
        got = res[1]
        cycles, msgs = net.stats.cycles, net.stats.messages
    else:
        xnet = ExtendedNetwork(p=args.p, k=args.k, write_policy=args.model)
        res = find_max_bitwise(xnet, vals)
        got = res[1]
        cycles, msgs = xnet.stats.cycles, xnet.stats.messages
    ok = got == truth
    print(f"max over p={args.p} ({args.model} write): {got} "
          f"{'OK' if ok else 'WRONG'} — {cycles} cycles, {msgs} messages")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Sorting and selection in multi-channel broadcast "
        "networks (Marberg & Gafni 1985) — reproduction CLI",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("sort", help="distributed sort + cost accounting")
    _add_network_args(sp)
    sp.add_argument("--skew", type=float, default=None,
                    help="uneven distribution skew (omit for even)")
    sp.add_argument("--strategy", default="auto",
                    choices=["auto", "even-pk", "collect", "virtual",
                             "virtual-merge", "uneven", "rank", "merge"])
    sp.add_argument("--backend", default="columnsort",
                    choices=[*BACKENDS, "auto"],
                    help="even p=k schedule family ('auto' = cost model)")
    sp.set_defaults(fn=cmd_sort)

    sp = sub.add_parser("select", help="selection by rank")
    _add_network_args(sp)
    sp.add_argument("--skew", type=float, default=None)
    sp.add_argument("--rank", type=int, required=True, help="1 = largest")
    sp.set_defaults(fn=cmd_select)

    sp = sub.add_parser("quantiles", help="multi-rank selection")
    _add_network_args(sp)
    sp.add_argument("--skew", type=float, default=None)
    sp.add_argument("--q", type=int, default=4, help="number of quantiles")
    sp.set_defaults(fn=cmd_quantiles)

    sp = sub.add_parser("figure1", help="reproduce Figure 1")
    sp.add_argument("--m", type=int, default=6)
    sp.add_argument("--k", type=int, default=3)
    sp.add_argument("--seed", type=int, default=1985)
    sp.set_defaults(fn=cmd_figure1)

    sp = sub.add_parser(
        "experiments",
        help="regenerate the EXPERIMENTS.md tables (runs the bench harness)",
    )
    sp.add_argument("--filter", default=None,
                    help="pytest -k expression, e.g. 'e5 or e10'")
    sp.add_argument("--max-workers", type=int, default=None,
                    help="bench grid pool width (0 = in-process)")
    sp.set_defaults(fn=cmd_experiments)

    sp = sub.add_parser(
        "backends",
        help="comparator-network backend crossover table (cost model)",
    )
    sp.add_argument("--json", action="store_true",
                    help="emit the table as JSON instead of text")
    sp.set_defaults(fn=cmd_backends)

    sp = sub.add_parser("max", help="extrema finding under model variants")
    _add_network_args(sp, with_n=False)
    sp.add_argument("--model", default="exclusive",
                    choices=["exclusive", "detect", "priority"])
    sp.set_defaults(fn=cmd_max)

    add_profile_parser(sub)
    add_timeline_parser(sub)
    add_serve_parser(sub)
    add_loadgen_parser(sub)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
