"""End-to-end benchmark of the MCB simulator and its job service.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py [--workload W] [--seed S] [--seconds T]
        [--trace [0|1]] [--repeat N] [--quick] [--out FILE]
    python3 benchmarks/e2e/run.py --compare A.json B.json
    python3 benchmarks/e2e/run.py --base OTHER/src --repeat N [...]

Each run of a workload happens in a fresh process with fresh plan and
result caches.  Without ``--trace`` the run reports the end-to-end
metrics of ``BENCHMARK.json``; with ``--trace 1`` it reports the
per-layer metrics from a separate, traced run and writes a Chrome
trace.  Every output is checked against the benchmark's own answer.
The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

and a result file (seed, commit, environment, every run) goes to
``--out`` or ``benchmarks/results/e2e/``.  ``--base`` runs another
checkout's program and this one in alternation and compares them.
See README.md.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RESULTS = ROOT / "benchmarks" / "results" / "e2e"
#: Workload processes per run (two under ``--quick``).  Each sets up
#: and measures an equal share of the window; a run's timings are the
#: means over its processes, since a process's memory layout and its
#: server's placement move every timing of that process alike, and
#: ``setup_s`` is the median of their set-ups.
PROCESSES = 3
#: Wall-clock budget for one run of one workload, set-ups included.
RUN_BUDGET_S = 170.0
#: Largest reconciliation error a traced run may show, in percent.
RECONCILE_LIMIT_PCT = 5.0

sys.path.insert(0, str(HERE))
from measure import median, quartiles  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class BenchError(Exception):
    """A run could not produce a result."""


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text())
    except OSError as exc:
        raise BenchError(f"cannot read {path}: {exc}") from None


# ---------------------------------------------------------------------------
# running


def _kill_leftovers(tmp: Path) -> None:
    """Kill servers a crashed or timed-out workload process left behind."""
    from svc import stop_group

    pgids = tmp / "server-pgids"
    if not pgids.exists():
        return
    for line in pgids.read_text().split():
        try:
            os.killpg(int(line), signal.SIGKILL)
        except ProcessLookupError:
            continue
        stop_group(int(line), grace_s=5.0)


def spawn(workload: str, seed: int, seconds: float, deadline: float,
          tmp: Path, src: Path, *flags: str) -> dict:
    """Run ``child.py`` once in a fresh process, with the program under
    ``src``, and parse its result."""
    tmp.mkdir(parents=True)
    env = dict(os.environ)
    env.pop("REPRO_BENCH_MAX_WORKERS", None)
    path = env.get("PYTHONPATH")
    env.update(
        PYTHONPATH=str(src) + (os.pathsep + path if path else ""),
        REPRO_PLAN_CACHE=str(tmp / "plans"),
        XDG_CACHE_HOME=str(tmp / "xdg"),
        TMPDIR=str(tmp),
    )
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds),
           "--tmp", str(tmp), *flags]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: run exceeded {RUN_BUDGET_S:g}s") from None
    finally:
        _kill_leftovers(tmp)
        shutil.rmtree(tmp, ignore_errors=True)
    if proc.returncode != 0:
        raise BenchError(
            f"{workload}: workload process exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_once(workload: str, seed: int, seconds: float, trace: bool,
             quick: bool, spec: dict, tmp_base: Path,
             trace_out: Path | None, src: Path) -> dict:
    """One run: ``PROCESSES`` measuring processes, or one traced one."""
    deadline = time.monotonic() + RUN_BUDGET_S
    counter = itertools.count()

    def child(window_s, *flags):
        return spawn(workload, seed, window_s, deadline,
                     tmp_base / f"{workload}-{next(counter)}", src, *flags)

    flags = ["--quick"] if quick else []
    if trace:
        results = [child(seconds, *flags, "--trace", "--trace-out",
                         str(trace_out))]
        # Layers a workload never enters read 0 (e.g. HTTP in sim-*).
        metrics = {m["name"]: 0.0 for m in spec["per_layer"]}
        metrics.update(results[0]["layers"])
        error = metrics["trace.reconcile_error_pct"]
        if error > RECONCILE_LIMIT_PCT:
            raise BenchError(
                f"{workload}: layer self-times miss the traced wall time "
                f"by {error:.2f}% (limit {RECONCILE_LIMIT_PCT:g}%)")
    else:
        processes = 2 if quick else PROCESSES
        results = [child(seconds / processes, *flags)
                   for _ in range(processes)]
        metrics = combine([r["e2e"] for r in results])
    return {
        "metrics": metrics,
        "setups_s": [r["setup_s"] for r in results],
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "failures": [f for r in results for f in r["failures"]],
        "mismatches": [m for r in results for m in r["mismatches"]],
    }


def combine(parts: list[dict]) -> dict:
    """A run's end-to-end metrics from those of its processes: the mean
    of each timing (the ``model_*`` counts are equal in all of them),
    the median set-up and the highest peak memory."""
    metrics = {name: statistics.mean(p[name] for p in parts)
               for name in parts[0]}
    metrics["setup_s"] = median([p["setup_s"] for p in parts])
    metrics["peak_rss_mb"] = max(p["peak_rss_mb"] for p in parts)
    return metrics


# ---------------------------------------------------------------------------
# reporting


def summarize(runs: list[dict], metric_specs: list[dict]) -> dict:
    out = {}
    for m in metric_specs:
        values = [run["metrics"][m["name"]] for run in runs]
        q1, med, q3 = quartiles(values)
        out[m["name"]] = {
            "unit": m["unit"], "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else 0.0,
            "values": values,
        }
    return out


def print_table(title: str, summary: dict, extra: dict) -> None:
    """Summary rows, then the last run's unbounded extras."""
    print(f"\n== {title} ==")
    print(f"{'metric':34s} {'unit':10s} {'median':>14s} {'q1':>14s} "
          f"{'q3':>14s} {'spread':>8s}")
    for name, s in summary.items():
        print(f"{name:34s} {s['unit']:10s} {s['median']:14.6g} "
              f"{s['q1']:14.6g} {s['q3']:14.6g} {100 * s['spread']:7.2f}%")
    for name, value in extra.items():
        print(f"{name:34s} {'':10s} {value:14.6g}")


def git_commit(src: Path) -> str | None:
    """The commit of the checkout holding ``src`` (None outside git)."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(src.parent.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=src.parent,
                             env=env, capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def env_stamp() -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    from repro.bench import env_metadata

    return env_metadata()


# ---------------------------------------------------------------------------
# comparing


def compare(path_a: Path, path_b: Path, spec: dict) -> int:
    """Apply the BENCHMARK.json bounds to two result files (A = base)."""
    a = json.loads(path_a.read_text())
    b = json.loads(path_b.read_text())
    for key in ("seed", "seconds", "quick", "trace"):
        if a.get(key) != b.get(key):
            raise BenchError(
                f"{key} differs ({a.get(key)!r} in A, {b.get(key)!r} in B): "
                "the runs did not measure the same queries")
    # Runs made by one --base invocation alternate A and B, so the i-th
    # run of each side ran next to each other: count the pairs B won.
    paired = a.get("pairing") is not None and a["pairing"] == b.get("pairing")
    worse = 0
    print(f"{'workload':14s} {'metric':26s} {'A median':>12s} "
          f"{'B median':>12s} {'change':>8s} {'bound':>6s} "
          f"{'spread A/B':>13s} {'B wins':>7s}  verdict")
    for workload in a["workloads"]:
        if workload not in b["workloads"]:
            continue
        sa = a["workloads"][workload]["summary"]
        sb = b["workloads"][workload]["summary"]
        for m in spec["end_to_end"]:
            name = m["name"]
            if name not in sa or name not in sb:
                continue
            ma, mb = sa[name]["median"], sb[name]["median"]
            va, vb = sa[name]["values"], sb[name]["values"]
            change = (mb - ma) / abs(ma) if ma else 0.0
            loss = change if m["better"] == "lower" else -change
            spread = max(sa[name]["spread"], sb[name]["spread"])
            if m["better"] == "lower":
                sign, all_better = 1, max(vb) < min(va)
            else:
                sign, all_better = -1, min(vb) > max(va)
            if spread > m["bound"] and not all_better:
                verdict = "unresolved"
            elif loss > m["bound"]:
                verdict = "WORSE"
                worse += 1
            else:
                verdict = "ok"
            wins = (f"{sum(sign * (y - x) < 0 for x, y in zip(va, vb))}"
                    f"/{len(va)}" if paired else "-")
            print(f"{workload:14s} {name:26s} {ma:12.6g} {mb:12.6g} "
                  f"{100 * change:7.2f}% {100 * m['bound']:5.1f}% "
                  f"{100 * sa[name]['spread']:5.1f}/"
                  f"{100 * sb[name]['spread']:5.1f}% {wins:>7s}  {verdict}")
    return 1 if worse else 0


# ---------------------------------------------------------------------------


def parse_args(argv):
    ap = argparse.ArgumentParser(
        description="End-to-end benchmark of the MCB simulator and service.")
    ap.add_argument("--workload", choices=WORKLOADS,
                    help="one workload (default: all four)")
    ap.add_argument("--seed", type=int, default=0,
                    help="input seed; the same seed gives the same queries")
    ap.add_argument("--seconds", type=float,
                    help="measured window per run (default: run_seconds "
                    "of BENCHMARK.json); results of different windows "
                    "do not compare")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                    choices=(0, 1),
                    help="1: report per-layer metrics from a traced run")
    ap.add_argument("--repeat", type=int, default=1,
                    help="runs per workload; metrics report the median")
    ap.add_argument("--quick", action="store_true",
                    help="smoke mode: windows and query counts cut 20x")
    ap.add_argument("--out", type=Path, help="result file to write")
    ap.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"),
                    help="compare two result files against the bounds")
    ap.add_argument("--base", type=Path, metavar="SRC",
                    help="the src/ directory of another checkout (e.g. the "
                    "parent commit): run it and this checkout's src/ in "
                    "alternation, --repeat pairs, with this benchmark code, "
                    "and compare the two")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        spec = load_spec()
        if args.compare:
            return compare(*args.compare, spec)
        if args.repeat < 1:
            raise BenchError("--repeat must be at least 1")
        return bench(args, spec)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def bench(args, spec: dict) -> int:
    from svc import become_subreaper

    become_subreaper()  # servers of killed workload processes land here
    seconds = args.seconds or float(spec["run_seconds"])
    if args.quick:
        seconds = max(0.5, seconds / 20)
    trace = bool(args.trace)
    sides = {"change": ROOT / "src"}
    if args.base:
        if trace:
            raise BenchError("--base compares end-to-end runs; trace each "
                             "side on its own")
        sides = {"base": args.base.resolve(), "change": ROOT / "src"}
    for src in sides.values():
        if not (src / "repro" / "__init__.py").is_file():
            raise BenchError(f"no repro package under {src}")
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    metric_specs = spec["per_layer"] if trace else spec["end_to_end"]
    stamp = time.strftime("%Y%m%dT%H%M%S")
    out = args.out or RESULTS / (
        f"{stamp}-{args.workload or 'all'}-seed{args.seed}"
        f"{'-trace' if trace else ''}.json")
    paths = {"change": out}
    if args.base:
        paths["base"] = out.with_name(f"{out.stem}-base{out.suffix}")
    out.parent.mkdir(parents=True, exist_ok=True)
    tmp_base = RESULTS / f"tmp-{os.getpid()}"
    env = env_stamp()
    records = {side: {
        "schema": "repro-e2e-bench/1", "seed": args.seed,
        "seconds": seconds, "repeat": args.repeat, "trace": trace,
        "quick": args.quick, "src": str(src), "commit": git_commit(src),
        "env": env, "started": stamp,
        "pairing": f"{stamp}-{os.getpid()}" if args.base else None,
        "workloads": {},
    } for side, src in sides.items()}
    try:
        for workload in workloads:
            runs = {side: [] for side in sides}
            for rep in range(args.repeat):
                # Alternate which side goes first, so a drift in machine
                # speed falls on both sides alike.
                order = list(sides) if rep % 2 == 0 else list(sides)[::-1]
                for side in order:
                    print(f"[e2e] {workload} {side if args.base else 'run'} "
                          f"{rep + 1}/{args.repeat}", file=sys.stderr,
                          flush=True)
                    runs[side].append(run_once(
                        workload, args.seed, seconds, trace, args.quick,
                        spec, tmp_base, out.parent / f"trace-{workload}.json",
                        sides[side]))
            for side in sides:
                records[side]["workloads"][workload] = {
                    "runs": runs[side],
                    "summary": summarize(runs[side], metric_specs)}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp_base, ignore_errors=True)

    for side, path in paths.items():
        path.write_text(json.dumps(records[side], indent=1))
    if args.base:
        correct = all([report(records[side], f"{side}: ")[0]
                       for side in sides])
        print()
        verdict = compare(paths["base"], paths["change"], spec)
        print(f"result files: {paths['base']} {paths['change']}")
        return verdict if correct else 1
    correct, line = report(records["change"], "")
    if trace:
        print(f"\nChrome traces: {out.parent}/trace-<workload>.json")
    print(f"result file: {out}")
    print(json.dumps(line))
    return 0 if correct else 1


def report(record: dict, label: str) -> tuple[bool, dict]:
    """Print one record's tables and problems; returns whether every
    output was correct and the result line."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    several = len(record["workloads"]) > 1
    for workload, body in record["workloads"].items():
        extra = {k: v for k, v in body["runs"][-1]["metrics"].items()
                 if k not in body["summary"]}
        print_table(f"{label}{workload}  seed {record['seed']}, "
                    f"{record['seconds']:g}s window, "
                    f"{record['repeat']} run(s)", body["summary"], extra)
        for run in body["runs"]:
            for line in (run["mismatches"] + run["failures"])[:10]:
                print(f"  {line}")
            # A query that raised or a job that failed has no answer to
            # check, so it fails the run just as a wrong answer does.
            correct &= not run["mismatches"] and not run["failures"]
            attempted += run["attempted"]
            failed += run["failed"]
        prefix = f"{workload}." if several else ""
        for name, s in body["summary"].items():
            metrics[prefix + name] = {"value": s["median"], "unit": s["unit"]}
    return correct, {"correct": correct, "attempted": attempted,
                     "failed": failed, "metrics": metrics}


if __name__ == "__main__":
    sys.exit(main())
