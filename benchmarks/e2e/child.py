"""One workload in a fresh process; prints one JSON result line.

Started by ``run.py``, never by hand: the parent gives this process
fresh cache directories through the environment (``REPRO_PLAN_CACHE``,
``XDG_CACHE_HOME``, ``TMPDIR``) and ``PYTHONPATH`` pointing at the
checkout's ``src``.
"""

import time

STARTED = time.perf_counter()  # set-up time counts from here

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--tmp", type=Path, required=True)
    ap.add_argument("--trace-out", type=Path)
    args = ap.parse_args()
    root = Path(__file__).resolve().parents[2]
    # One CPU for this process and all it starts (the server and its
    # pool inherit it): a handoff between processes is then a switch on
    # that CPU, not a wake-up of another vCPU, and the reference kernel
    # times the very CPU the program runs on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    if args.workload.startswith("sim-"):
        import sim

        result = sim.run(args.workload, args.seed, args.seconds,
                         args.trace, args.quick, STARTED)
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        result["e2e"]["peak_rss_mb"] = rss_kb / 1024
    else:
        import svc

        svc.become_subreaper()
        result = svc.run(args.workload, args.seed, args.seconds,
                         args.trace, args.quick, root, args.tmp / "server",
                         dict(os.environ))

    spans = result.pop("spans", [])
    extra = result.pop("trace_extra", [])
    if args.trace_out and spans:
        from tracing import write_chrome_trace

        write_chrome_trace(args.trace_out, spans, extra)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
