"""Engine hot-path microbenchmark: processor-cycles/s on a ping workload.

Measures the scheduler itself, not any algorithm: the first ``k``
processors each broadcast on their own channel every cycle while all
``p`` processors read — every cycle is a full write+read round with zero
local computation, so wall-clock is pure engine overhead.

Three legs per (p, k) configuration:

* ``reference`` — :class:`~repro.mcb.reference.ReferenceMCBNetwork`,
  the plain per-cycle interpreter, with programs constructing one
  ``CycleOp`` per cycle.  This is the baseline the ≥3× acceptance
  criterion is measured against.
* ``fast`` — the current :class:`~repro.mcb.MCBNetwork` with programs
  constructing one ``CycleOp`` per cycle (the worst case for the new
  engine: op construction dominates).
* ``fast-hoisted`` — the current engine with programs re-yielding a
  prebuilt op, the idiom the paper's oblivious schedules use (see
  ``IDLE`` in ``repro.mcb.program``).  This is the hot-path number.

The same run doubles as an equivalence spot-check: all legs must report
identical cycles/messages/bits/channel_writes.

Records before the reference leg existed measured a ``seed`` leg (the
pre-optimization loop bound to frozen-dataclass op classes) and carry
``speedup_hoisted``/``speedup_constructing``; records with the
reference leg carry ``speedup_hoisted_vs_ref`` and
``speedup_constructing_vs_ref``, a separate series for the regression
check.

Each run appends its records to
``benchmarks/results/session/BENCH_engine_hotpath.json`` (one JSON object
per line, canonical bench name ``engine_hotpath``); the CI regression
check compares them with the committed baseline,
``benchmarks/results/BENCH_engine_hotpath.json``.
"""

from __future__ import annotations

import time

from repro.mcb import CycleOp, MCBNetwork, Message
from repro.mcb.reference import ReferenceMCBNetwork

CONFIGS = [(256, 16), (1024, 32)]
CYCLES = 1500
#: Acceptance criterion at (1024, 32): fast-hoisted vs the reference leg.
REQUIRED_SPEEDUP = 3.0


def make_ping(cycles):
    """Ping program: constructs one op per cycle (construction-bound)."""

    def ping(ctx):
        ch = (ctx.pid - 1) % ctx.k + 1
        if ctx.pid <= ctx.k:
            msg = Message("ping", ctx.pid)
            for _ in range(cycles):
                yield CycleOp(write=ch, payload=msg, read=ch)
        else:
            for _ in range(cycles):
                yield CycleOp(read=ch)
        return None

    return ping


def make_ping_hoisted(cycles):
    """Ping program re-yielding one prebuilt op (scheduler-bound)."""

    def ping(ctx):
        ch = (ctx.pid - 1) % ctx.k + 1
        if ctx.pid <= ctx.k:
            op = CycleOp(write=ch, payload=Message("ping", ctx.pid), read=ch)
        else:
            op = CycleOp(read=ch)
        for _ in range(cycles):
            yield op
        return None

    return ping


def run_leg(net, program_factory, p):
    """Time one engine+workload leg; returns (proc_cycles_per_s, stats)."""
    programs = {pid: program_factory(CYCLES) for pid in range(1, p + 1)}
    start = time.perf_counter()
    net.run(programs, phase="ping")
    wall = time.perf_counter() - start
    ph = net.stats.phases[-1]
    assert ph.cycles == CYCLES
    return p * CYCLES / wall, ph


def test_engine_hotpath(benchmark, emit, record):
    rows = []
    speedups = {}
    for p, k in CONFIGS:
        legs = {}
        stats = {}

        ref_net = ReferenceMCBNetwork(p=p, k=k)
        legs["reference"], stats["reference"] = run_leg(ref_net, make_ping, p)

        fast_net = MCBNetwork(p=p, k=k)
        legs["fast"], stats["fast"] = run_leg(fast_net, make_ping, p)

        hoist_net = MCBNetwork(p=p, k=k)
        if (p, k) == (1024, 32):
            # Route the headline leg through pytest-benchmark too.
            ph = benchmark.pedantic(
                lambda: run_leg(hoist_net, make_ping_hoisted, p),
                rounds=1,
                iterations=1,
            )
            legs["fast-hoisted"], stats["fast-hoisted"] = ph
        else:
            legs["fast-hoisted"], stats["fast-hoisted"] = run_leg(
                hoist_net, make_ping_hoisted, p
            )

        # Equivalence spot-check: identical accounting on every leg.
        base = stats["reference"]
        for name, ph in stats.items():
            assert ph.cycles == base.cycles, name
            assert ph.messages == base.messages, name
            assert ph.bits == base.bits, name
            assert ph.channel_writes == base.channel_writes, name

        speedup_hoisted = legs["fast-hoisted"] / legs["reference"]
        speedup_constructing = legs["fast"] / legs["reference"]
        speedups[(p, k)] = speedup_hoisted
        rows.append(
            [
                f"({p},{k})",
                f"{legs['reference']:,.0f}",
                f"{legs['fast']:,.0f}",
                f"{legs['fast-hoisted']:,.0f}",
                f"{speedup_constructing:.2f}x",
                f"{speedup_hoisted:.2f}x",
            ]
        )
        record(
            bench="engine_hotpath",
            p=p,
            k=k,
            cycles=CYCLES,
            proc_cycles_per_s={
                name: round(v, 1) for name, v in legs.items()
            },
            speedup_constructing_vs_ref=round(speedup_constructing, 3),
            speedup_hoisted_vs_ref=round(speedup_hoisted, 3),
            messages=base.messages,
            bits=base.bits,
        )

        # The fast engine must never lose to the reference interpreter,
        # even on the construction-bound variant.
        assert legs["fast"] > legs["reference"], (p, k)

    assert speedups[(1024, 32)] >= REQUIRED_SPEEDUP, (
        f"hot path {speedups[(1024, 32)]:.2f}x < required "
        f"{REQUIRED_SPEEDUP}x over the reference interpreter"
    )

    emit(
        "Engine hot path — processor-cycles/s, ping workload "
        f"({CYCLES} cycles; ≥{REQUIRED_SPEEDUP:.0f}x required at (1024,32))",
        [
            "(p,k)", "reference", "fast", "fast-hoisted", "fast/ref",
            "hoisted/ref",
        ],
        rows,
        bench="engine_hotpath",
    )
