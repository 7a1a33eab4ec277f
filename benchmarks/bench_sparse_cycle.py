"""Sparse-cycle benchmark: Listen parking vs per-cycle polling.

The PR-2 engine resumes every live generator every cycle, so a phase in
which ``k`` writers stream while ``p - k`` processors merely wait costs
O(p) per cycle no matter how little is actually happening.  The
sparse-cycle engine parks :class:`~repro.mcb.program.Listen` readers on
per-channel wait-lists, making a cycle cost O(active writers/readers +
wakeups).  This benchmark measures exactly that gap on the two
workloads the acceptance criterion names, at ``p >= 4096`` with
``k <= 8`` channels:

* ``broadcast-listen`` — the §8 selection collect shape: ``k`` writers
  stream one message per cycle on their own channel while the other
  ``p - k`` processors each absorb one channel's full stream.  The
  *parked* leg uses one bounded ``Listen`` per reader; the *polling*
  leg is the identical workload desugared into per-cycle
  ``CycleOp(read=...)`` loops — the only form the PR-2 engine could
  run, and a path this PR leaves untouched, so it stands in for the
  pre-change engine without keeping a second engine in-tree.
* ``single-channel-wait`` — the gather-sort-scatter / answer-broadcast
  shape: one processor computes (sleeps) for a stretch, then broadcasts
  on the single channel while everyone else waits for the result.  The
  parked leg uses ``Listen(1, until_nonempty=True)``; the polling leg
  reads every cycle until non-EMPTY.

Acceptance gate: the parked leg must be **>= 4x** the polling leg on
the listener-dominated ``broadcast-listen`` workload at (4096, 8).  Both
legs of that configuration run ``GATE_ROUNDS`` times, alternating, and
the gate compares their median rates, so one noisy timing cannot decide
it.

The same programs run at a small configuration on both the fast engine
and :class:`~repro.mcb.reference.ReferenceMCBNetwork`, asserting
bit-identical results and ``RunStats.to_dict()`` — the speedup is not
allowed to buy any accounting drift.

Results accumulate in ``benchmarks/results/session/BENCH_sparse_cycle.json``
(canonical bench name ``sparse_cycle``); the CI perf-regression check
compares them with the committed ``benchmarks/results/BENCH_sparse_cycle.json``.
"""

from __future__ import annotations

import statistics
import time

from repro.mcb import CycleOp, Listen, MCBNetwork, Message
from repro.mcb.message import EMPTY
from repro.mcb.program import Sleep
from repro.mcb.reference import ReferenceMCBNetwork

#: (p, k) grids for the two workloads; the gate applies at (4096, 8).
CONFIGS = [(4096, 4), (4096, 8)]
#: Streaming window (cycles) of the broadcast-listen workload.
WINDOW = 192
#: Compute stretch (cycles) before the single-channel answer broadcast.
COMPUTE = 512
#: Acceptance criterion: parked/polling on broadcast-listen at (4096, 8).
REQUIRED_SPEEDUP = 4.0
#: Paired rounds of the gated leg; the gate takes the ratio of medians.
GATE_ROUNDS = 5


# ---------------------------------------------------------------------------
# Workload 1: k writers stream, p-k readers absorb one channel each.
# ---------------------------------------------------------------------------

def make_broadcast_listen(parked: bool, window: int):
    """The §8 collect shape; ``parked`` picks Listen vs per-cycle reads."""

    def program(ctx):
        k = ctx.k
        if ctx.pid <= k:
            ch = ctx.pid
            op = CycleOp(write=ch, payload=Message("elem", ctx.pid), read=None)
            for _ in range(window):
                yield op
            return window
        ch = (ctx.pid - 1) % k + 1
        if parked:
            heard = yield Listen(ch, window)
            return len(heard)
        op = CycleOp(read=ch)
        heard = 0
        for _ in range(window):
            got = yield op
            if got is not EMPTY:
                heard += 1
        return heard

    return program


# ---------------------------------------------------------------------------
# Workload 2: one computing writer, p-1 processors awaiting the answer.
# ---------------------------------------------------------------------------

def make_single_channel_wait(parked: bool, compute: int):
    """The answer-broadcast shape on one channel."""

    def program(ctx):
        if ctx.pid == 1:
            yield Sleep(compute)
            yield CycleOp(write=1, payload=Message("ans", 42))
            return 42
        if parked:
            _, got = yield Listen(1, until_nonempty=True)
            return got.fields[0]
        while True:
            got = yield CycleOp(read=1)
            if got is not EMPTY:
                return got.fields[0]

    return program


def run_leg(net, factory, flag, p, extent):
    """Time one leg; returns (proc_cycles_per_s, results, phase_stats)."""
    programs = {pid: factory(flag, extent) for pid in range(1, p + 1)}
    start = time.perf_counter()
    results = net.run(programs, phase="sparse")
    wall = time.perf_counter() - start
    ph = net.stats.phases[-1]
    return p * ph.cycles / wall, results, ph


def check_legs_identical(parked, polling, label):
    """Parked and polling legs must agree on results and accounting."""
    _, res_a, ph_a = parked
    _, res_b, ph_b = polling
    assert res_a == res_b, label
    assert ph_a.cycles == ph_b.cycles, label
    assert ph_a.messages == ph_b.messages, label
    assert ph_a.bits == ph_b.bits, label
    assert ph_a.channel_writes == ph_b.channel_writes, label


def timed_legs(p, k, factory, extent, rounds):
    """Run the parked and polling legs ``rounds`` times, alternating,
    each on a fresh network; returns the last run of each leg with its
    rate replaced by the median rate over the rounds."""
    rates = {True: [], False: []}
    last = {}
    for _ in range(rounds):
        for flag in (True, False):
            last[flag] = run_leg(MCBNetwork(p=p, k=k), factory, flag, p, extent)
            rates[flag].append(last[flag][0])
    return tuple(
        (statistics.median(rates[flag]),) + last[flag][1:]
        for flag in (True, False)
    )


def test_sparse_cycle_speedup(emit, record):
    rows = []
    gate_speedup = None
    for p, k in CONFIGS:
        legs = {}
        for workload, factory, extent in [
            ("broadcast-listen", make_broadcast_listen, WINDOW),
            ("single-channel-wait", make_single_channel_wait, COMPUTE),
        ]:
            wk = 1 if workload == "single-channel-wait" else k
            gated = (p, k) == (4096, 8) and workload == "broadcast-listen"
            parked, polling = timed_legs(
                p, wk, factory, extent, GATE_ROUNDS if gated else 1
            )
            check_legs_identical(parked, polling, (workload, p, k))
            speedup = parked[0] / polling[0]
            legs[workload] = (parked[0], polling[0], speedup)
            if gated:
                gate_speedup = speedup
            rows.append(
                [
                    workload,
                    f"({p},{k})",
                    f"{polling[0]:,.0f}",
                    f"{parked[0]:,.0f}",
                    f"{speedup:.2f}x",
                ]
            )
        record(
            bench="sparse_cycle",
            p=p,
            k=k,
            window=WINDOW,
            compute=COMPUTE,
            proc_cycles_per_s={
                w: {"polling": round(poll, 1), "parked": round(park, 1)}
                for w, (park, poll, _) in legs.items()
            },
            speedup={
                w: round(s, 3) for w, (_, _, s) in legs.items()
            },
        )

    assert gate_speedup is not None
    assert gate_speedup >= REQUIRED_SPEEDUP, (
        f"listen parking {gate_speedup:.2f}x < required "
        f"{REQUIRED_SPEEDUP}x over per-cycle polling at (4096, 8)"
    )

    emit(
        "Sparse-cycle engine — processor-cycles/s, parked Listen vs "
        f"per-cycle polling (≥{REQUIRED_SPEEDUP:.0f}x required on "
        "broadcast-listen at (4096,8))",
        ["workload", "(p,k)", "polling", "parked", "speedup"],
        rows,
        bench="sparse_cycle",
    )


def test_sparse_cycle_matches_reference():
    """Small-scale replica of both workloads: the parked fast engine and
    the desugaring reference engine must agree bit for bit, including
    ``RunStats.to_dict()`` (cycle/message/phase accounting)."""
    p, k = 32, 4
    for workload, factory, extent, wk in [
        ("broadcast-listen", make_broadcast_listen, 16, k),
        ("single-channel-wait", make_single_channel_wait, 24, 1),
    ]:
        fast = MCBNetwork(p=p, k=wk)
        ref = ReferenceMCBNetwork(p=p, k=wk)
        programs = {pid: factory(True, extent) for pid in range(1, p + 1)}
        res_fast = fast.run(programs, phase=workload)
        res_ref = ref.run(programs, phase=workload)
        assert res_fast == res_ref, workload
        assert fast.stats.to_dict() == ref.stats.to_dict(), workload
