"""``run_ops``: a stage in which every processor yields one collective op.

``net.run_ops(make_op)`` is *defined* as ``net.run`` of the program
``lambda ctx: (yield make_op(ctx))`` on ``P_1..P_p``.  The fast engine
runs an unobserved one without generators, straight through the op
class's ``collective``, and falls back to the definition whenever that
step is not taken.  These tests hold both spellings to each other on
``MCBNetwork`` unobserved and observed and on ``ReferenceMCBNetwork``:
results (or the error raised), ``RunStats.to_dict()``, per-processor
aux peaks, event streams and ``network_plan_runs_total`` counts.
"""

from __future__ import annotations

import math
import operator

import pytest

from repro.mcb import Message, MCBNetwork, Sleep
from repro.mcb.program import Emit
from repro.mcb.reference import ReferenceMCBNetwork
from repro.obs import EventLog
from repro.obs.metrics import global_registry
from repro.prefix.mcb_partial_sums import Sweep
from repro.sort.ones import SortOnes, _blocks

#: Every (engine, observed) pair a stage can run on.
ENGINES = [
    (MCBNetwork, False),
    (MCBNetwork, True),
    (ReferenceMCBNetwork, False),
    (ReferenceMCBNetwork, True),
]

LABELS = ("sweep", "sort_ones", "emit")


def plan_runs() -> dict[tuple[str, str], float]:
    counter = global_registry().counter("network_plan_runs_total")
    return {
        (op, path): counter.get(op=op, path=path)
        for op in LABELS
        for path in ("collective", "stepped")
    }


def stage(net, spelling: str, make_op):
    """One stage of ``make_op``'s ops, by ``run_ops`` or by its
    definition."""
    if spelling == "run_ops":
        return net.run_ops(make_op, phase="ops")

    def program(ctx):
        return (yield make_op(ctx))

    return net.run({pid: program for pid in range(1, net.p + 1)}, phase="ops")


def outcome(engine, observed: bool, p: int, k: int, spelling: str, make_op):
    """Everything the two spellings must agree on."""
    net = engine(p, k)
    log = None
    if observed:
        log = EventLog()
        net.attach_observer(log)
    before = plan_runs()
    try:
        res = stage(net, spelling, make_op)
    except Exception as exc:  # compared, not swallowed
        res = (type(exc).__name__, str(exc))
    after = plan_runs()
    return (
        res,
        net.stats.to_dict(),
        [dict(ph.aux_peak) for ph in net.stats.phases],
        None if log is None else log.events,
        {key: n - before[key] for key, n in after.items() if n != before[key]},
    )


def both(p: int, k: int, make_op) -> dict:
    """Both spellings on every engine; asserts they agree and returns
    the ``run_ops`` outcome per engine."""
    got = {}
    for engine, observed in ENGINES:
        ops, run = (
            outcome(engine, observed, p, k, spelling, make_op)
            for spelling in ("run_ops", "run")
        )
        assert ops == run, (engine.__name__, observed)
        got[engine, observed] = ops
    return got


def sweep_ops(p: int, k: int, values, *shape):
    stage_ = (p, k) + shape
    return lambda ctx: Sweep(ctx.pid, values[ctx.pid - 1], stage_)


SHAPES = [
    (operator.add, 0, True, False),
    (operator.add, 0, False, False),
    (max, -math.inf, False, True),
]


@pytest.mark.parametrize(
    "p,k", [(1, 1), (2, 1), (5, 2), (8, 3), (13, 13), (24, 1)]
)
@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("kind", ["int", "float"])
def test_sweeps_match_their_definition(p, k, shape, kind):
    values = [(pid * 37) % 23 - 11 for pid in range(1, p + 1)]
    if kind == "float":
        values = [v / 4 for v in values]
    got = both(p, k, sweep_ops(p, k, values, *shape))
    # Unobserved, the fast engine takes the collective step: no stepped
    # run is counted, and only its unobserved stage counts at all.
    assert got[MCBNetwork, False][4] == {("sweep", "collective"): p}
    for key in ENGINES[1:]:
        assert got[key][4] == {}
        assert got[key][:3] == got[MCBNetwork, False][:3]
    if p == 24:  # sparse tree levels: some cycles are fast-forwarded
        assert got[MCBNetwork, False][1]["phases"][0]["fast_forward_cycles"]


def test_sort_ones_representatives_keep_their_aux_peak():
    p, k = 8, 2
    parts = {pid: [(pid * 5) % 11] for pid in range(1, p + 1)}
    got = both(p, k, lambda ctx: SortOnes(ctx, parts[ctx.pid], p, k))
    reps, _, m_pad, *_ = _blocks(p, k)
    res, stats, aux, _, runs = got[MCBNetwork, False]
    assert runs == {("sort_ones", "collective"): p}
    assert aux == [{pid: m_pad if pid in reps else 0
                    for pid in range(1, p + 1)}]
    assert [v for pid, (v,) in sorted(res.items())] == sorted(
        (v for (v,) in parts.values()), reverse=True
    )
    for key in ENGINES[1:]:
        assert got[key][:3] == (res, stats, aux)


def test_a_declined_step_runs_the_definition():
    # ``add`` on a string raises TypeError: the collective step declines
    # and stepping raises it at its cycle, on both spellings.
    p, k = 6, 2
    values = [1, 2, "three", 4, 5, 6]
    got = both(p, k, sweep_ops(p, k, values, operator.add, 0, False, False))
    res, _, _, _, runs = got[MCBNetwork, False]
    assert res[0] == "TypeError"
    assert runs == {("sweep", "stepped"): p}


def test_ops_not_given_as_p1_to_pp_are_stepped():
    # P_i yields P_{p+1-i}'s op: not P_1..P_p in order, so it is stepped.
    p, k = 6, 2
    values = list(range(10, 10 + p))
    stage_ = (p, k, operator.add, 0, True, False)
    got = both(p, k, lambda ctx: Sweep(p + 1 - ctx.pid, values[ctx.pid - 1],
                                       stage_))
    assert got[MCBNetwork, False][4] == {("sweep", "stepped"): p}


class _OtherSweep(Sweep):
    """A second collective-op class with the same program."""

    __slots__ = ()


def test_mixed_op_classes_are_stepped():
    p, k = 8, 2
    values = list(range(p))
    stage_ = (p, k, operator.add, 0, False, False)
    got = both(p, k, lambda ctx: (_OtherSweep if ctx.pid % 2 else Sweep)(
        ctx.pid, values[ctx.pid - 1], stage_))
    res, stats, *_, runs = got[MCBNetwork, False]
    assert runs == {("sweep", "stepped"): p}
    # Stepping gives what the one-class stage gives.
    plain = MCBNetwork(p, k)
    assert plain.run_ops(sweep_ops(p, k, values, *stage_[2:])) == res
    assert plain.stats.to_dict()["totals"] == stats["totals"]


def test_an_op_that_is_not_collective_runs_the_definition():
    # P_3 sleeps instead: the others' sweep cannot run in one step.
    p, k = 4, 2
    values = [3, 1, 4, 1]
    sweep = sweep_ops(p, k, values, operator.add, 0, True, False)
    got = both(p, k, lambda ctx: Sleep(2) if ctx.pid == 3 else sweep(ctx))
    assert got[MCBNetwork, False][4] == {("sweep", "stepped"): p - 1}


def test_emit_has_no_one_step_form():
    p, k = 3, 3
    got = both(p, k, lambda ctx: Emit(ctx.pid, [Message("x", ctx.pid)]))
    res, stats, *_, runs = got[MCBNetwork, False]
    assert res == {1: None, 2: None, 3: None}
    assert stats["totals"]["messages"] == 3
    assert runs == {("emit", "stepped"): p}


@pytest.mark.parametrize("bad_pid", [1, 3])
def test_a_failing_check_raises_what_run_raises(bad_pid):
    # The op of P_bad sweeps for more channels than the network has.
    p, k = 4, 2
    good = (p, k, operator.add, 0, True, False)
    bad = (p, k + 1, operator.add, 0, True, False)
    got = both(p, k, lambda ctx: Sweep(
        ctx.pid, ctx.pid, bad if ctx.pid == bad_pid else good))
    for res, stats, _, _, runs in got.values():
        assert res == ("ProtocolError", f"P{bad_pid} sweeps for k=3 (k=2)")
        assert stats["phases"] == []
        assert runs == {}


def test_a_failing_check_of_sort_ones_raises_what_run_raises():
    p, k = 4, 2
    got = both(p, k, lambda ctx: SortOnes(ctx, [ctx.pid], p, k + 1))
    for res, *_ in got.values():
        assert res == ("ProtocolError", "P1 sorts pairs for k=3 (k=2)")

