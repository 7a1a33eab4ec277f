"""``run_stage``: a stage in which every processor yields one op of one class.

``net.run_stage(cls, values, shared)`` is *defined* as ``net.run`` of
the program ``lambda ctx: (yield cls(ctx, values[ctx.pid - 1],
shared))`` on ``P_1..P_p``.  The fast engine runs an unobserved one
from ``values`` alone, through the class's table function
``cls.stage``, and falls back to the definition whenever the table
declines.  These tests hold both spellings to each other for
``Sweep``, ``SortOnes``, ``Announce`` and ``VirtualSort`` on
``MCBNetwork`` unobserved
and observed and on ``ReferenceMCBNetwork``: results (or the error
raised), ``RunStats.to_dict()``, ``repr`` of the phase records (which
carries every processor's aux peak), event streams and
``network_plan_runs_total`` counts.  Ops yielded by hand in a ``run``
take the same table through ``StageOp.collective``; the last tests pin
that whole selections and ``sort_virtual`` take the table path.
"""

from __future__ import annotations

import math
import operator

import pytest

from repro.core.distribution import Distribution
from repro.mcb import Message, MCBNetwork, Sleep
from repro.mcb.program import Emit, ProcContext
from repro.mcb.reference import ReferenceMCBNetwork
from repro.obs import EventLog
from repro.obs.metrics import global_registry
from repro.prefix.mcb_partial_sums import PartialSums, Sweep
from repro.select import mcb_select
from repro.select.filtering import Announce
from repro.select.weighted import mcb_select_weighted
from repro.sort import mcb_sort, sort_virtual
from repro.sort.ones import SortOnes, _blocks
from repro.sort.virtual import VirtualSort, virtual_plans

#: Every (engine, observed) pair a stage can run on.
ENGINES = [
    (MCBNetwork, False),
    (MCBNetwork, True),
    (ReferenceMCBNetwork, False),
    (ReferenceMCBNetwork, True),
]

LABELS = (
    "sweep", "sort_ones", "announce", "virtual_sort", "rank_sort",
    "run_plan", "emit",
)


def plan_runs() -> dict[tuple[str, str], float]:
    counter = global_registry().counter("network_plan_runs_total")
    return {
        (op, path): counter.get(op=op, path=path)
        for op in LABELS
        for path in ("collective", "stepped")
    }


def entry(cls, values, shared):
    """The stage entry."""
    return lambda net: net.run_stage(cls, values, shared, phase="ops")


def by_hand(make_op):
    """``run`` of ``lambda ctx: (yield make_op(ctx))`` on every
    processor, results in pid order."""

    def drive(net):
        def program(ctx):
            return (yield make_op(ctx))

        return list(net.run([program] * net.p, phase="ops").values())

    return drive


def definition(cls, values, shared):
    """The one-yield programs that define the stage entry."""
    return by_hand(lambda ctx: cls(ctx, values[ctx.pid - 1], shared))


def outcome(engine, observed: bool, p: int, k: int, drive):
    """Everything two spellings must agree on."""
    net = engine(p, k)
    log = None
    if observed:
        log = EventLog()
        net.attach_observer(log)
    before = plan_runs()
    try:
        res = drive(net)
    except Exception as exc:  # compared, not swallowed
        res = (type(exc).__name__, str(exc))
    after = plan_runs()
    return (
        res,
        net.stats.to_dict(),
        repr(net.stats.phases),
        None if log is None else log.events,
        {key: n - before[key] for key, n in after.items() if n != before[key]},
        [ph.aux_peak for ph in net.stats.phases],
    )


def both(p: int, k: int, cls, values, shared) -> dict:
    """The stage entry and its definition on every engine; asserts they
    agree and returns the entry's outcome per engine."""
    got = {}
    for engine, observed in ENGINES:
        a, b = (
            outcome(engine, observed, p, k, drive(cls, values, shared))
            for drive in (entry, definition)
        )
        assert a == b, (engine.__name__, observed)
        got[engine, observed] = a
    return got


def across(p: int, k: int, make_op) -> dict:
    """Ops yielded by hand in a ``run``, on every engine; asserts that
    every engine gives the unobserved fast engine's result, stats,
    phase records and aux peaks."""
    got = {
        (engine, observed): outcome(engine, observed, p, k, by_hand(make_op))
        for engine, observed in ENGINES
    }
    fast = got[MCBNetwork, False]
    for key in ENGINES[1:]:
        assert got[key][:3] + got[key][5:] == fast[:3] + fast[5:], key
    return got


def assert_table_path(got: dict, label: str, p: int) -> None:
    """Unobserved, the fast engine took the table: no stepped run is
    counted, and only its unobserved stage counts at all."""
    assert got[MCBNetwork, False][4] == {(label, "collective"): p}
    for key in ENGINES[1:]:
        assert got[key][4] == {}
        assert got[key][:3] == got[MCBNetwork, False][:3]


# ---------------------------------------------------------------------------
# Sweep
# ---------------------------------------------------------------------------

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
    got = both(p, k, Sweep, values, (p, k) + shape)
    assert_table_path(got, "sweep", p)
    if p == 24:  # sparse tree levels: some cycles are fast-forwarded
        assert got[MCBNetwork, False][1]["phases"][0]["fast_forward_cycles"]


def test_a_declined_step_runs_the_definition():
    # ``add`` on a string raises TypeError: the table declines and
    # stepping raises it at its cycle, on both spellings.
    p, k = 6, 2
    values = [1, 2, "three", 4, 5, 6]
    got = both(p, k, Sweep, values, (p, k, operator.add, 0, False, False))
    res, _, _, _, runs, _ = got[MCBNetwork, False]
    assert res[0] == "TypeError"
    assert runs == {("sweep", "stepped"): p}


def test_ops_not_given_as_p1_to_pp_are_stepped():
    # P_i yields P_{p+1-i}'s op: not P_1..P_p in order, so it is stepped.
    p, k = 6, 2
    values = list(range(10, 10 + p))
    shared = (p, k, operator.add, 0, True, False)
    got = across(p, k, lambda ctx: Sweep(
        ProcContext(p + 1 - ctx.pid, p, k), values[ctx.pid - 1], shared))
    assert got[MCBNetwork, False][4] == {("sweep", "stepped"): p}
    # C_2 is written first, yet every engine lists the phase's channel
    # writes in ascending channel order.
    for engine in (MCBNetwork, ReferenceMCBNetwork):
        net = engine(p, k)
        by_hand(lambda ctx: Sweep(
            ProcContext(p + 1 - ctx.pid, p, k), values[ctx.pid - 1], shared
        ))(net)
        assert list(net.stats.phases[0].channel_writes.items()) == [
            (1, 5), (2, 1)
        ], engine.__name__


class _OtherSweep(Sweep):
    """A second stage-op class with the same program."""

    __slots__ = ()


def test_mixed_op_classes_are_stepped():
    p, k = 8, 2
    values = list(range(p))
    shared = (p, k, operator.add, 0, False, False)
    got = across(p, k, lambda ctx: (_OtherSweep if ctx.pid % 2 else Sweep)(
        ctx, values[ctx.pid - 1], shared))
    res, stats, _, _, runs, _ = got[MCBNetwork, False]
    assert runs == {("sweep", "stepped"): p}
    # Stepping gives what the one-class stage gives.
    plain = MCBNetwork(p, k)
    assert plain.run_stage(Sweep, values, shared) == res
    assert plain.stats.to_dict()["totals"] == stats["totals"]


def test_an_op_that_is_not_collective_runs_the_definition():
    # P_3 sleeps instead: the others' sweep cannot run in one step.
    p, k = 4, 2
    values = [3, 1, 4, 1]
    shared = (p, k, operator.add, 0, True, False)
    got = across(p, k, lambda ctx: Sleep(2) if ctx.pid == 3 else Sweep(
        ctx, values[ctx.pid - 1], shared))
    assert got[MCBNetwork, False][4] == {("sweep", "stepped"): p - 1}


def test_emit_has_no_one_step_form():
    p, k = 3, 3
    got = across(p, k, lambda ctx: Emit(ctx.pid, [Message("x", ctx.pid)]))
    res, stats, _, _, runs, _ = got[MCBNetwork, False]
    assert res == [None, None, None]
    assert stats["totals"]["messages"] == 3
    assert runs == {("emit", "stepped"): p}


@pytest.mark.parametrize("bad_pid", [1, 3])
def test_a_failing_check_raises_what_run_raises(bad_pid):
    p, k = 4, 2
    good = (p, k, operator.add, 0, True, False)
    bad = (p, k + 1, operator.add, 0, True, False)
    # A stage's ops share their schedule: P_1's check fails first.
    got = both(p, k, Sweep, list(range(p)), bad)
    for res, stats, _, _, runs, _ in got.values():
        assert res == ("ProtocolError", "P1 sweeps for k=3 (k=2)")
        assert stats["phases"] == []
        assert runs == {}
    # By hand, only P_bad's op sweeps for more channels than there are.
    got = across(p, k, lambda ctx: Sweep(
        ctx, ctx.pid, bad if ctx.pid == bad_pid else good))
    for res, stats, _, _, runs, _ in got.values():
        assert res == ("ProtocolError", f"P{bad_pid} sweeps for k=3 (k=2)")
        assert stats["phases"] == []
        assert runs == {}


def test_a_stage_takes_one_value_per_processor():
    for engine, observed in ENGINES:
        res, stats, *_ = outcome(engine, observed, 4, 2, entry(
            Sweep, [1, 2, 3], (4, 2, operator.add, 0, True, False)))
        assert res == ("ValueError", "a stage takes one value per "
                                     "processor: 3 for p=4")
        assert stats["phases"] == []


# ---------------------------------------------------------------------------
# SortOnes
# ---------------------------------------------------------------------------

def test_sort_ones_representatives_keep_their_aux_peak():
    p, k = 8, 2
    values = [[(pid * 5) % 11] for pid in range(1, p + 1)]
    got = both(p, k, SortOnes, values, (p, k))
    assert_table_path(got, "sort_ones", p)
    res = got[MCBNetwork, False][0]
    assert [v for (v,) in res] == sorted((v for (v,) in values), reverse=True)
    reps, _, m_pad, *_ = _blocks(p, k)
    assert got[MCBNetwork, False][5] == [{
        pid: m_pad if pid in reps else 0 for pid in range(1, p + 1)
    }]


def test_sort_ones_by_hand_charges_aux_on_top_of_what_is_held():
    # Each processor holds pid aux slots when it yields its op: a
    # representative's peak is that plus its column, on every engine.
    p, k = 8, 2
    shared = (p, k)

    def make_op(ctx):
        ctx.aux_acquire(ctx.pid)
        return SortOnes(ctx, [(ctx.pid * 5) % 11], shared)

    got = across(p, k, make_op)
    assert got[MCBNetwork, False][4] == {("sort_ones", "collective"): p}
    reps, _, m_pad, *_ = _blocks(p, k)
    assert got[MCBNetwork, False][5] == [{
        pid: pid + (m_pad if pid in reps else 0) for pid in range(1, p + 1)
    }]


def test_a_failing_check_of_sort_ones_raises_what_run_raises():
    p, k = 4, 2
    got = both(p, k, SortOnes, [[pid] for pid in range(p)], (p, k + 1))
    for res, *_ in got.values():
        assert res == ("ProtocolError", "P1 sorts pairs for k=3 (k=2)")


# ---------------------------------------------------------------------------
# Announce
# ---------------------------------------------------------------------------

def announce_values(weights: list, pairs: list) -> list:
    """``(PartialSums, pair)`` per processor over ``weights``."""
    values, acc = [], 0
    for w, pair in zip(weights, pairs):
        values.append((PartialSums(acc, acc + w), pair))
        acc += w
    return values


@pytest.mark.parametrize("p,k", [(1, 1), (2, 1), (5, 2), (16, 4)])
@pytest.mark.parametrize("kind", ["int", "float", "triple"])
def test_announce_matches_its_definition(p, k, kind):
    heads = [(pid * 29) % 31 - 7 for pid in range(1, p + 1)]
    if kind == "float":
        heads = [h / 8 for h in heads]
    pairs = [
        ((h, pid, 2) if kind == "triple" else (h,)) + (0, pid % 3 + 1)
        for pid, h in enumerate(heads, 1)
    ]
    values = announce_values([pair[-1] for pair in pairs], pairs)
    half = (values[-1][0].incl + 1) // 2
    got = both(p, k, Announce, values, half)
    assert_table_path(got, "announce", p)
    writer = next(
        pair for sums, pair in values if sums.prev < half <= sums.incl
    )
    med = writer[:-2] if kind == "triple" else writer[0]
    res, stats, *_ = got[MCBNetwork, False]
    assert res == [med] * p
    [phase] = stats["phases"]
    assert (phase["cycles"], phase["messages"], phase["channel_writes"]) == (
        1, 1, {1: 1}
    )
    assert phase["bits"] == Message("med", *writer[:-2]).bit_size()


def test_an_announce_with_two_writers_collides():
    # Two processors' prefixes both reach ``half``: the table declines,
    # and stepping aborts on C_1 with both writers.
    p, k = 4, 2
    pairs = [(9 - pid, 0, 1) for pid in range(1, p + 1)]
    values = [(PartialSums(0, 2), pair) for pair in pairs[:2]]
    values += [(PartialSums(2, 3), pairs[2]), (PartialSums(3, 4), pairs[3])]
    got = both(p, k, Announce, values, 1)
    for res, stats, *_ in got.values():
        assert res == ("CollisionError", "write collision on channel C1 "
                                         "at cycle 0: processors ['P1', 'P2']")
        assert stats["phases"][0]["collisions"] == 1
    assert got[MCBNetwork, False][4] == {("announce", "stepped"): p}


@pytest.mark.parametrize("case", ["no writer", "oversized"])
def test_a_declined_announce_is_stepped(case):
    p, k = 4, 2
    pairs = [(9 - pid, 0, 1) for pid in range(1, p + 1)]
    half = 2
    if case == "oversized":  # a nine-field med* fails the write guard
        pairs[1] = tuple(range(9)) + (0, 1)
    else:
        half = 5
    got = both(p, k, Announce, announce_values([1] * p, pairs), half)
    res, _, _, _, runs, _ = got[MCBNetwork, False]
    assert res[0] == (
        "MessageSizeError" if case == "oversized" else "AssertionError"
    )
    # An oversized write raises in the first stepped cycle, before the
    # stepped ops are counted.
    stepped = {} if case == "oversized" else {("announce", "stepped"): p}
    assert runs == stepped


# ---------------------------------------------------------------------------
# VirtualSort
# ---------------------------------------------------------------------------

def virtual_stage(p: int, k: int, n: int, kind: str = "int",
                  sorter: str = "rank") -> tuple:
    """``sort_virtual``'s stage values and ``shared`` for ``n`` elements
    on MCB(p, k): distinct ints, floats, or ``(value, pid, index)``
    triples over seven values."""
    parts = Distribution.even(n, p, seed=p + k).parts
    values = [list(parts[pid]) for pid in range(1, p + 1)]
    if kind == "float":
        values = [[v / 4 for v in row] for row in values]
    elif kind == "triple":
        values = [[(v % 7, pid, i) for i, v in enumerate(row)]
                  for pid, row in enumerate(values, 1)]
    g, npp = p // k, n // p
    return values, (p, k, g, npp, sorter, virtual_plans(g * npp, k, g))


@pytest.mark.parametrize(
    "p,k,n", [(8, 2, 64), (8, 4, 128), (6, 3, 36), (4, 1, 16), (4, 4, 48)]
)
def test_virtual_sort_matches_its_definition(p, k, n):
    # k=1 is one column whose transfers move nothing; g=1 (p = k) are
    # one-member groups whose sorts move nothing: both take the table.
    values, shared = virtual_stage(p, k, n)
    got = both(p, k, VirtualSort, values, shared)
    assert_table_path(got, "virtual_sort", p)
    res, stats, *_ = got[MCBNetwork, False]
    merged = [v for row in res for v in row]
    assert merged == sorted((v for row in values for v in row), reverse=True)
    m = n // k
    [phase] = stats["phases"]
    assert phase["cycles"] == 14 * m
    assert got[MCBNetwork, False][5] == [
        {pid: 2 * (n // p) + 1 for pid in range(1, p + 1)}
    ]


@pytest.mark.parametrize(
    "case", ["float", "triple", "merge", "float k=1", "triple g=1"]
)
def test_a_declined_virtual_sort_is_stepped(case):
    p, k, n = {"float k=1": (4, 1, 16), "triple g=1": (4, 4, 48)}.get(
        case, (8, 2, 64)
    )
    kind = case.split()[0] if case != "merge" else "int"
    sorter = "merge" if case == "merge" else "rank"
    values, shared = virtual_stage(p, k, n, kind, sorter)
    got = both(p, k, VirtualSort, values, shared)
    res, _, _, _, runs, _ = got[MCBNetwork, False]
    merged = [v for row in res for v in row]
    assert merged == sorted((v for row in values for v in row), reverse=True)
    assert runs[("virtual_sort", "stepped")] == p
    assert ("virtual_sort", "collective") not in runs
    # The definition's own transfers still run in one step each.
    assert runs[("run_plan", "collective")] == 4 * p
    if kind == "triple":  # and so do its Rank-Sorts on plain tuples
        assert runs[("rank_sort", "collective")] == 5 * p


def test_a_failing_check_of_virtual_sort_raises_what_run_raises():
    values, (p, k, *rest) = virtual_stage(8, 2, 64)
    got = both(p, 1, VirtualSort, values, (p, k, *rest))
    for res, *_ in got.values():
        assert res == ("ProtocolError",
                       "P1 sorts virtual columns for k=2 (k=1)")


def test_an_unobserved_int_sort_virtual_takes_the_table():
    # One VirtualSort per processor, and none of the inner Rank-Sort or
    # RunPlan steps; an observed run steps it and counts nothing.
    p, k = 16, 4
    parts = Distribution.even(1024, p, seed=0).parts
    outputs = []
    for observed in (False, True):
        net = MCBNetwork(p, k)
        if observed:
            net.attach_observer(EventLog())
        before = plan_runs()
        outputs.append(sort_virtual(net, parts).output)
        after = plan_runs()
        runs = {key: n - before[key] for key, n in after.items()
                if n != before[key]}
        assert runs == ({} if observed else {("virtual_sort", "collective"): p})
    assert outputs[0] == outputs[1]
    # Repeated values are lifted to triples, which the table declines.
    before = plan_runs()
    mcb_sort(MCBNetwork(p, k), {pid: [v % 5 for v in vs]
                                for pid, vs in parts.items()},
             strategy="virtual")
    assert plan_runs()[("virtual_sort", "stepped")] - before[
        ("virtual_sort", "stepped")] == p


def test_plan_runs_keep_counting_after_a_registry_reset():
    p, k = 8, 2
    values, shared = virtual_stage(p, k, 64)
    counter = global_registry().counter("network_plan_runs_total")
    before = counter.get(op="virtual_sort", path="collective")
    MCBNetwork(p, k).run_stage(VirtualSort, values, shared)
    assert counter.get(op="virtual_sort", path="collective") == before + p
    global_registry().reset()
    for _ in range(2):
        MCBNetwork(p, k).run_stage(VirtualSort, values, shared)
    counter = global_registry().counter("network_plan_runs_total")
    assert counter.get(op="virtual_sort", path="collective") == 2 * p


# ---------------------------------------------------------------------------
# Selections take the table path
# ---------------------------------------------------------------------------

CONTROL = ("sweep", "sort_ones", "announce")


def control_runs(drive, observed: bool) -> dict:
    """``drive``'s counts of the control stages' runs on an
    ``MCBNetwork``, by (op, path)."""
    net = MCBNetwork(16, 4)
    if observed:
        net.attach_observer(EventLog())
    before = plan_runs()
    answer = drive(net)
    after = plan_runs()
    return answer, {
        key: n - before[key] for key, n in after.items()
        if key[0] in CONTROL and n != before[key]
    }


def test_selection_control_stages_take_the_table_path():
    parts = Distribution.uneven(2048, 16, seed=2, skew=2.0).parts
    weighted = {pid: [(v, 1 + v % 5) for v in vs[:20]]
                for pid, vs in parts.items()}

    def select(net):
        return mcb_select(net, parts, 1024)

    def select_weighted(net):
        return mcb_select_weighted(net, weighted, 600)

    result, runs = control_runs(select, False)
    rounds = sum(1 for ph in result.trace.phases if ph["case"])
    assert rounds >= 2
    assert not any(path == "stepped" for _, path in runs)
    assert runs[("announce", "collective")] == 16 * rounds
    assert runs[("sort_ones", "collective")] == 16 * rounds
    wresult, wruns = control_runs(select_weighted, False)
    assert wresult.phases >= 2
    assert not any(path == "stepped" for _, path in wruns)
    assert wruns[("announce", "collective")] == 16 * wresult.phases
    # Observed, every stage steps on the reference interpreter's loop,
    # which counts nothing.
    for drive, answer in ((select, result.value),
                          (select_weighted, wresult.value)):
        got, runs = control_runs(drive, True)
        assert got.value == answer
        assert runs == {}
