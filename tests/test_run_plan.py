"""``RunPlan`` is exactly its plan program, on every engine.

``row = yield RunPlan(plan, proc, row)`` is *defined* as ``row = yield
from plan.as_program(proc, row)(ctx)``.  The fast engine's unobserved
path runs a plan that all its processors enter together, undisturbed,
as one collective step; observed runs, the reference interpreter, both
§2 simulators and every fallback step the desugared ops.  These tests
demand the same results, ``RunStats``, per-processor aux peaks and
observed event streams as the desugared spelling — for the columnsort
phase plans of all four variants and the Batcher rounds, for every
condition that makes the fast engine fall back, and for collision,
message-size and ``max_cycles`` errors — and the same
``ProtocolError`` for every malformed ``RunPlan``.  The
``network_plan_runs_total{op="run_plan", path}`` counter shows which
path ran.  A collective op whose program yields another one (a
``RunPlan`` or a test-local op) resumes its caller with the inner
result on every engine and inside both simulators.
"""

from __future__ import annotations

from collections import namedtuple
from functools import partial

import pytest

from repro import Distribution
from repro.mcb import (
    CollisionError,
    CycleOp,
    Listen,
    MCBNetwork,
    Message,
    ProtocolError,
    RunPlan,
    Sleep,
)
from repro.mcb.cnet import build_network, cnet_to_schedule
from repro.mcb.program import CollectiveOp
from repro.mcb.reference import ReferenceMCBNetwork, run_simulated_reference
from repro.mcb.simulate import run_simulated
from repro.mcb.vector import SchedulePlan
from repro.mcb.vector.lower import lower_columnsort_phases
from repro.obs import EventLog
from repro.obs.metrics import global_registry
from repro.sort import sort_virtual
from repro.sort.recursive import sort_recursive

#: Every (engine, observed) pair a phase can run on.
ENGINES = [
    (MCBNetwork, False),
    (MCBNetwork, True),
    (ReferenceMCBNetwork, False),
    (ReferenceMCBNetwork, True),
]
SIMULATORS = [
    (run_simulated, MCBNetwork),
    (run_simulated_reference, ReferenceMCBNetwork),
]

#: (paper_phase2, wrap_skip): the four columnsort schedule variants.
VARIANTS = [(False, False), (True, False), (False, True), (True, True)]

Triple = namedtuple("Triple", "value pid idx")


def plan_runs(op: str = "run_plan") -> dict[str, float]:
    counter = global_registry().counter("network_plan_runs_total")
    return {
        path: counter.get(op=op, path=path)
        for path in ("collective", "stepped")
    }


def runs_since(
    before: dict[str, float], op: str = "run_plan"
) -> dict[str, float]:
    return {path: n - before[path] for path, n in plan_runs(op).items()}


def run_plan(form: str, plan: SchedulePlan, proc: int, row, ctx):
    """Sub-generator: one plan phase as a ``RunPlan`` (``"op"``) or as
    the plan program it stands for (``"desugared"``)."""
    if form == "op":
        return (yield RunPlan(plan, proc, row))
    return (yield from plan.as_program(proc, row)(ctx))


def chain_programs(plans, rows, form: str):
    """Processor ``i + 1`` runs every plan in turn from ``rows[i]``,
    feeding each phase's row to the next, and returns its final row."""

    def prog(ctx):
        row = list(rows[ctx.pid - 1])
        ctx.aux_acquire(len(row))
        for plan in plans:
            row = yield from run_plan(form, plan, ctx.pid - 1, row, ctx)
            row.reverse()  # free local work between phases
        return row

    return {pid: prog for pid in range(1, len(rows) + 1)}


def outcome(net, log, run):
    """Everything two spellings must agree on, or the error they raise,
    plus the observed event stream."""
    try:
        res = run()
    except Exception as exc:  # compared, not swallowed
        res = (type(exc).__name__, str(exc))
    else:
        res = {
            pid: None if row is None else [(type(e), e) for e in row]
            if isinstance(row, list) else row
            for pid, row in res.items()
        }
    return (
        res,
        net.stats.to_dict(),
        [dict(ph.aux_peak) for ph in net.stats.phases],
        None if log is None else log.events,
    )


def run_engine(engine, observed, p, k, programs, *, prelude=None, **kw):
    net = engine(p=p, k=k, **kw.pop("net", {}))
    log = None
    if observed:
        log = EventLog()
        net.attach_observer(log)
    if prelude is not None:
        net.run(prelude, phase="prelude")
    return outcome(net, log, lambda: net.run(programs, phase="plan", **kw))


def run_everywhere(p, k, programs, **kw):
    """Run both spellings on every engine, observed and not; check that
    all agree (event streams among the observed runs) and return the
    fast engine's unobserved ``RunPlan`` outcome with its path counts."""
    before = plan_runs()
    first = run_engine(MCBNetwork, False, p, k, programs("op"), **dict(kw))
    paths = runs_since(before)
    runs = [
        (observed, run_engine(cls, observed, p, k, programs(form), **dict(kw)))
        for cls, observed in ENGINES
        for form in ("op", "desugared")
    ]
    assert all(o[:3] == first[:3] for _, o in runs)
    streams = [o[3] for observed, o in runs if observed]
    assert streams[0] and all(s == streams[0] for s in streams)
    return first, paths


def columns(m: int, k: int, kind: str) -> list[list]:
    values = [(v * 7919) % 1009 - 300 for v in range(m * k)]
    rows = [values[c * m:(c + 1) * m] for c in range(k)]
    if kind == "triple":
        return [
            [(v, c + 1, i) for i, v in enumerate(row)]
            for c, row in enumerate(rows)
        ]
    if kind == "mixed":
        return [[float(v) if v % 3 else v for v in row] for row in rows]
    return rows


def batcher_plans(m: int, k: int):
    return cnet_to_schedule(build_network("batcher", k), k, k, m)


class TestRunPlanIsItsPlanProgram:
    @pytest.mark.parametrize("paper_phase2, wrap_skip", VARIANTS)
    @pytest.mark.parametrize("m, k", [(4, 2), (12, 4), (16, 4)])
    @pytest.mark.parametrize("kind", ["int", "triple", "mixed"])
    def test_columnsort_phases(self, paper_phase2, wrap_skip, m, k, kind):
        if paper_phase2 and m % k:
            pytest.skip("the paper's transpose needs k | m")
        plans = lower_columnsort_phases(m, k, paper_phase2, wrap_skip)
        slots = plans[-1].slots
        rows = [
            row + [None] * (slots - m) for row in columns(m, k, kind)
        ]
        (res, stats, *_), paths = run_everywhere(
            k, k, lambda form: chain_programs(plans, rows, form)
        )
        assert paths == {"collective": 4 * k, "stepped": 0}
        assert stats["totals"]["cycles"] == 4 * m

    @pytest.mark.parametrize("m, k", [(1, 2), (5, 4), (8, 8)])
    @pytest.mark.parametrize("kind", ["int", "triple"])
    def test_batcher_rounds(self, m, k, kind):
        plans = batcher_plans(m, k)
        rows = [row + row for row in columns(m, k, kind)]
        (res, stats, *_), paths = run_everywhere(
            k, k, lambda form: chain_programs(plans, rows, form)
        )
        assert paths == {"collective": len(plans) * k, "stepped": 0}
        assert stats["totals"]["cycles"] == len(plans) * m

    def test_bystanders_asleep_for_the_window(self):
        # Processors outside the plan that sleep past its end (from a
        # Sleep yielded in the plan's first cycle) or have finished do
        # not stop the collective step.
        plans = lower_columnsort_phases(8, 2)
        rows = columns(8, 2, "int")

        def sleeper(ctx):
            yield Sleep(4 * 8)
            return "slept"

        def idle(ctx):
            return "idle"
            yield  # a program that ends before its first cycle

        def programs(form):
            return {**chain_programs(plans, rows, form), 3: sleeper, 4: idle}

        (res, *_), paths = run_everywhere(4, 2, programs)
        assert res[3] == "slept" and res[4] == "idle"
        assert paths == {"collective": 8, "stepped": 0}


class TestVirtualColumnsortRunsCollectively:
    """§6.1's and §6.2's transfer phases are plans over all ``p``
    members; they enter each phase together, so none may fall back to
    stepping."""

    def test_sort_virtual(self):
        # Triples decline VirtualSort's table, so its definition runs
        # and yields the four transfer plans.
        parts = {
            pid: [(v, pid, i) for i, v in enumerate(vals)]
            for pid, vals in Distribution.even(1024, 16, seed=0).parts.items()
        }
        before = plan_runs()
        sort_virtual(MCBNetwork(16, 4), parts, sorter="rank")
        assert runs_since(before) == {"collective": 4 * 16, "stepped": 0}

    def test_sort_recursive_base_case_blocks(self):
        # n=256 on k=8 recurses once on 4 columns: 4 segment transfer
        # phases, and each of the 5 sorting phases runs the §6.1 base
        # case on 4 blocks of 16 processors as one block-diagonal plan
        # per transfer phase.
        parts = Distribution.even(256, 64, seed=0).parts
        before = plan_runs()
        sort_recursive(MCBNetwork(64, 8), parts)
        assert runs_since(before) == {
            "collective": (4 + 5 * 4) * 64, "stepped": 0,
        }

    def test_sort_recursive_three_levels(self):
        # n=512 on k=64: 8 columns of 8 segments, then each column
        # (n=64, k=8) 4 columns of 2 segments, then the base case on
        # 32 blocks (n=16, k=2): 4 + 5*4 + 25*4 transfer phases.
        parts = Distribution.even(512, 64, seed=0).parts
        before = plan_runs()
        sort_recursive(MCBNetwork(64, 64), parts)
        assert runs_since(before) == {
            "collective": (4 + 5 * 4 + 25 * 4) * 64, "stepped": 0,
        }


def single_plan(m: int = 8, k: int = 4) -> SchedulePlan:
    return lower_columnsort_phases(m, k)[0]


class TestFallbacksStepTheDesugaredOps:
    def test_group_missing_one_processor(self):
        plan = single_plan()
        rows = columns(8, 4, "int")

        def programs(form):
            # The last processor always spells the plan out.
            desugared = chain_programs([plan], rows, "desugared")
            return {**chain_programs([plan], rows, form), 4: desugared[4]}

        _, paths = run_everywhere(4, 4, programs)
        assert paths == {"collective": 0, "stepped": 3}

    @pytest.mark.parametrize("start", [0, 1, 3])
    def test_other_slot_awake_in_window(self, start):
        # Another processor writes an unrelated channel in the plan's
        # first cycle, or wakes to write mid-window.
        plan = single_plan()
        rows = columns(8, 4, "int")

        def other(ctx):
            if start:
                yield Sleep(start)
            yield CycleOp(write=5, payload=Message("other", 1))
            return "wrote"

        def programs(form):
            return {**chain_programs([plan], rows, form), 5: other}

        (res, *_), paths = run_everywhere(5, 5, programs)
        assert res[5] == "wrote"
        assert paths == {"collective": 0, "stepped": 4}

    def test_bounded_listener_hears_the_plan(self):
        plan = single_plan()
        rows = columns(8, 4, "int")

        def listener(ctx):
            heard = yield Listen(1, plan.cycles)
            return [(off, msg.fields) for off, msg in heard]

        def programs(form):
            return {**chain_programs([plan], rows, form), 5: listener}

        (res, *_), paths = run_everywhere(5, 4, programs)
        sent = sorted(
            (cy, rows[proc][src]) for cy, proc, ch, src in plan.writes
            if ch == 1
        )
        assert sent and [e for _, e in res[5]] == [(cy, (v,)) for cy, v in sent]
        assert paths == {"collective": 0, "stepped": 4}

    @pytest.mark.parametrize("last", [False, True])
    def test_message_size_error(self, last):
        # Ints pass a one-field limit; a triple written in the plan's
        # first or last write cycle raises MessageSizeError there.
        plan = single_plan()
        rows = columns(8, 4, "int")
        cy, proc, _, src = sorted(plan.writes.tolist())[-1 if last else 0]
        assert (cy > 0) == last
        rows[proc][src] = (rows[proc][src], proc, src)
        programs = partial(chain_programs, [plan], rows)

        (res, *_), paths = run_everywhere(
            4, 4, programs, net={"max_message_fields": 1}
        )
        assert res[0] == "MessageSizeError"
        # A first-cycle write raises before the plan's path is chosen.
        assert paths == {"collective": 0, "stepped": 4 if last else 0}

    def test_non_scalar_field(self):
        # A list element fails bit sizing when it is delivered.  Each
        # engine is held to its own desugared run; only the fast engine's
        # unobserved runs count on network_plan_runs_total.
        plan = single_plan()
        rows = columns(8, 4, "int")
        _, proc, _, src = sorted(plan.writes.tolist())[-1]
        rows[proc][src] = [1, 2]
        programs = partial(chain_programs, [plan], rows)

        before = plan_runs()
        for cls, observed in ENGINES:
            runs = [run_engine(cls, observed, 4, 4, programs(form))
                    for form in ("op", "desugared")]
            assert runs[0] == runs[1]
            assert runs[0][0][0] == "TypeError"
        assert runs_since(before) == {"collective": 0, "stepped": 4}

    def test_colliding_plan(self):
        # Two writers share channel 1 in cycle 2: the same CollisionError
        # and partial phase stats (cycles 0 and 1 charged) everywhere.
        plan = SchedulePlan(
            p=3, k=2, cycles=4, slots=2,
            writes=[(0, 0, 1, 0), (1, 1, 2, 0), (2, 0, 1, 1), (2, 2, 1, 0),
                    (3, 1, 2, 1)],
            reads=[(0, 1, 1, 1), (1, 2, 2, 1), (2, 1, 1, 0), (3, 0, 2, 0)],
        )
        rows = [[10, 11], [20, 21], [30, 31]]
        programs = partial(chain_programs, [plan], rows)

        prelude = {1: lambda ctx: (yield CycleOp(write=1, payload=Message("x")))}
        (res, stats, *_), paths = run_everywhere(
            3, 2, programs, prelude=prelude
        )
        assert res == ("CollisionError", str(CollisionError(2, 1, [1, 3])))
        phase = stats["phases"][1]
        assert (phase["cycles"], phase["messages"], phase["collisions"]) == (
            2, 2, 1
        )
        assert paths == {"collective": 0, "stepped": 3}

    @pytest.mark.parametrize("slack", [-1, 0, 1])
    def test_plan_ending_near_max_cycles(self, slack):
        plan = single_plan()
        rows = columns(8, 4, "int")

        def programs(form):
            def prog(ctx):
                row = yield Sleep(2)
                row = yield from run_plan(form, plan, ctx.pid - 1,
                                          rows[ctx.pid - 1], ctx)
                return row

            return {pid: prog for pid in range(1, 5)}

        (res, *_), paths = run_everywhere(
            4, 4, programs, max_cycles=2 + plan.cycles + slack
        )
        if slack < 1:
            assert res[0] == "ProtocolError"
        if slack < 0:
            assert paths == {"collective": 0, "stepped": 4}
        else:
            assert paths == {"collective": 4, "stepped": 0}

    def test_tuple_subclass_arrives_as_plain_tuple(self):
        plan = single_plan()
        rows = [
            [Triple(v, c, i) for i, v in enumerate(row)]
            for c, row in enumerate(columns(8, 4, "int"))
        ]
        programs = partial(chain_programs, [plan], rows)

        (res, *_), paths = run_everywhere(4, 4, programs)
        types = {t for row in res.values() for t, _ in row}
        assert types == {Triple, tuple}  # moved ones stay, sent ones do not
        assert paths == {"collective": 4, "stepped": 0}


class TestRunPlanInsideSimulation:
    def test_virtual_plan_is_spelled_out(self):
        # A virtual RunPlan runs as its plan program on the virtual
        # channels, never as a collective step on the physical ones.
        plans = lower_columnsort_phases(12, 4)
        rows = columns(12, 4, "triple")
        outcomes = []
        for simulate, cls in SIMULATORS:
            for form in ("op", "desugared"):
                net = cls(p=2, k=2)
                programs = chain_programs(plans, rows, form)
                outcomes.append(outcome(
                    net, None, lambda: simulate(net, 4, 4, programs)
                ))
        assert isinstance(outcomes[0][0], dict)
        assert all(o == outcomes[0] for o in outcomes)


class Inner(CollectiveOp):
    """A test-local collective op: one idle cycle, then ``value + 1``."""

    __slots__ = ("value",)

    label = "test_inner"

    def __init__(self, value: int):
        self.value = value

    def check(self, pid: int, k: int) -> None:
        pass

    def program(self):
        yield CycleOp()
        return self.value + 1


class Outer(CollectiveOp):
    """A test-local collective op whose program yields ``inner``,
    another collective op, idles one cycle and returns what ``inner``
    returned."""

    __slots__ = ("inner",)

    label = "test_outer"

    def __init__(self, inner: CollectiveOp):
        self.inner = inner

    def check(self, pid: int, k: int) -> None:
        pass

    def program(self):
        got = yield self.inner
        yield CycleOp()
        return got


def spelled(op, ctx):
    """Sub-generator: ``op``'s ops written out by hand."""
    if isinstance(op, RunPlan):
        return (yield from op.plan.as_program(op.proc, op.row)(ctx))
    if isinstance(op, Outer):
        got = yield from spelled(op.inner, ctx)
        yield CycleOp()
        return got
    yield CycleOp()
    return op.value + 1


def nested_programs(p: int, make_inner, form: str):
    """Processors ``1..p`` yield ``Outer(make_inner(ctx))`` (``"op"``)
    or its hand spelling (``"desugared"``), then sleep one cycle and
    return what it returned."""

    def prog(ctx):
        op = Outer(make_inner(ctx))
        if form == "op":
            got = yield op
        else:
            got = yield from spelled(op, ctx)
        yield Sleep(1)
        return ("resumed", got)

    return {pid: prog for pid in range(1, p + 1)}


class TestNestedCollectiveOps:
    def test_inner_op_resumes_its_caller(self):
        def programs(form):
            return nested_programs(2, lambda ctx: Inner(10 * ctx.pid), form)

        before = {op: plan_runs(op) for op in ("test_outer", "test_inner")}
        (res, stats, *_), _ = run_everywhere(2, 1, programs)
        assert res == {1: ("resumed", 11), 2: ("resumed", 21)}
        assert stats["totals"]["cycles"] == 3
        # run_everywhere runs the op form unobserved on the fast engine
        # twice, two processors each time.
        assert {op: runs_since(n, op) for op, n in before.items()} == {
            op: {"collective": 0, "stepped": 2 * 2} for op in before
        }

    def test_inner_plan_runs_collectively_and_resumes(self):
        plan = single_plan()
        rows = columns(8, 4, "int")

        def programs(form):
            return nested_programs(
                4, lambda ctx: RunPlan(plan, ctx.pid - 1, rows[ctx.pid - 1]),
                form,
            )

        (res, stats, *_), paths = run_everywhere(4, 4, programs)
        plain = run_engine(
            ReferenceMCBNetwork, False, 4, 4,
            chain_programs([plan], rows, "desugared"),
        )[0]
        # chain_programs reverses each row after the plan.
        assert res == {
            pid: ("resumed", [e for _, e in reversed(row)])
            for pid, row in plain.items()
        }
        assert stats["totals"]["cycles"] == plan.cycles + 2
        assert paths == {"collective": 4, "stepped": 0}

    @pytest.mark.parametrize("inner", ["test", "plan"])
    def test_inside_simulation(self, inner):
        plan = single_plan()
        rows = columns(8, 4, "triple")

        def make_inner(ctx):
            if inner == "test":
                return Inner(10 * ctx.pid)
            return RunPlan(plan, ctx.pid - 1, rows[ctx.pid - 1])

        outcomes = []
        for simulate, cls in SIMULATORS:
            for form in ("op", "desugared"):
                net = cls(p=2, k=2)
                programs = nested_programs(4, make_inner, form)
                outcomes.append(outcome(
                    net, None, lambda: simulate(net, 4, 4, programs)
                ))
        res = outcomes[0][0]
        assert all(got[0] == "resumed" for got in res.values())
        if inner == "test":
            assert res == {q: ("resumed", 10 * q + 1) for q in range(1, 5)}
        assert all(o == outcomes[0] for o in outcomes)


class TestMalformedRunPlan:
    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda plan: RunPlan(plan, -1, [0] * 8),
             r"plan processor -1 outside 0\.\.3"),
            (lambda plan: RunPlan(plan, 4, [0] * 8),
             r"plan processor 4 outside 0\.\.3"),
            (lambda plan: RunPlan(single_plan(8, 8), 0, [0] * 8),
             r"plan on 8 channels \(k=4\)"),
            (lambda plan: RunPlan(
                SchedulePlan(p=1, k=1, cycles=0, slots=1, writes=[], reads=[]),
                0, [0]),
             "zero-cycle plan"),
        ],
    )
    def test_same_error_everywhere(self, make, message):
        op = make(single_plan())

        def bad(ctx):
            yield op

        errors = []
        for cls, observed in ENGINES:
            net = cls(p=4, k=4)
            if observed:
                net.attach_observer(EventLog())
            with pytest.raises(ProtocolError, match=message) as err:
                net.run({1: bad})
            errors.append(str(err.value))
        for simulate, cls in SIMULATORS:
            with pytest.raises(ProtocolError, match=message) as err:
                simulate(cls(p=2, k=2), 4, 4, {1: bad})
            errors.append(str(err.value))
        assert len(set(errors)) == 1
