"""Vector executor vs the reference engine: exact parity, by property.

The vector engine's contract is stronger than "sorts correctly": for
*any* collision-free oblivious schedule it must produce bit-identical
final states and identical ``RunStats.to_dict()`` accounting to the
reference engine running the same plan rendered as generator programs
(:meth:`SchedulePlan.as_programs`, the parity oracle).  Hypothesis
drives random plans — random writer/channel assignments per cycle,
random matched reads, random local moves — through both engines, and
through the fast engine's collective gather: the plan yielded as
``RunPlan`` ops on an unobserved ``MCBNetwork``, with rows wider than
the plan.

Collision-freedom is a *static* property of an oblivious schedule, so
the vector engine checks it at compile time, before any element moves;
the pinned tests assert the error's message, cycle, channel and writers.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mcb import MCBNetwork, RunPlan
from repro.mcb.errors import CollisionError, ConfigurationError
from repro.mcb.message import Message
from repro.mcb.reference import ReferenceMCBNetwork
from repro.mcb.trace import RunStats
from repro.mcb.vector import (
    SchedulePlan,
    VectorRun,
    build_batched_state,
    build_state,
    message_bits,
)
from repro.mcb.vector.executor import detect_dtype, detect_dtype_rows
from repro.obs import EventLog
from repro.obs.metrics import global_registry


# ---------------------------------------------------------------------------
# Random collision-free oblivious plans
# ---------------------------------------------------------------------------

@st.composite
def plans(draw) -> SchedulePlan:
    """A random valid plan: per cycle, distinct writers on distinct
    channels; readers matched to written channels with globally unique
    destination slots per processor; optional free local moves, some
    onto their own slot."""
    p = draw(st.integers(2, 5))
    k = draw(st.integers(1, min(3, p)))
    slots = draw(st.integers(2, 4))
    cycles = draw(st.integers(1, 4))
    writes, reads, moves = [], [], []
    dst_pool = {proc: list(range(slots)) for proc in range(p)}
    for cy in range(cycles):
        n_writers = draw(st.integers(0, min(p, k)))
        writers = draw(st.permutations(range(p)))[:n_writers]
        chans = draw(st.permutations(range(1, k + 1)))[:n_writers]
        written = []
        for proc, chan in zip(writers, chans):
            src = draw(st.integers(0, slots - 1))
            writes.append((cy, proc, chan, src))
            written.append(chan)
        if written:
            n_readers = draw(st.integers(0, 2))
            readers = draw(st.permutations(range(p)))[:n_readers]
            for proc in readers:
                if not dst_pool[proc]:
                    continue
                chan = draw(st.sampled_from(written))
                at = draw(st.integers(0, len(dst_pool[proc]) - 1))
                reads.append((cy, proc, chan, dst_pool[proc].pop(at)))
    for _ in range(draw(st.integers(0, 2))):
        proc = draw(st.integers(0, p - 1))
        if not dst_pool[proc]:
            continue
        at = draw(st.integers(0, len(dst_pool[proc]) - 1))
        dst = dst_pool[proc].pop(at)
        src = draw(st.one_of(st.just(dst), st.integers(0, slots - 1)))
        moves.append((proc, src, dst))
    return SchedulePlan(
        p=p, k=k, cycles=cycles, slots=slots,
        writes=writes, reads=reads, moves=moves,
    )


elements = st.integers(-(10 ** 9), 10 ** 9)


def run_reference(plan: SchedulePlan, rows):
    net = ReferenceMCBNetwork(p=plan.p, k=plan.k)
    out = net.run(plan.as_programs(rows), phase="plan")
    return out, net.stats.to_dict()


def run_vector(plan: SchedulePlan, rows):
    stats = RunStats()
    run = VectorRun(plan.p, plan.k, phase="plan", stats=stats)
    state = run.execute(plan.compile(), build_state(rows))
    run.finish()
    return state, stats.to_dict()


def run_collective(plan: SchedulePlan, rows):
    """The plan as ``RunPlan`` ops on an unobserved fast engine, which
    runs all ``p`` of them as one collective gather
    (``SchedulePlan.gather_rows``)."""
    counter = global_registry().counter("network_plan_runs_total")
    before = counter.get(op="run_plan", path="collective")

    def program(ctx):
        return (yield RunPlan(plan, ctx.pid - 1, rows[ctx.pid - 1]))

    net = MCBNetwork(p=plan.p, k=plan.k)
    out = net.run(
        {pid: program for pid in range(1, plan.p + 1)}, phase="plan"
    )
    assert counter.get(op="run_plan", path="collective") == before + plan.p
    return out, net.stats.to_dict()


def draw_rows(data, plan: SchedulePlan, extra: int = 0):
    """One row per processor, ``extra`` entries wider than the plan."""
    width = plan.slots + extra
    return [
        data.draw(st.lists(elements, min_size=width, max_size=width))
        for _ in range(plan.p)
    ]


@given(plans(), st.integers(0, 2), st.data())
def test_vector_matches_reference_on_random_plans(plan, extra, data):
    # The generator engines run rows wider than the plan (the tail
    # stays put); the vector state holds exactly the plan's slots.
    rows = draw_rows(data, plan, extra)
    ref_out, ref_stats = run_reference(plan, rows)
    state, vec_stats = run_vector(plan, [row[: plan.slots] for row in rows])
    assert vec_stats == ref_stats
    got = state.tolist()
    for proc in range(plan.p):
        assert got[proc] == ref_out[proc + 1][: plan.slots], proc
    assert run_collective(plan, rows) == (ref_out, ref_stats)


@settings(max_examples=25)
@given(plans(), st.integers(1, 3), st.data())
def test_batched_execution_matches_solo_reference_runs(plan, b, data):
    lanes = [draw_rows(data, plan) for _ in range(b)]
    run = VectorRun(plan.p, plan.k, phase="plan", batch=b)
    state = run.execute(plan.compile(), build_batched_state(lanes))
    lane_phases = run.finish()
    for lane in range(b):
        ref_out, ref_stats = run_reference(plan, lanes[lane])
        assert RunStats(phases=[lane_phases[lane]]).to_dict() == ref_stats
        got = state[:, :, lane].tolist()
        for proc in range(plan.p):
            assert got[proc] == ref_out[proc + 1], (lane, proc)
        assert run_collective(plan, lanes[lane]) == (ref_out, ref_stats)


# ---------------------------------------------------------------------------
# Compile-time collision detection (pinned error)
# ---------------------------------------------------------------------------

COLLIDING = SchedulePlan(
    p=3, k=2, cycles=3, slots=2,
    writes=[(0, 0, 1, 0), (2, 1, 2, 0), (2, 2, 2, 1)],
    reads=[(0, 1, 1, 1)],
)
COLLISION_MSG = (
    "write collision on channel C2 at cycle 2: processors ['P2', 'P3']"
)


def test_collision_detected_at_compile_time():
    with pytest.raises(CollisionError) as err:
        COLLIDING.compile()
    assert str(err.value) == COLLISION_MSG
    assert err.value.cycle == 2
    assert err.value.channel == 2
    assert err.value.writers == [2, 3]


INVALID_PLANS = [
    (
        SchedulePlan(
            p=2, k=1, cycles=1, slots=1,
            writes=[(0, 0, 2, 0)], reads=[],
        ),
        "invalid channel C2",
    ),
    (
        SchedulePlan(
            p=2, k=2, cycles=1, slots=1,
            writes=[(0, 0, 1, 0), (0, 0, 2, 0)], reads=[],
        ),
        "P1 writes twice in cycle 0",
    ),
    (
        SchedulePlan(
            p=2, k=2, cycles=1, slots=1,
            writes=[(0, 0, 1, 0), (0, 1, 2, 0)],
            reads=[(0, 1, 1, 0), (0, 1, 2, 0)],
        ),
        "P2 reads twice in cycle 0",
    ),
    (
        SchedulePlan(
            p=2, k=1, cycles=1, slots=1,
            writes=[], reads=[(0, 1, 1, 0)],
        ),
        "reads silent channel C1",
    ),
    (
        SchedulePlan(
            p=2, k=1, cycles=2, slots=2,
            writes=[(0, 0, 1, 0), (1, 0, 1, 1)],
            reads=[(0, 1, 1, 0), (1, 1, 1, 0)],
        ),
        "two events deliver into slot 0 of P2",
    ),
]


@pytest.mark.parametrize("plan, fragment", INVALID_PLANS)
def test_compile_rejects_invalid_plans(plan, fragment):
    with pytest.raises(ConfigurationError) as err:
        plan.compile()
    assert fragment in str(err.value)


# ---------------------------------------------------------------------------
# Vectorized compile fast path == per-event slow path
# ---------------------------------------------------------------------------

_COMPILED_SCALARS = ("p", "k", "cycles", "slots", "kind")
_COMPILED_ARRAYS = ("w_cycle", "w_proc", "w_chan", "w_src", "out_idx")


@given(plans())
def test_fast_compile_matches_slow_path(plan):
    """``compile()``'s vectorized validation must produce exactly the
    arrays the original per-event path derives — same sort order, same
    read-to-write matching, same dtypes."""
    fast = plan.compile()
    slow = plan._compile_slow()
    for name in _COMPILED_SCALARS:
        assert getattr(fast, name) == getattr(slow, name), name
    for name in _COMPILED_ARRAYS:
        a, b = getattr(fast, name), getattr(slow, name)
        assert a.dtype == b.dtype == np.int64, name
        assert np.array_equal(a, b), name
    assert np.array_equal(
        fast.channel_write_counts(), slow.channel_write_counts()
    )


def run_observed(plan: SchedulePlan, rows):
    """The plan stepped on the reference interpreter with an
    ``EventLog`` attached: rows, stats and the event stream."""
    net = ReferenceMCBNetwork(p=plan.p, k=plan.k)
    log = EventLog()
    net.attach_observer(log)
    out = net.run(plan.as_programs(rows), phase="plan")
    return out, net.stats.to_dict(), log.events


@given(plans(), st.data())
def test_plan_rebuilt_from_its_compiled_phase_behaves_the_same(plan, data):
    """``SchedulePlan.from_compiled`` (how a disk-loaded phase becomes a
    plan again) recompiles to the same arrays and steps the same
    rows, stats and events, though a move onto its own slot is gone."""
    compiled = plan.compile()
    rebuilt = SchedulePlan.from_compiled(compiled)
    assert rebuilt.compile() is compiled
    fresh = SchedulePlan(
        p=rebuilt.p, k=rebuilt.k, cycles=rebuilt.cycles, slots=rebuilt.slots,
        writes=rebuilt.writes, reads=rebuilt.reads, moves=rebuilt.moves,
        kind=rebuilt.kind,
    ).compile()
    for name in _COMPILED_SCALARS:
        assert getattr(fresh, name) == getattr(compiled, name), name
    for name in _COMPILED_ARRAYS:
        assert np.array_equal(getattr(fresh, name), getattr(compiled, name))
    rows = draw_rows(data, plan)
    assert run_observed(rebuilt, rows) == run_observed(plan, rows)


@pytest.mark.parametrize("plan, fragment", INVALID_PLANS)
def test_fast_path_falls_back_to_identical_errors(plan, fragment):
    """Violations make the fast path bail to the slow path, which owns
    the pinned diagnostics — both entry points raise the same message."""
    with pytest.raises(ConfigurationError) as via_compile:
        plan.compile()
    with pytest.raises(ConfigurationError) as via_slow:
        plan._compile_slow()
    assert str(via_compile.value) == str(via_slow.value)
    assert fragment in str(via_compile.value)


def test_fast_path_collision_matches_slow_path():
    with pytest.raises(CollisionError) as via_compile:
        COLLIDING.compile()
    with pytest.raises(CollisionError) as via_slow:
        COLLIDING._compile_slow()
    assert str(via_compile.value) == str(via_slow.value) == COLLISION_MSG
    assert via_compile.value.cycle == via_slow.value.cycle == 2


# ---------------------------------------------------------------------------
# Vectorized bit accounting == Message.bit_size
# ---------------------------------------------------------------------------

@given(
    st.lists(
        st.one_of(
            st.integers(-(2 ** 61), 2 ** 61),
            st.floats(allow_nan=False, allow_infinity=False),
            st.booleans(),
            st.tuples(st.integers(-100, 100), st.integers(-100, 100)),
        ),
        min_size=1,
        max_size=20,
    )
)
def test_message_bits_matches_scalar_rule(values):
    arr = np.empty(len(values), dtype=object)
    for i, v in enumerate(values):
        arr[i] = v
    got = message_bits(arr)
    for v, bits in zip(values, got):
        fields = v if isinstance(v, tuple) else (v,)
        assert bits == Message("elem", *fields).bit_size(), v


EDGE = 1 << 62


@pytest.mark.parametrize(
    "rows",
    [
        [[True, False], [1, 2]],
        [[True], [False]],
        [[1, 2.5], [3, 4]],
        [[1, 2], [3.0, 4.0]],
        [[EDGE - 1, 0], [-EDGE + 1, 5]],
        [[EDGE, 0], [1, 2]],
        [[0, 1], [-EDGE, 2]],
        [[1 << 80, 1], [2, 3]],
        [[(1, 2), (3, 4)], [(5, 6), (7, 8)]],
        [[1, 2], [(3, 4), 5]],
        [[], []],
        [],
        [[0.5, 1.5], [2.5, -1.0]],
        [[3, 1], [2, 7]],
    ],
)
def test_row_dtype_scan_matches_the_element_rule(rows):
    # build_state detects its dtype with the row scan; it must give
    # the element-by-element rule's answer on every input.
    assert detect_dtype_rows(rows) == detect_dtype(
        v for row in rows for v in row
    )
    if rows:
        assert build_state(rows).dtype == detect_dtype_rows(rows)


def test_message_bits_numeric_dtypes():
    ints = np.array([0, 1, -1, 5, -5, 1023, -(2 ** 40)], dtype=np.int64)
    for v, bits in zip(ints.tolist(), message_bits(ints)):
        assert bits == Message("elem", v).bit_size(), v
    floats = np.array([0.0, -1.5, 3.14], dtype=np.float64)
    assert (message_bits(floats) == Message("elem", 0.5).bit_size()).all()
    bools = np.array([True, False])
    assert (message_bits(bools) == Message("elem", True).bit_size()).all()
