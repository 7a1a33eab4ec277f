"""Phase fusion: composed gathers vs sequential execution, by property.

:func:`repro.mcb.vector.fuse_phases` composes consecutive compiled
phases into one origin-map gather.  Its contract is exact
equivalence: for any sequence of valid same-shape plans, executing the
fused phase must produce a bit-identical final state and an identical
``RunStats.to_dict()`` to executing the constituents one by one — and,
transitively, to the reference engine running the same plans as
generator programs.  Hypothesis drives random plan sequences through
all three.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mcb.errors import ConfigurationError
from repro.mcb.reference import ReferenceMCBNetwork
from repro.mcb.trace import RunStats
from repro.mcb.vector import (
    SchedulePlan,
    VectorRun,
    build_batched_state,
    build_state,
    fuse_phases,
)
from repro.obs.metrics import global_registry

elements = st.integers(-(10 ** 9), 10 ** 9)


@st.composite
def plan_sequences(draw) -> list[SchedulePlan]:
    """1-3 random valid plans sharing one ``(p, k, slots)`` shape."""
    p = draw(st.integers(2, 5))
    k = draw(st.integers(1, min(3, p)))
    slots = draw(st.integers(2, 4))
    seq = []
    for _ in range(draw(st.integers(1, 3))):
        cycles = draw(st.integers(1, 3))
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
            src = draw(st.integers(0, slots - 1))
            at = draw(st.integers(0, len(dst_pool[proc]) - 1))
            moves.append((proc, src, dst_pool[proc].pop(at)))
        seq.append(
            SchedulePlan(
                p=p, k=k, cycles=cycles, slots=slots,
                writes=writes, reads=reads, moves=moves,
            )
        )
    return seq


def _draw_rows(data, seq):
    return [
        data.draw(
            st.lists(elements, min_size=seq[0].slots, max_size=seq[0].slots)
        )
        for _ in range(seq[0].p)
    ]


def _run_sequential(seq, state):
    run = VectorRun(seq[0].p, seq[0].k, phase="fusetest")
    for plan in seq:
        state = run.execute(plan.compile(), state)
    return state, RunStats(phases=[run.finish()[0]]).to_dict()


def _run_fused(seq, state):
    fused = fuse_phases([plan.compile() for plan in seq])
    run = VectorRun(seq[0].p, seq[0].k, phase="fusetest")
    state = run.execute_fused(fused, state)
    return state, RunStats(phases=[run.finish()[0]]).to_dict()


@given(plan_sequences(), st.data())
def test_fused_matches_sequential_execution(seq, data):
    rows = _draw_rows(data, seq)
    seq_state, seq_stats = _run_sequential(seq, build_state(rows))
    fus_state, fus_stats = _run_fused(seq, build_state(rows))
    assert fus_stats == seq_stats
    assert fus_state.tolist() == seq_state.tolist()


@settings(max_examples=25)
@given(plan_sequences(), st.data())
def test_fused_matches_reference_oracle(seq, data):
    """Final state and summed cost totals vs the generator oracle."""
    rows = _draw_rows(data, seq)
    p = seq[0].p
    ref = ReferenceMCBNetwork(p=p, k=seq[0].k)
    cur = [list(r) for r in rows]
    for plan in seq:
        out = ref.run(plan.as_programs(cur), phase="plan")
        cur = [list(out[proc + 1]) for proc in range(p)]
    fus_state, fus_stats = _run_fused(seq, build_state(rows))
    assert fus_state.tolist() == cur
    ref_phases = ref.stats.to_dict()["phases"]
    (fused_phase,) = fus_stats["phases"]
    for field in ("cycles", "messages", "bits"):
        assert fused_phase[field] == sum(ph[field] for ph in ref_phases)
    merged: dict = {}
    for ph in ref_phases:
        for ch, n in ph["channel_writes"].items():
            merged[ch] = merged.get(ch, 0) + n
    assert fused_phase["channel_writes"] == merged


@settings(max_examples=25)
@given(plan_sequences(), st.integers(1, 3), st.data())
def test_fused_batched_matches_sequential(seq, b, data):
    lanes = [_draw_rows(data, seq) for _ in range(b)]
    run_a = VectorRun(seq[0].p, seq[0].k, phase="fusetest", batch=b)
    state_a = build_batched_state(lanes)
    for plan in seq:
        state_a = run_a.execute(plan.compile(), state_a)
    phases_a = run_a.finish()

    run_b = VectorRun(seq[0].p, seq[0].k, phase="fusetest", batch=b)
    fused = fuse_phases([plan.compile() for plan in seq])
    state_b = run_b.execute_fused(fused, build_batched_state(lanes))
    phases_b = run_b.finish()

    assert state_b.tolist() == state_a.tolist()
    for lane in range(b):
        assert phases_b[lane].to_dict() == phases_a[lane].to_dict(), lane


def test_fused_static_dtype_matches_sequential():
    """Float payloads take the static bit path on both sides."""
    plan = SchedulePlan(
        p=2, k=1, cycles=1, slots=2,
        writes=[(0, 0, 1, 0)], reads=[(0, 1, 1, 1)],
    )
    rows = [[1.5, -2.25], [0.0, 4.0]]
    seq_state, seq_stats = _run_sequential([plan, plan], build_state(rows))
    fus_state, fus_stats = _run_fused([plan, plan], build_state(rows))
    assert fus_stats == seq_stats
    assert fus_state.tolist() == seq_state.tolist()


def test_dead_move_is_eliminated_in_composition():
    """A move whose destination a later phase overwrites leaves no trace
    in the fused origin map — but its (free) cost profile is unchanged."""
    mover = SchedulePlan(
        p=2, k=1, cycles=1, slots=2,
        writes=[], reads=[], moves=[(0, 0, 1)],
    )
    overwriter = SchedulePlan(
        p=2, k=1, cycles=1, slots=2,
        writes=[(0, 1, 1, 0)], reads=[(0, 0, 1, 1)],
    )
    fused = fuse_phases([mover.compile(), overwriter.compile()])
    # Slot (0, 1) traces back to processor 1's slot 0 — the broadcast
    # source — not to the moved copy of (0, 0).
    assert fused.g_proc[0, 1] == 1
    assert fused.g_slot[0, 1] == 0
    rows = [[10, 11], [20, 21]]
    seq_state, seq_stats = _run_sequential(
        [mover, overwriter], build_state(rows)
    )
    fus_state, fus_stats = _run_fused(
        [mover, overwriter], build_state(rows)
    )
    assert fus_state.tolist() == seq_state.tolist() == [[10, 20], [20, 21]]
    assert fus_stats == seq_stats


def test_fuse_rejects_shape_mismatch():
    a = SchedulePlan(p=2, k=1, cycles=1, slots=2, writes=[], reads=[])
    b = SchedulePlan(p=2, k=1, cycles=1, slots=3, writes=[], reads=[])
    with pytest.raises(ConfigurationError, match="cannot fuse phase of shape"):
        fuse_phases([a.compile(), b.compile()])


def test_fuse_rejects_empty_sequence():
    with pytest.raises(ConfigurationError, match="at least one phase"):
        fuse_phases([])


def test_fusion_increments_counter():
    plan = SchedulePlan(p=2, k=1, cycles=1, slots=2, writes=[], reads=[])
    counter = global_registry().counter("vector_plan_phases_fused")
    before = counter.get()
    fuse_phases([plan.compile()] * 3)
    assert counter.get() == before + 3


def test_fused_rejects_observed_runs():
    class _Sink:
        def __init__(self):
            self.events = []

        def dispatch(self, ev):
            self.events.append(ev)

    plan = SchedulePlan(
        p=2, k=1, cycles=1, slots=2,
        writes=[(0, 0, 1, 0)], reads=[(0, 1, 1, 1)],
    )
    fused = fuse_phases([plan.compile()])
    run = VectorRun(2, 1, phase="fusetest", dispatch=_Sink())
    with pytest.raises(
        ConfigurationError, match="cannot emit per-message events"
    ):
        run.execute_fused(fused, build_state([[1, 2], [3, 4]]))


def test_fused_columnsort_phases_match_sequential():
    """The real columnsort transformation pipeline, fused end to end."""
    from repro.sort.cnet_sort import cnet_plans

    m, k = 16, 4
    phases = [plan.compile() for plan in cnet_plans("columnsort", m, k)]
    rng = np.random.default_rng(9)
    rows = rng.integers(0, 1 << 20, size=(k, m)).tolist()

    run_a = VectorRun(k, k, phase="transform")
    state_a = build_state(rows)
    for compiled in phases:
        state_a = run_a.execute(compiled, state_a)
    stats_a = RunStats(phases=[run_a.finish()[0]]).to_dict()

    fused = fuse_phases(phases)
    assert fused.phases_fused == len(phases)
    run_b = VectorRun(k, k, phase="transform")
    state_b = run_b.execute_fused(fused, build_state(rows))
    stats_b = RunStats(phases=[run_b.finish()[0]]).to_dict()

    assert state_b.tolist() == state_a.tolist()
    assert stats_b == stats_a
