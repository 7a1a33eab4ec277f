"""The fast engine must be bit-identical to the reference interpreter.

``MCBNetwork.run`` is written for throughput (slot-indexed arena, wake
heap, hoisted dispatch — see docs/MODEL.md "Engine performance");
``repro.mcb.reference.ReferenceMCBNetwork`` is the plain per-cycle
interpreter kept as the equivalence oracle, and ``ExtendedNetwork`` is
that interpreter under an explicit policy.  These tests drive the fast
engine, the reference interpreter and ``ExtendedNetwork`` (exclusive
write, single read) over the sort, select, and lower-bound suites and
demand *identical* per-processor results and *identical* accounting
(``RunStats.to_dict()``: cycles, messages, bits, channel_writes,
aux_peak, fast_forward_cycles) — plus identical profiler JSON, since the
obs observers see the run cycle by cycle.  ``TestSharedRules`` pins
the protocol rules every engine enforces alike.
"""

from __future__ import annotations

import inspect

import pytest

from repro.core import Distribution, kth_largest
from repro.core.problem import is_sorted_output
from repro.mcb import (
    EMPTY,
    CollisionError,
    CycleOp,
    ExtendedNetwork,
    ExtOp,
    Listen,
    MCBNetwork,
    Message,
    MessageSizeError,
    ProtocolError,
    Sleep,
)
from repro.mcb.crew import CREWMemory
from repro.mcb.reference import ReferenceMCBNetwork, run_simulated_reference
from repro.mcb.simulate import run_simulated
from repro.obs.profile import Profiler
from repro.select import mcb_select
from repro.sort import mcb_sort


def run_both(p, k, drive):
    """Run ``drive(net)`` on the fast engine, the reference interpreter
    and ``ExtendedNetwork`` under the paper's policy.

    Asserts identical RunStats projections on all three and identical
    outcomes on the two interpreter-backed engines; returns the fast and
    the reference outcome.
    """
    fast = MCBNetwork(p=p, k=k)
    ref = ReferenceMCBNetwork(p=p, k=k)
    ext = ExtendedNetwork(
        p=p, k=k, write_policy="exclusive", read_policy="single"
    )
    out_fast = drive(fast)
    out_ref = drive(ref)
    out_ext = drive(ext)
    for other in (ref, ext):
        assert fast.stats.to_dict() == other.stats.to_dict()
        assert [ph.to_dict() for ph in fast.stats.phases] == [
            ph.to_dict() for ph in other.stats.phases
        ]
    assert out_ext == out_ref
    return out_fast, out_ref


class TestSortSuite:
    @pytest.mark.parametrize(
        "n,p,k", [(64, 8, 8), (128, 8, 4), (96, 6, 2), (256, 16, 4)]
    )
    def test_even_sort_identical(self, n, p, k):
        d = Distribution.even(n, p, seed=n + p + k)

        def drive(net):
            return mcb_sort(net, d)

        out_fast, out_ref = run_both(p, k, drive)
        assert out_fast.output == out_ref.output
        assert is_sorted_output(d, out_fast.output)

    def test_uneven_sort_identical(self):
        d = Distribution.uneven(120, 6, seed=3, skew=1.5)

        def drive(net):
            return mcb_sort(net, d)

        out_fast, out_ref = run_both(6, 3, drive)
        assert out_fast.output == out_ref.output
        assert is_sorted_output(d, out_fast.output)


class TestSelectSuite:
    @pytest.mark.parametrize("n,p,k,d_rank", [(64, 8, 4, 1), (64, 8, 4, 32),
                                              (64, 8, 4, 64), (120, 6, 2, 60)])
    def test_select_identical(self, n, p, k, d_rank):
        dist = Distribution.even(n, p, seed=n + d_rank)

        def drive(net):
            return mcb_select(net, dist, d_rank)

        out_fast, out_ref = run_both(p, k, drive)
        assert out_fast.value == out_ref.value
        assert out_fast.value == kth_largest(dist.all_elements(), d_rank)


class TestBoundsSuite:
    def test_theorem3_worst_case_identical(self):
        d = Distribution.theorem3_worst_case([6, 5, 5, 4], seed=1)

        def drive(net):
            return mcb_sort(net, d)

        out_fast, out_ref = run_both(4, 2, drive)
        assert out_fast.output == out_ref.output
        assert is_sorted_output(d, out_fast.output)

    def test_theorem5_worst_case_identical(self):
        d = Distribution.theorem5_worst_case(40, 4, seed=2)

        def drive(net):
            return mcb_sort(net, d)

        out_fast, out_ref = run_both(4, 2, drive)
        assert out_fast.output == out_ref.output
        assert is_sorted_output(d, out_fast.output)


class TestSchedulerEdgeCases:
    """Target exactly the behaviours the rewrite touched."""

    def test_mixed_sleep_wakes_identical(self):
        # Staggered sleeps exercise the wake heap (fast) vs the O(p)
        # scan (reference): wake order, fast-forward accounting, and the
        # minimum-one-cycle rule must agree.
        def prog(ctx):
            got = None
            for r in range(4):
                yield Sleep((ctx.pid * 3 + r) % 5)  # includes Sleep(0)
                got = yield CycleOp(
                    write=ctx.pid if ctx.pid <= ctx.k else None,
                    payload=Message("m", ctx.pid, r) if ctx.pid <= ctx.k else None,
                    read=(ctx.pid + r) % ctx.k + 1,
                )
            return got

        def drive(net):
            return net.run({pid: prog for pid in range(1, 7)}, phase="sleepy")

        out_fast, out_ref = run_both(6, 3, drive)
        assert out_fast == out_ref

    def test_all_sleep_fast_forward_identical(self):
        def prog(ctx):
            yield Sleep(10 * ctx.pid)
            yield CycleOp(write=1, payload=Message("w", ctx.pid), read=1) \
                if ctx.pid == 1 else CycleOp(read=1)
            return ctx.pid

        def drive(net):
            return net.run({pid: prog for pid in (1, 2, 3)}, phase="ff")

        out_fast, out_ref = run_both(4, 2, drive)
        assert out_fast == out_ref

    def test_collision_partial_stats_identical(self):
        def prog(ctx):
            yield CycleOp(read=1)  # one clean cycle of costs first
            yield CycleOp(write=1, payload=Message("clash", ctx.pid))

        def drive(net):
            with pytest.raises(CollisionError) as exc:
                net.run({1: prog, 2: prog}, phase="clash")
            return (exc.value.cycle, exc.value.channel, exc.value.writers)

        out_fast, out_ref = run_both(2, 1, drive)
        assert out_fast == out_ref
        # Partial phase recorded on both engines, flagged as aborted.
        fast = MCBNetwork(p=2, k=1)
        with pytest.raises(CollisionError):
            fast.run({1: prog, 2: prog}, phase="clash")
        ph = fast.stats.phases[-1]
        assert ph.collisions == 1
        assert ph.cycles == 1  # the clean cycle before the abort


class TestListenEquivalence:
    """Listen parking (fast) vs per-cycle desugaring (reference)."""

    def test_bounded_listen_mixed_traffic_identical(self):
        # Writers with silent gaps + listeners with staggered windows:
        # the parked traffic-log path must deliver exactly the
        # (offset, message) pairs the reference's per-cycle reads see.
        def prog(ctx):
            if ctx.pid <= 2:
                ch = ctx.pid
                for r in range(6):
                    if (r + ctx.pid) % 3 == 0:
                        yield Sleep(1)  # silent cycle inside the window
                    else:
                        yield CycleOp(write=ch, payload=Message("m", ctx.pid, r))
                return None
            ch = (ctx.pid % 2) + 1
            yield from iter(())  # keep generator shape uniform
            heard = yield Listen(ch, 4 + ctx.pid % 3)
            return [(off, msg.fields) for off, msg in heard]

        def drive(net):
            return net.run({pid: prog for pid in range(1, 8)}, phase="listen")

        out_fast, out_ref = run_both(8, 4, drive)
        assert out_fast == out_ref
        assert any(out_fast[pid] for pid in range(3, 8))

    def test_until_nonempty_wake_identical(self):
        # A late writer wakes parked listeners; offsets must match the
        # reference's polling loop, including listeners that park at
        # different cycles (different offsets for the same broadcast).
        def prog(ctx):
            if ctx.pid == 1:
                yield Sleep(7)
                yield CycleOp(write=1, payload=Message("wake", 42))
                return None
            yield Sleep(ctx.pid)  # stagger the park cycle
            off, msg = yield Listen(1, until_nonempty=True)
            return (off, msg.fields)

        def drive(net):
            return net.run({pid: prog for pid in range(1, 6)}, phase="until")

        out_fast, out_ref = run_both(6, 2, drive)
        assert out_fast == out_ref
        # Distinct park cycles -> distinct offsets for one broadcast.
        assert len({v[0] for pid, v in out_fast.items() if pid != 1}) > 1

    def test_listener_parked_at_run_end_identical(self):
        # A bounded window outliving every writer: the listener still
        # runs its window out (cycles keep elapsing) and returns only
        # what was broadcast before the silence.
        def prog(ctx):
            if ctx.pid == 1:
                yield CycleOp(write=1, payload=Message("only", 1))
                return None
            heard = yield Listen(1, 9)
            return [(off, msg.fields) for off, msg in heard]

        def drive(net):
            return net.run({1: prog, 2: prog}, phase="tail")

        out_fast, out_ref = run_both(2, 1, drive)
        assert out_fast == out_ref
        assert out_fast[2] == [(0, (1,))]
        net = MCBNetwork(p=2, k=1)
        net.run({1: prog, 2: prog}, phase="tail")
        assert net.stats.phases[-1].cycles == 9  # full window elapsed

    def test_orphaned_until_listeners_identical(self):
        # Once every still-live processor waits for a broadcast that can
        # never come, the phase ends and the orphans' results stay None.
        def prog(ctx):
            if ctx.pid == 1:
                yield CycleOp(write=1, payload=Message("gone", 1))
                return "wrote"
            yield CycleOp(read=2)
            off, msg = yield Listen(2, until_nonempty=True)
            return (off, msg.fields)  # pragma: no cover - never resumed

        def drive(net):
            return net.run({pid: prog for pid in (1, 2, 3)}, phase="orphan")

        out_fast, out_ref = run_both(4, 2, drive)
        assert out_fast == out_ref
        assert out_fast == {1: "wrote", 2: None, 3: None}

    def test_until_write_in_final_cycle_not_orphaned(self):
        # The last non-listener writes in the very cycle the listener
        # parks, then finishes.  The desugaring engines already hold the
        # message in the listener's inbox when the orphan check runs —
        # the listener must complete, not be closed as an orphan.
        def prog(ctx):
            if ctx.pid == 1:
                yield CycleOp(write=1, payload=Message("last", 5))
                return "wrote"
            off, msg = yield Listen(1, until_nonempty=True)
            return (off, msg.fields)

        def drive(net):
            return net.run({1: prog, 2: prog}, phase="last-cycle")

        out_fast, out_ref = run_both(2, 1, drive)
        assert out_fast == out_ref == {1: "wrote", 2: (0, (5,))}
        # Same outcome on the observed (desugared) fast path.
        observed = MCBNetwork(p=2, k=1, record_trace=True)
        assert observed.run({1: prog, 2: prog}, phase="last-cycle") == out_fast

    def test_observed_run_event_streams_identical(self):
        # With an observer attached the fast engine desugars listens so
        # MessageBroadcast.readers includes every parked listener; the
        # recorded trace must match the reference engine event for event.
        def prog(ctx):
            if ctx.pid == 1:
                for r in range(4):
                    yield CycleOp(write=1, payload=Message("t", r))
                return None
            if ctx.pid == 2:
                heard = yield Listen(1, 4)
                return [(off, msg.fields) for off, msg in heard]
            off, msg = yield Listen(1, until_nonempty=True)
            return (off, msg.fields)

        fast = MCBNetwork(p=3, k=1, record_trace=True)
        ref = ReferenceMCBNetwork(p=3, k=1, record_trace=True)
        res_fast = fast.run({pid: prog for pid in (1, 2, 3)}, phase="obs")
        res_ref = ref.run({pid: prog for pid in (1, 2, 3)}, phase="obs")
        assert res_fast == res_ref
        assert fast.stats.to_dict() == ref.stats.to_dict()
        assert fast.events == ref.events
        # Parked listeners appear as readers of the broadcasts they heard.
        assert any(len(ev.readers) == 2 for ev in fast.events)

    def test_listen_protocol_errors_identical(self):
        cases = [
            lambda: Listen(1, 2, until_nonempty=True),  # both forms
            lambda: Listen(1),  # neither form
            lambda: Listen(1, -3),  # negative window
            lambda: Listen(99, 2),  # channel out of range
        ]
        for make in cases:
            def bad(ctx, make=make):
                yield make()

            for net in (MCBNetwork(p=2, k=2), ReferenceMCBNetwork(p=2, k=2)):
                with pytest.raises(ProtocolError):
                    net.run({1: bad}, phase="bad-listen")

    def test_listen_zero_means_one_cycle(self):
        # Minimum-one-cycle rule, exactly as for Sleep.
        def prog(ctx):
            if ctx.pid == 1:
                yield CycleOp(write=1, payload=Message("x", 1))
                return None
            heard = yield Listen(1, 0)
            return [(off, msg.fields) for off, msg in heard]

        def drive(net):
            return net.run({1: prog, 2: prog}, phase="zero")

        out_fast, out_ref = run_both(2, 1, drive)
        assert out_fast == out_ref
        assert out_fast[2] == [(0, (1,))]

    def test_listen_desugared_inside_simulation(self):
        # Both simulators spell a virtual program's Listen as the per-cycle
        # reads that define it: same results and RunStats as the program
        # written with those reads by hand.
        def virt(listen):
            def prog(ctx):
                if ctx.pid == 1:
                    yield CycleOp(write=1, payload=Message("a", 1))
                    yield Sleep(2)
                    yield CycleOp(write=1, payload=Message("a", 2))
                    return None
                if ctx.pid == 2:
                    yield Sleep(3)
                    yield CycleOp(write=2, payload=Message("b", 3))
                    return None
                if ctx.pid == 3:
                    if listen:
                        heard = yield Listen(1, 5)
                    else:
                        heard = []
                        for off in range(5):
                            got = yield CycleOp(read=1)
                            if got is not EMPTY:
                                heard.append((off, got))
                    return [(off, msg.fields) for off, msg in heard]
                if listen:
                    off, msg = yield Listen(2, until_nonempty=True)
                else:
                    off = 0
                    while (msg := (yield CycleOp(read=2))) is EMPTY:
                        off += 1
                yield CycleOp(write=1, payload=Message("c", off))
                return (off, msg.fields)

            return {pid: prog for pid in range(1, 5)}

        outcomes = []
        for simulate, net_cls in (
            (run_simulated, MCBNetwork),
            (run_simulated_reference, ReferenceMCBNetwork),
        ):
            for listen in (True, False):
                net = net_cls(p=2, k=1)
                res = simulate(net, 4, 2, virt(listen), phase="sim-listen")
                outcomes.append((res, net.stats.to_dict()))
        assert all(o == outcomes[0] for o in outcomes)
        res = outcomes[0][0]
        assert res[3] == [(0, (1,)), (3, (2,)), (4, (3,))]
        assert res[4] == (3, (3,))

        def bad(ctx):
            yield Listen(1, -1)

        for simulate, net_cls in (
            (run_simulated, MCBNetwork),
            (run_simulated_reference, ReferenceMCBNetwork),
        ):
            with pytest.raises(ProtocolError, match="negative listen window"):
                simulate(net_cls(p=2, k=1), 4, 2, {1: bad}, phase="bad")


class TestListenModelVariants:
    """Listen under CREW persistent cells and extended write policies."""

    def test_crew_persistent_cell_buffers_every_step(self):
        from repro.mcb.crew import CREWMemory

        def prog(ctx):
            if ctx.pid == 1:
                yield CycleOp(write=1, payload=Message("v", 7))
                yield Sleep(4)
                return None
            yield CycleOp(read=2)  # let the write land first
            heard = yield Listen(1, 3)
            return [(off, msg.fields) for off, msg in heard]

        mem = CREWMemory(p=2, cells=2)
        res = mem.run({1: prog, 2: prog}, phase="crew-listen")
        # Cells persist: the one write is heard on every window step.
        assert res[2] == [(0, (7,)), (1, (7,)), (2, (7,))]

    def test_crew_until_completes_on_ever_written_cell(self):
        from repro.mcb.crew import CREWMemory

        def prog(ctx):
            if ctx.pid == 1:
                yield CycleOp(write=1, payload=Message("v", 9))
                return None
            yield CycleOp(read=2)
            off, msg = yield Listen(1, until_nonempty=True)
            return (off, msg.fields)

        mem = CREWMemory(p=2, cells=2)
        res = mem.run({1: prog, 2: prog}, phase="crew-until")
        assert res[2] == (0, (9,))

    def test_extended_collision_wakes_until_listener(self):
        from repro.mcb.extensions import ExtendedNetwork, ExtOp

        def prog(ctx):
            if ctx.pid <= 2:
                yield ExtOp(write=1, payload=Message("w", ctx.pid))
                return None
            got = yield Listen(1, until_nonempty=True)
            return got

        net = ExtendedNetwork(p=3, k=1, write_policy="detect")
        res = net.run({pid: prog for pid in (1, 2, 3)}, phase="ext-until")
        off, marker = res[3]
        assert off == 0
        assert repr(marker) == "COLLISION"  # audibly non-empty

    def test_extended_bounded_listen_buffers_collisions(self):
        from repro.mcb.extensions import ExtendedNetwork, ExtOp

        def prog(ctx):
            if ctx.pid <= 2:
                yield ExtOp(write=1, payload=Message("w", ctx.pid))
                yield Sleep(1)
                if ctx.pid == 1:
                    yield ExtOp(write=1, payload=Message("solo", 1))
                return None
            heard = yield Listen(1, 3)
            return heard

        net = ExtendedNetwork(p=3, k=1, write_policy="detect")
        res = net.run({pid: prog for pid in (1, 2, 3)}, phase="ext-listen")
        offsets = [off for off, _ in res[3]]
        assert offsets == [0, 2]  # collision marker + the later solo write
        assert repr(res[3][0][1]) == "COLLISION"
        assert res[3][1][1].fields == (1,)


class TestSimulationEquivalence:
    def test_compiled_schedule_matches_reference(self):
        # The (wrep, t)/(rep, t) lookup tables must reproduce the
        # first-match linear scans exactly: results AND real-network
        # stats (cycle count, per-channel writes, fast-forward).
        def prog(ctx):
            ch = (ctx.pid - 1) % ctx.k + 1
            got = None
            for r in range(3):
                got = yield CycleOp(
                    write=ch if ctx.pid <= ctx.k else None,
                    payload=Message("s", ctx.pid, r) if ctx.pid <= ctx.k else None,
                    read=(ctx.pid + r - 1) % ctx.k + 1,
                )
                if ctx.pid % 3 == 0:
                    yield Sleep(2)
            return (ctx.pid, got.fields if isinstance(got, Message) else got)

        programs = {pid: prog for pid in range(1, 9)}

        fast = MCBNetwork(p=4, k=2)
        res_fast = run_simulated(fast, 8, 4, programs, phase="sim")
        ref = ReferenceMCBNetwork(p=4, k=2)
        res_ref = run_simulated_reference(ref, 8, 4, programs, phase="sim")

        assert res_fast == res_ref
        assert fast.stats.to_dict() == ref.stats.to_dict()
        assert (
            fast.stats.phases[-1].extra["simulated"]
            == ref.stats.phases[-1].extra["simulated"]
        )


class TestProfilerEquivalence:
    def test_profiler_json_identical(self):
        d = Distribution.even(64, 8, seed=5)

        def drive(net):
            with Profiler(net, config={"algorithm": "sort"}) as prof:
                mcb_sort(net, d)
            return prof.report().to_dict()

        report_fast, report_ref = run_both(8, 4, drive)
        assert report_fast == report_ref


ENGINES = {
    "fast": lambda p, k: MCBNetwork(p=p, k=k),
    "reference": lambda p, k: ReferenceMCBNetwork(p=p, k=k),
    "extended-exclusive": lambda p, k: ExtendedNetwork(
        p=p, k=k, write_policy="exclusive"
    ),
    "crew": lambda p, k: CREWMemory(p=p, cells=k),
}


@pytest.mark.parametrize("make", list(ENGINES.values()), ids=list(ENGINES))
class TestSharedRules:
    """Protocol rules that hold on every engine, whatever its policy."""

    def test_negative_sleep_raises(self, make):
        def prog(ctx):
            yield Sleep(-3)

        with pytest.raises(ProtocolError, match="negative sleep"):
            make(2, 1).run({1: prog})

    def test_oversized_message_raises(self, make):
        def prog(ctx):
            yield CycleOp(write=1, payload=Message("big", *range(20)))

        with pytest.raises(MessageSizeError):
            make(2, 1).run({1: prog})

    def test_payload_without_write_raises(self, make):
        def prog(ctx):
            yield CycleOp(payload=Message("lost", 1), read=1)

        with pytest.raises(ProtocolError, match="without a write channel"):
            make(2, 1).run({1: prog})

    def test_abort_charges_nothing_from_aborted_cycle(self, make):
        def prog(ctx):
            if ctx.pid == 1:
                yield CycleOp(write=1, payload=Message("ok", 1))
            else:
                yield CycleOp(read=1)
            yield CycleOp(write=1, payload=Message("clash", ctx.pid))

        net = make(3, 1)
        with pytest.raises(CollisionError):
            net.run({pid: prog for pid in (1, 2, 3)}, phase="adv")
        ph = net.stats.phases[-1]
        assert (ph.cycles, ph.collisions) == (1, 1)
        assert ph.messages == 1  # the clean cycle only
        assert ph.bits == Message("ok", 1).bit_size()
        assert ph.channel_writes == {1: 1}

    def test_collision_lists_every_writer(self, make):
        def prog(ctx):
            yield CycleOp(write=1, payload=Message("clash", ctx.pid))

        with pytest.raises(CollisionError) as exc:
            make(3, 1).run({pid: prog for pid in (1, 2, 3)})
        assert (exc.value.cycle, exc.value.channel) == (0, 1)
        assert exc.value.writers == [1, 2, 3]

    def test_run_signature_matches_fast_engine(self, make):
        net = make(2, 1)
        assert inspect.signature(net.run) == inspect.signature(
            MCBNetwork(p=2, k=1).run
        )
        assert inspect.signature(net.run).parameters[
            "max_cycles"
        ].default == 50_000_000

    def test_data_installed_as_ctx_data(self, make):
        def prog(ctx):
            yield CycleOp(read=1)
            return ctx.data

        res = make(2, 1).run({1: prog, 2: prog}, data={1: "a", 2: "b"})
        assert res == {1: "a", 2: "b"}


class TestPolicyInterpreter:
    """``ExtOp`` runs on every interpreter-backed engine."""

    @pytest.mark.parametrize(
        "make", [ENGINES["reference"], ENGINES["crew"]],
        ids=["reference", "crew"],
    )
    def test_extop_accepted(self, make):
        def prog(ctx):
            if ctx.pid == 1:
                yield ExtOp(write=1, payload=Message("x", 7))
                return None
            got = yield ExtOp(read=1)
            return got.fields

        assert make(2, 1).run({1: prog, 2: prog})[2] == (7,)

    def test_multi_read_needs_read_all(self):
        def prog(ctx):
            yield ExtOp(read="all")

        with pytest.raises(ProtocolError, match="read_policy='all'"):
            ReferenceMCBNetwork(p=2, k=2).run({1: prog})

    def test_multi_read_channels_checked(self):
        def prog(ctx):
            yield ExtOp(read=(1, 5))

        net = ExtendedNetwork(p=2, k=2, read_policy="all")
        with pytest.raises(ProtocolError, match="invalid channel"):
            net.run({1: prog})
