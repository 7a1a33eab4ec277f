"""Integration tests: the obs hooks wired into both MCB engines."""

import pytest

from repro.mcb import (
    EMPTY,
    CollisionError,
    CycleOp,
    ExtOp,
    ExtendedNetwork,
    MCBNetwork,
    Message,
    Sleep,
)
from repro.obs import (
    EventLog,
    MetricsObserver,
    Observer,
)


class Recorder(Observer):
    """Test observer that remembers every hook invocation in order."""

    def __init__(self):
        self.calls = []

    def on_phase_start(self, ev):
        self.calls.append(ev)

    def on_phase_end(self, ev):
        self.calls.append(ev)

    def on_message(self, ev):
        self.calls.append(ev)

    def on_collision(self, ev):
        self.calls.append(ev)

    def on_fast_forward(self, ev):
        self.calls.append(ev)

    def kinds(self):
        return [ev.kind for ev in self.calls]


def _writer(channel, *fields, kind="t"):
    def prog(ctx):
        yield CycleOp(write=channel, payload=Message(kind, *fields))
    return prog


def _reader(channel):
    def prog(ctx):
        got = yield CycleOp(read=channel)
        return got
    return prog


class TestNetworkHooks:
    def test_phase_lifecycle_events(self):
        net = MCBNetwork(p=2, k=1)
        rec = Recorder()
        net.attach_observer(rec)
        net.run({1: _writer(1, 7), 2: _reader(1)}, phase="demo")
        assert rec.kinds() == ["phase_start", "message", "phase_end"]
        start, msg, end = rec.calls
        assert start.phase == "demo" and start.p == 2 and start.k == 1
        assert msg.writer == 1 and msg.readers == (2,) and msg.fields == (7,)
        assert end.cycles == 1 and end.messages == 1
        assert end.utilization == 1.0

    def test_phase_end_matches_run_stats(self):
        net = MCBNetwork(p=4, k=2)
        rec = Recorder()
        net.attach_observer(rec)
        net.run({1: _writer(1, 1), 2: _writer(2, 2), 3: _reader(1)})
        end = rec.calls[-1]
        ph = net.stats.phases[-1]
        assert end.cycles == ph.cycles
        assert end.messages == ph.messages
        assert end.bits == ph.bits
        assert end.channel_writes == ph.channel_writes
        assert end.utilization == ph.channel_utilization()

    def test_message_event_with_zero_readers(self):
        net = MCBNetwork(p=2, k=1)
        rec = Recorder()
        net.attach_observer(rec)
        net.run({1: _writer(1, 5)})  # nobody listens
        msgs = [ev for ev in rec.calls if ev.kind == "message"]
        assert len(msgs) == 1
        assert msgs[0].readers == ()

    def test_collision_event_before_abort(self):
        net = MCBNetwork(p=2, k=1)
        rec = Recorder()
        net.attach_observer(rec)
        with pytest.raises(CollisionError):
            net.run({1: _writer(1, 1), 2: _writer(1, 2)})
        coll = [ev for ev in rec.calls if ev.kind == "collision"]
        assert len(coll) == 1
        assert coll[0].writers == (1, 2)
        assert coll[0].resolution == "abort"

    def test_fast_forward_event_and_accounting(self):
        def sleepy(ctx):
            yield CycleOp()
            yield Sleep(10)

        net = MCBNetwork(p=1, k=1)
        rec = Recorder()
        net.attach_observer(rec)
        net.run({1: sleepy})
        ffs = [ev for ev in rec.calls if ev.kind == "fast_forward"]
        assert len(ffs) == 1
        # cycle 0: the CycleOp; cycle 1: the sleeping yield itself; the
        # engine then fast-forwards over the remaining 9 slept cycles.
        assert ffs[0].skipped == 9
        ph = net.stats.phases[-1]
        assert ph.fast_forward_cycles == 9
        assert ph.cycles == 11

    def test_attach_detach(self):
        net = MCBNetwork(p=2, k=1)
        assert net._dispatch is None
        rec = Recorder()
        net.attach_observer(rec)
        assert net._dispatch is not None
        net.detach_observer(rec)
        assert net._dispatch is None
        net.detach_observer(rec)  # unknown observer is a no-op
        net.run({1: _writer(1, 1), 2: _reader(1)})
        assert rec.calls == []

    def test_reset_stats_detaches_observers(self):
        net = MCBNetwork(p=2, k=1)
        rec = Recorder()
        net.attach_observer(rec)
        net.reset_stats()
        assert net.observers == ()
        assert net._dispatch is None
        net.run({1: _writer(1, 1), 2: _reader(1)})
        assert rec.calls == []

    def test_raising_observer_does_not_corrupt_run(self):
        class Bad(Observer):
            def on_message(self, ev):
                raise RuntimeError("observer bug")

        net = MCBNetwork(p=2, k=1)
        rec = Recorder()
        net.attach_observer(Bad())
        net.attach_observer(rec)
        res = net.run({1: _writer(1, 9), 2: _reader(1)})
        # the run completed, results and stats are intact
        assert res[2] == Message("t", 9)
        assert net.stats.messages == 1
        # the healthy observer still got everything
        assert rec.kinds() == ["phase_start", "message", "phase_end"]
        # the failure was accounted
        assert net._dispatch.errors == {"Bad": 1}

    def test_event_log_records_the_full_stream_in_order(self):
        net = MCBNetwork(p=2, k=1)
        log = EventLog()
        rec = Recorder()
        net.attach_observer(log)
        net.attach_observer(rec)
        net.run({1: _writer(1, 4), 2: _reader(1)})
        assert log.events == rec.calls
        assert [e.kind for e in log.events] == [
            "phase_start", "message", "phase_end"
        ]

    def test_multiple_phases_stream_in_order(self):
        net = MCBNetwork(p=2, k=1)
        rec = Recorder()
        net.attach_observer(rec)
        net.run({1: _writer(1, 1), 2: _reader(1)}, phase="a")
        net.run({1: _writer(1, 2), 2: _reader(1)}, phase="b")
        assert [ev.phase for ev in rec.calls] == ["a", "a", "a", "b", "b", "b"]


class TestMetricsObserverIntegration:
    def test_counters_match_stats(self):
        net = MCBNetwork(p=4, k=2)
        mo = MetricsObserver()
        net.attach_observer(mo)
        net.run({1: _writer(1, 1), 2: _writer(2, 2), 3: _reader(1)},
                phase="x")
        net.run({1: _writer(1, 3), 2: _reader(1)}, phase="y")
        r = mo.registry
        assert r.get("mcb_phases_total").get() == 2
        assert (
            r.get("mcb_messages_total").get(phase="x")
            + r.get("mcb_messages_total").get(phase="y")
            == net.stats.messages
        )
        assert r.get("mcb_cycles_total").get(phase="x") == 1
        assert r.get("mcb_channel_writes_total").get(channel=1) == 2
        assert r.get("mcb_channel_writes_total").get(channel=2) == 1
        snap = mo.snapshot()
        assert snap["mcb_phase_cycles"]["value"]["count"] == 2

    def test_aux_peak_high_water(self):
        def alloc(ctx):
            ctx.aux_acquire(64)
            yield CycleOp()

        def idle(ctx):
            yield CycleOp()

        net = MCBNetwork(p=1, k=1)
        mo = MetricsObserver()
        net.attach_observer(mo)
        net.run({1: alloc})
        net.run({1: idle})  # a later cheap phase must not lower the max
        assert mo.registry.get("mcb_aux_peak_slots").get() == 64


class TestExtendedNetworkHooks:
    def test_detect_policy_emits_collision_and_counts(self):
        def contender(ctx):
            got = yield ExtOp(write=1, payload=Message("b", ctx.pid), read=1)
            return got

        net = ExtendedNetwork(p=2, k=1, write_policy="detect")
        rec = Recorder()
        net.attach_observer(rec)
        net.run({1: contender, 2: contender})
        coll = [ev for ev in rec.calls if ev.kind == "collision"]
        assert len(coll) == 1
        assert coll[0].resolution == "garbled"
        assert coll[0].writers == (1, 2)
        assert net.stats.phases[-1].collisions == 1
        # no message event: the channel was garbled, nothing delivered
        assert not [ev for ev in rec.calls if ev.kind == "message"]

    def test_priority_policy_message_event_names_winner(self):
        def contender(ctx):
            got = yield ExtOp(write=1, payload=Message("b", ctx.pid), read=1)
            return got

        net = ExtendedNetwork(p=3, k=1, write_policy="priority")
        rec = Recorder()
        net.attach_observer(rec)
        res = net.run({1: contender, 2: contender, 3: contender})
        assert res[3].fields == (1,)  # lowest pid won
        msgs = [ev for ev in rec.calls if ev.kind == "message"]
        assert len(msgs) == 1
        assert msgs[0].writer == 1
        assert set(msgs[0].readers) == {1, 2, 3}
        colls = [ev for ev in rec.calls if ev.kind == "collision"]
        assert colls[0].resolution == "priority"
        assert net.stats.phases[-1].collisions == 1

    def test_exclusive_policy_emits_abort_collision(self):
        def shout(ctx):
            yield ExtOp(write=1, payload=Message("x"))

        net = ExtendedNetwork(p=2, k=1)
        rec = Recorder()
        net.attach_observer(rec)
        with pytest.raises(CollisionError):
            net.run({1: shout, 2: shout})
        assert [ev.kind for ev in rec.calls][-1] == "collision"
        assert rec.calls[-1].resolution == "abort"

    def test_read_all_readers_in_message_event(self):
        def sender(ctx):
            yield ExtOp(write=ctx.pid, payload=Message("v", ctx.pid))

        def listener(ctx):
            got = yield ExtOp(read="all")
            return got

        net = ExtendedNetwork(p=3, k=2, read_policy="all")
        rec = Recorder()
        net.attach_observer(rec)
        res = net.run({1: sender, 2: sender, 3: listener})
        assert res[3][1].fields == (1,)
        msgs = {ev.channel: ev for ev in rec.calls if ev.kind == "message"}
        assert msgs[1].readers == (3,)
        assert msgs[2].readers == (3,)

    def test_reset_stats_detaches(self):
        net = ExtendedNetwork(p=2, k=1, write_policy="detect")
        rec = Recorder()
        net.attach_observer(rec)
        net.reset_stats()
        assert net.observers == ()
        assert net.stats.phases == []

    def test_phase_stats_k_stamped(self):
        def silent(ctx):
            yield ExtOp(read=1)

        net = ExtendedNetwork(p=4, k=3)
        net.run({1: silent})
        assert net.stats.phases[-1].k == 3
