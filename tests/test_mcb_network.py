"""Tests for the synchronous MCB network engine (paper Section 2)."""

import pytest

from repro.mcb import (
    EMPTY,
    CollisionError,
    ConfigurationError,
    CycleOp,
    MCBNetwork,
    Message,
    MessageSizeError,
    ProtocolError,
    Sleep,
)
from repro.obs import EventLog


def _writer(channel, *fields, kind="t"):
    def prog(ctx):
        yield CycleOp(write=channel, payload=Message(kind, *fields))
    return prog


def _reader(channel):
    def prog(ctx):
        got = yield CycleOp(read=channel)
        return got
    return prog


class TestConstruction:
    def test_requires_positive_p(self):
        with pytest.raises(ConfigurationError):
            MCBNetwork(p=0, k=1)

    def test_requires_positive_k(self):
        with pytest.raises(ConfigurationError):
            MCBNetwork(p=4, k=0)

    def test_model_requires_k_le_p(self):
        with pytest.raises(ConfigurationError):
            MCBNetwork(p=2, k=3)

    def test_k_equals_p_allowed(self):
        net = MCBNetwork(p=3, k=3)
        assert net.p == 3 and net.k == 3

    def test_repr(self):
        assert "p=4" in repr(MCBNetwork(p=4, k=2))


class TestBroadcastSemantics:
    def test_message_delivered_to_reader(self):
        net = MCBNetwork(p=2, k=1)
        res = net.run({1: _writer(1, 42), 2: _reader(1)})
        assert res[2] == Message("t", 42)

    def test_message_delivered_to_many_readers(self):
        net = MCBNetwork(p=4, k=1)
        res = net.run({1: _writer(1, 7), 2: _reader(1), 3: _reader(1), 4: _reader(1)})
        assert res[2] == res[3] == res[4] == Message("t", 7)

    def test_empty_channel_reads_EMPTY(self):
        net = MCBNetwork(p=2, k=2)
        res = net.run({1: _writer(1, 1), 2: _reader(2)})
        assert res[2] is EMPTY

    def test_message_only_visible_same_cycle(self):
        # A reader one cycle late sees an empty channel (memoryless).
        def late_reader(ctx):
            yield CycleOp()  # idle one cycle
            got = yield CycleOp(read=1)
            return got

        net = MCBNetwork(p=2, k=1)
        res = net.run({1: _writer(1, 5), 2: late_reader})
        assert res[2] is EMPTY

    def test_writer_may_read_own_channel(self):
        def self_reader(ctx):
            got = yield CycleOp(write=1, payload=Message("t", 9), read=1)
            return got

        net = MCBNetwork(p=1, k=1)
        res = net.run({1: self_reader})
        assert res[1] == Message("t", 9)

    def test_write_and_read_different_channels_same_cycle(self):
        def both(ctx):
            got = yield CycleOp(write=2, payload=Message("t", 1), read=1)
            return got

        net = MCBNetwork(p=2, k=2)
        res = net.run({1: _writer(1, 77), 2: both})
        assert res[2] == Message("t", 77)

    def test_parallel_channels_are_independent(self):
        net = MCBNetwork(p=4, k=2)
        res = net.run({
            1: _writer(1, 10),
            2: _writer(2, 20),
            3: _reader(1),
            4: _reader(2),
        })
        assert res[3].fields == (10,)
        assert res[4].fields == (20,)


class TestCollisions:
    def test_two_writers_collide(self):
        net = MCBNetwork(p=2, k=1)
        with pytest.raises(CollisionError) as exc:
            net.run({1: _writer(1, 1), 2: _writer(1, 2)})
        assert exc.value.channel == 1
        assert exc.value.writers == [1, 2]

    def test_three_writers_collide(self):
        net = MCBNetwork(p=3, k=1)
        with pytest.raises(CollisionError):
            net.run({1: _writer(1, 1), 2: _writer(1, 2), 3: _writer(1, 3)})

    def test_writes_to_distinct_channels_do_not_collide(self):
        net = MCBNetwork(p=2, k=2)
        net.run({1: _writer(1, 1), 2: _writer(2, 2)})
        assert net.stats.messages == 2

    def test_collision_in_later_cycle(self):
        def delayed_writer(ctx):
            yield CycleOp()
            yield CycleOp(write=1, payload=Message("t"))

        net = MCBNetwork(p=2, k=1)
        with pytest.raises(CollisionError) as exc:
            net.run({1: delayed_writer, 2: delayed_writer})
        assert exc.value.cycle == 1


class TestProtocolValidation:
    def test_invalid_write_channel(self):
        net = MCBNetwork(p=2, k=1)
        with pytest.raises(ProtocolError):
            net.run({1: _writer(2, 1)})

    def test_invalid_read_channel(self):
        net = MCBNetwork(p=2, k=1)
        with pytest.raises(ProtocolError):
            net.run({1: _reader(5)})

    def test_payload_without_write(self):
        def bad(ctx):
            yield CycleOp(payload=Message("t", 1))

        net = MCBNetwork(p=1, k=1)
        with pytest.raises(ProtocolError):
            net.run({1: bad})

    def test_write_without_payload(self):
        def bad(ctx):
            yield CycleOp(write=1)

        net = MCBNetwork(p=1, k=1)
        with pytest.raises(ProtocolError):
            net.run({1: bad})

    def test_yielding_garbage(self):
        def bad(ctx):
            yield "not an op"

        net = MCBNetwork(p=1, k=1)
        with pytest.raises(ProtocolError):
            net.run({1: bad})

    def test_oversized_message(self):
        net = MCBNetwork(p=1, k=1, max_message_fields=2)
        with pytest.raises(MessageSizeError):
            net.run({1: _writer(1, 1, 2, 3)})

    def test_negative_sleep(self):
        def bad(ctx):
            yield Sleep(-1)

        net = MCBNetwork(p=1, k=1)
        with pytest.raises(ProtocolError):
            net.run({1: bad})

    def test_unknown_pid_rejected(self):
        net = MCBNetwork(p=2, k=1)
        with pytest.raises(ConfigurationError):
            net.run({5: _writer(1, 1)})

    def test_sequence_form_requires_p_programs(self):
        net = MCBNetwork(p=3, k=1)
        with pytest.raises(ConfigurationError):
            net.run([_writer(1, 1)])

    def test_max_cycles_guard(self):
        def forever(ctx):
            while True:
                yield CycleOp()

        net = MCBNetwork(p=1, k=1)
        with pytest.raises(ProtocolError):
            net.run({1: forever}, max_cycles=10)


class TestAccounting:
    def test_cycle_count(self):
        def three(ctx):
            yield CycleOp()
            yield CycleOp()
            yield CycleOp()

        net = MCBNetwork(p=1, k=1)
        net.run({1: three})
        assert net.stats.cycles == 3

    def test_empty_program_costs_nothing(self):
        def nothing(ctx):
            return 42
            yield  # pragma: no cover

        net = MCBNetwork(p=1, k=1)
        res = net.run({1: nothing})
        assert res[1] == 42
        assert net.stats.cycles == 0
        assert net.stats.messages == 0

    def test_message_and_bit_count(self):
        net = MCBNetwork(p=2, k=1)
        net.run({1: _writer(1, 255), 2: _reader(1)})
        assert net.stats.messages == 1
        assert net.stats.bits > 8

    def test_sleep_counts_cycles(self):
        def sleepy(ctx):
            yield Sleep(10)

        net = MCBNetwork(p=1, k=1)
        net.run({1: sleepy})
        assert net.stats.cycles == 10

    def test_sleep_zero_costs_one_cycle(self):
        # Minimum-one-cycle rule: the yield itself consumes a cycle, so
        # Sleep(0) === Sleep(1) === one empty CycleOp.
        def zero(ctx):
            yield Sleep(0)

        def one(ctx):
            yield Sleep(1)

        for prog in (zero, one):
            net = MCBNetwork(p=1, k=1)
            net.run({1: prog})
            assert net.stats.cycles == 1

    def test_sleep_zero_keeps_alignment_with_peers(self):
        # A Sleep(0) processor wakes on the *next* cycle, like Sleep(1):
        # it must miss a cycle-0 broadcast and catch a cycle-1 one.
        def zero_then_read(ctx):
            yield Sleep(0)
            got = yield CycleOp(read=1)
            return got

        def write_twice(ctx):
            yield CycleOp(write=1, payload=Message("t", 0))
            yield CycleOp(write=1, payload=Message("t", 1))

        net = MCBNetwork(p=2, k=1)
        res = net.run({1: write_twice, 2: zero_then_read})
        assert res[2] == Message("t", 1)

    def test_sleep_preserves_alignment(self):
        # A sleeper waking at cycle 3 must catch a cycle-3 broadcast.
        def late_writer(ctx):
            yield Sleep(3)
            yield CycleOp(write=1, payload=Message("t", 99))

        def waking_reader(ctx):
            yield Sleep(3)
            got = yield CycleOp(read=1)
            return got

        net = MCBNetwork(p=2, k=1)
        res = net.run({1: late_writer, 2: waking_reader})
        assert res[2] == Message("t", 99)
        # 3 slept cycles + the broadcast cycle
        assert net.stats.cycles == 4

    def test_phase_accumulation(self):
        net = MCBNetwork(p=2, k=1)
        net.run({1: _writer(1, 1), 2: _reader(1)}, phase="a")
        net.run({1: _writer(1, 2), 2: _reader(1)}, phase="b")
        net.run({1: _writer(1, 3), 2: _reader(1)}, phase="a")
        assert net.stats.phase("a").messages == 2
        assert net.stats.phase("b").messages == 1
        assert net.stats.messages == 3
        assert net.stats.phase_names() == ["a", "b"]

    def test_reset_stats(self):
        net = MCBNetwork(p=2, k=1)
        net.run({1: _writer(1, 1), 2: _reader(1)})
        net.reset_stats()
        assert net.stats.messages == 0
        assert net.stats.cycles == 0

    def test_channel_utilization(self):
        # One message in one cycle on a k=2 network fills exactly half
        # the channel-cycles — the divisor is the network's true k, not
        # the highest channel index that happened to carry traffic.
        net = MCBNetwork(p=2, k=2)
        net.run({1: _writer(1, 1)})
        ph = net.stats.phases[0]
        assert ph.channel_writes == {1: 1}
        assert ph.k == 2
        assert ph.channel_utilization() == 0.5

    def test_channel_utilization_idle_high_channels(self):
        # Regression: k is stamped at run() time, so utilization is not
        # overstated when only low-index channels carry traffic.
        net = MCBNetwork(p=4, k=4)
        net.run({1: _writer(1, 1), 2: _reader(1)})
        ph = net.stats.phases[0]
        assert ph.channel_utilization() == 1 / 4
        # Merged view preserves the true k too.
        assert net.stats.phase(ph.name).channel_utilization() == 1 / 4

    def test_aux_memory_tracking(self):
        def alloc(ctx):
            ctx.aux_acquire(100)
            yield CycleOp()
            ctx.aux_release(60)
            ctx.aux_acquire(10)
            yield CycleOp()

        net = MCBNetwork(p=1, k=1)
        net.run({1: alloc})
        assert net.stats.max_aux_peak == 100

    def test_per_processor_data(self):
        def prog(ctx):
            return ctx.data * 2
            yield  # pragma: no cover

        net = MCBNetwork(p=2, k=1)
        res = net.run({1: prog, 2: prog}, data={1: 10, 2: 20})
        assert res == {1: 20, 2: 40}

    def test_trace_recording(self):
        net = MCBNetwork(p=2, k=1)
        log = EventLog()
        net.attach_observer(log)
        net.run({1: _writer(1, 5, kind="hello"), 2: _reader(1)})
        (ev,) = [ev for ev in log.events if ev.kind == "message"]
        assert ev.writer == 1 and ev.readers == (2,) and ev.msg_kind == "hello"
        assert ev.fields == (5,)


class TestStagger:
    def test_programs_of_different_lengths(self):
        def short(ctx):
            yield CycleOp()
            return "short"

        def long(ctx):
            for _ in range(5):
                yield CycleOp()
            return "long"

        net = MCBNetwork(p=2, k=1)
        res = net.run({1: short, 2: long})
        assert res == {1: "short", 2: "long"}
        assert net.stats.cycles == 5

    def test_missing_processors_idle(self):
        net = MCBNetwork(p=8, k=2)
        res = net.run({1: _writer(1, 1), 2: _reader(1)})
        assert set(res) == {1, 2}
