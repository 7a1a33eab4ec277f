"""Additional coverage: stats edge cases, sleeps,
error stringification, and small engine corners."""

import pytest

from repro.mcb import (
    CollisionError,
    CycleOp,
    EMPTY,
    MCBNetwork,
    Message,
    Sleep,
)
from repro.mcb.trace import PhaseStats, RunStats


class TestStatsEdges:
    def test_empty_runstats(self):
        st = RunStats()
        assert st.cycles == 0 and st.messages == 0 and st.bits == 0
        assert st.max_aux_peak == 0
        assert st.phase_names() == []
        assert "TOTAL" in st.breakdown()

    def test_phase_stats_utilization_zero_cycles(self):
        ph = PhaseStats(name="x")
        assert ph.channel_utilization() == 0.0

    def test_merged_phase_aux_peaks_take_max(self):
        st = RunStats()
        a = PhaseStats(name="s", aux_peak={1: 5})
        b = PhaseStats(name="s", aux_peak={1: 9, 2: 1})
        st.add(a)
        st.add(b)
        merged = st.phase("s")
        assert merged.aux_peak == {1: 9, 2: 1}

    def test_to_dict_groups_phases_by_first_seen_name(self):
        st = RunStats()
        st.add(PhaseStats(name="b", cycles=2, messages=1, bits=9, k=2,
                          channel_writes={2: 1}, aux_peak={1: 3}))
        st.add(PhaseStats(name="a", cycles=1, k=1, extra={"x": 1}))
        st.add(PhaseStats(name="b", cycles=5, messages=4, bits=30, k=4,
                          channel_writes={1: 3, 2: 1}, aux_peak={1: 2, 2: 7},
                          fast_forward_cycles=2, collisions=1,
                          extra={"y": 2}))
        phases = st.to_dict()["phases"]
        assert [ph["name"] for ph in phases] == st.phase_names() == ["b", "a"]
        assert phases == [st.phase(name).to_dict() for name in ("b", "a")]
        assert phases[0] == {
            "name": "b", "cycles": 7, "messages": 5, "bits": 39, "k": 4,
            "channel_writes": {1: 3, 2: 2}, "max_aux_peak": 7,
            "fast_forward_cycles": 2, "collisions": 1,
            "utilization": 5 / (7 * 4), "extra": {"y": 2},
        }
        rows = st.breakdown().splitlines()[1:3]
        assert [row.split() for row in rows] == [
            ["b", "7", "5", "39"], ["a", "1", "0", "0"]
        ]


class TestErrorMessages:
    def test_collision_error_fields(self):
        err = CollisionError(5, 2, [3, 1])
        assert err.cycle == 5 and err.channel == 2
        assert err.writers == [1, 3]
        assert "C2" in str(err) and "cycle 5" in str(err)


class TestEngineCorners:
    def test_sleep_zero_acts_like_one_idle_cycle(self):
        def prog(ctx):
            yield Sleep(0)

        net = MCBNetwork(p=1, k=1)
        net.run({1: prog})
        assert net.stats.cycles == 1

    def test_long_sleep_fast_forward_is_cheap_but_counted(self):
        def prog(ctx):
            yield Sleep(100_000)

        net = MCBNetwork(p=1, k=1)
        net.run({1: prog})
        assert net.stats.cycles == 100_000

    def test_interleaved_sleepers_and_actors(self):
        log = []

        def actor(ctx):
            for i in range(6):
                yield CycleOp(write=1, payload=Message("t", i))

        def sampler(ctx):
            got = yield CycleOp(read=1)
            log.append(got.fields[0])
            yield Sleep(3)
            got = yield CycleOp(read=1)
            log.append(got.fields[0])

        net = MCBNetwork(p=2, k=1)
        net.run({1: actor, 2: sampler})
        assert log == [0, 4]

    def test_reader_of_finished_writer_sees_empty(self):
        def short(ctx):
            yield CycleOp(write=1, payload=Message("t", 1))

        def long(ctx):
            a = yield CycleOp(read=1)
            b = yield CycleOp(read=1)
            return (a, b)

        net = MCBNetwork(p=2, k=1)
        res = net.run({1: short, 2: long})
        assert res[2][0] == Message("t", 1)
        assert res[2][1] is EMPTY

    def test_many_phases_accumulate_in_order(self):
        def noop(ctx):
            yield CycleOp()

        net = MCBNetwork(p=1, k=1)
        for name in ("a", "b", "a", "c"):
            net.run({1: noop}, phase=name)
        assert net.stats.phase_names() == ["a", "b", "c"]
        assert net.stats.cycles == 4

    def test_generator_exception_propagates(self):
        def bad(ctx):
            yield CycleOp()
            raise RuntimeError("algorithm bug")

        net = MCBNetwork(p=1, k=1)
        with pytest.raises(RuntimeError, match="algorithm bug"):
            net.run({1: bad})
