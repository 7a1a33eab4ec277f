"""Tests for the obs event types."""

import json

import pytest

from repro.obs import (
    CollisionDetected,
    EVENT_TYPES,
    FastForward,
    JobAborted,
    JobFailed,
    JobFinished,
    JobQueued,
    JobRejected,
    JobStarted,
    ListenParked,
    ListenWoken,
    MessageBroadcast,
    PhaseEnded,
    PhaseStarted,
    ProcessorSlept,
    from_dict,
)


def _sample_events():
    return [
        PhaseStarted(phase="p1", p=4, k=2),
        MessageBroadcast(
            phase="p1", cycle=0, channel=1, writer=1, readers=(2, 3),
            msg_kind="v", fields=(42,), bits=10,
        ),
        CollisionDetected(
            phase="p1", cycle=1, channel=2, writers=(1, 4),
            resolution="garbled",
        ),
        FastForward(phase="p1", from_cycle=2, to_cycle=7),
        ProcessorSlept(phase="p1", cycle=2, pid=3, until_cycle=7),
        ListenParked(phase="p1", cycle=3, pid=2, channel=1, window=4),
        ListenParked(phase="p1", cycle=3, pid=4, channel=2, window=None),
        ListenWoken(phase="p1", cycle=6, pid=2, channel=1, heard=2),
        PhaseEnded(
            phase="p1", p=4, k=2, cycles=8, messages=1, bits=10,
            channel_writes={1: 1}, max_aux_peak=3, fast_forward_cycles=5,
            collisions=1, utilization=1 / 16,
        ),
        JobQueued(
            job_id="job-1", algorithm="sort", p=4, k=4, n=64, seed=1,
            engine="vector", batch=2, queue_depth=1,
        ),
        JobStarted(job_id="job-1", worker=0, queue_wait_s=0.002),
        JobFinished(
            job_id="job-1", cache_hits=1, cache_misses=1, wall_s=0.1,
            cycles=96, messages=384,
        ),
        JobFailed(job_id="job-2", error="CollisionError: ..."),
        JobRejected(job_id="job-3", queue_depth=8, retry_after_s=1.0),
        JobAborted(job_id="job-4", reason="shutdown"),
    ]


class TestEventSchema:
    def test_kinds_are_stable(self):
        assert set(EVENT_TYPES) == {
            "phase_start", "phase_end", "message", "collision", "fast_forward",
            "sleep", "listen_park", "listen_wake",
            "job_queued", "job_started", "job_finished", "job_failed",
            "job_rejected", "job_aborted",
        }

    def test_to_dict_carries_kind_and_fields(self):
        ev = _sample_events()[1]
        d = ev.to_dict()
        assert d["kind"] == "message"
        assert d["channel"] == 1
        assert d["readers"] == (2, 3)
        assert d["msg_kind"] == "v"

    def test_every_event_is_json_serializable(self):
        for ev in _sample_events():
            json.dumps(ev.to_dict())

    def test_json_round_trip(self):
        for ev in _sample_events():
            wire = json.loads(json.dumps(ev.to_dict()))
            back = from_dict(wire)
            assert type(back) is type(ev)
            assert back.to_dict() == ev.to_dict()

    def test_from_dict_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            from_dict({"kind": "martian"})

    def test_from_dict_rejects_missing_field(self):
        with pytest.raises(ValueError):
            from_dict({"kind": "phase_start", "phase": "x", "p": 1})

    def test_fast_forward_skipped(self):
        assert FastForward(phase="x", from_cycle=3, to_cycle=9).skipped == 6
