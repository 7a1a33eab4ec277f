"""Tests for the obs sinks."""

import csv
import io
import json

import pytest

from repro.obs import (
    CsvSink,
    JsonlSink,
    MemorySink,
    MessageBroadcast,
    PhaseStarted,
)


def _msg(cycle=0, channel=1):
    return MessageBroadcast(
        phase="t", cycle=cycle, channel=channel, writer=1, readers=(2,),
        msg_kind="v", fields=(cycle,), bits=8,
    )


class TestMemorySink:
    def test_unbounded_keeps_everything(self):
        sink = MemorySink()
        for i in range(100):
            sink.emit(_msg(i))
        assert len(sink) == 100
        assert [e.cycle for e in sink.events] == list(range(100))

    def test_clear(self):
        sink = MemorySink()
        sink.emit(_msg())
        sink.clear()
        assert len(sink) == 0


class TestJsonlSink:
    def test_writes_one_json_object_per_line(self, tmp_path):
        path = tmp_path / "out" / "events.jsonl"
        with JsonlSink(path) as sink:
            sink.emit(PhaseStarted(phase="a", p=2, k=1))
            sink.emit(_msg(3))
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        first, second = (json.loads(ln) for ln in lines)
        assert first["kind"] == "phase_start"
        assert second["cycle"] == 3

    def test_accepts_plain_dicts(self, tmp_path):
        path = tmp_path / "r.json"
        with JsonlSink(path) as sink:
            sink.emit({"kind": "bench", "cycles": 10})
        assert json.loads(path.read_text())["cycles"] == 10

    def test_borrowed_file_not_closed(self):
        buf = io.StringIO()
        sink = JsonlSink(buf)
        sink.emit({"a": 1})
        sink.close()
        assert not buf.closed
        assert json.loads(buf.getvalue())["a"] == 1

    def test_rejects_garbage(self):
        sink = JsonlSink(io.StringIO())
        with pytest.raises(TypeError):
            sink.emit(object())


class TestCsvSink:
    def test_header_and_rows(self, tmp_path):
        path = tmp_path / "ev.csv"
        with CsvSink(path) as sink:
            sink.emit(_msg(0))
            sink.emit(PhaseStarted(phase="a", p=2, k=1))
        rows = list(csv.DictReader(path.open()))
        assert rows[0]["kind"] == "message"
        assert rows[0]["readers"] == "2"
        # fields outside the column set are preserved in `extra`
        assert "fields" in json.loads(rows[0]["extra"])
        assert rows[1]["kind"] == "phase_start"
