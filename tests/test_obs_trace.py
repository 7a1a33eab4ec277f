"""Tests for repro.obs.trace: timelines, Perfetto export, reconciliation.

The headline acceptance criterion lives here: a Chrome Trace Event
document exported from a sort run and a select run must reconcile its
per-phase cycle/message totals *exactly* against ``RunStats.to_dict()``
— computed purely from what a Perfetto user would see in the file.
"""

from __future__ import annotations

import json

from repro.core import Distribution
from repro.mcb import CycleOp, Listen, MCBNetwork, Message, Sleep
from repro.mcb.reference import ReferenceMCBNetwork
from repro.obs import (
    EventLog,
    TraceBuilder,
    chrome_trace_phase_totals,
    to_chrome_trace,
)
from repro.obs.trace import render_lane_summary
from repro.select import mcb_select
from repro.sort import mcb_sort


def _stats_phase_totals(net) -> dict[str, dict[str, int]]:
    """Name-merged {phase: {cycles, messages}} from RunStats.to_dict()."""
    out: dict[str, dict[str, int]] = {}
    for ph in net.stats.to_dict()["phases"]:
        tot = out.setdefault(ph["name"], {"cycles": 0, "messages": 0})
        tot["cycles"] += ph["cycles"]
        tot["messages"] += ph["messages"]
    return out


def _traced_run(p, k, drive):
    net = MCBNetwork(p=p, k=k)
    tb = TraceBuilder()
    net.attach_observer(tb)
    result = drive(net)
    net.detach_observer(tb)
    tb.finish()
    return net, tb, result


class TestReconciliation:
    def test_sort_trace_reconciles_exactly(self):
        # Acceptance: per-phase totals recomputed from the exported
        # document equal the engine's own RunStats, exactly.
        dist = Distribution.even(256, 8, seed=11)
        net, tb, _ = _traced_run(8, 2, lambda n: mcb_sort(n, dist))
        doc = to_chrome_trace(tb)
        assert chrome_trace_phase_totals(doc) == _stats_phase_totals(net)
        assert doc["otherData"]["total_cycles"] == net.stats.cycles
        assert doc["otherData"]["total_messages"] == net.stats.messages

    def test_select_trace_reconciles_exactly(self):
        dist = Distribution.uneven(200, 8, seed=3, skew=1.5)
        net, tb, _ = _traced_run(8, 2, lambda n: mcb_select(n, dist, 77))
        doc = to_chrome_trace(tb)
        assert chrome_trace_phase_totals(doc) == _stats_phase_totals(net)
        # A selection run has many stages; all of them must be present.
        assert len(tb.phases) > 4

    def test_builder_phase_totals_match_export(self):
        dist = Distribution.even(64, 4, seed=2)
        net, tb, _ = _traced_run(4, 2, lambda n: mcb_sort(n, dist))
        doc = to_chrome_trace(tb)
        assert tb.phase_totals() == chrome_trace_phase_totals(doc)


class TestPerfettoStructure:
    def test_one_lane_per_processor_and_channel(self):
        dist = Distribution.even(64, 4, seed=7)
        net, tb, _ = _traced_run(4, 2, lambda n: mcb_sort(n, dist))
        doc = to_chrome_trace(tb)
        names = {}
        for ev in doc["traceEvents"]:
            if ev.get("ph") == "M" and ev["name"] == "thread_name":
                names.setdefault(ev["pid"], set()).add(ev["args"]["name"])
        # pid 1 = processors, pid 2 = channels, pid 3 = run.
        assert names[1] == {f"P{i}" for i in range(1, 5)}
        assert names[2] == {"C1", "C2"}
        assert names[3] == {"phases", "engine"}

    def test_document_is_valid_json_with_microsecond_slices(self):
        dist = Distribution.even(64, 4, seed=7)
        net, tb, _ = _traced_run(4, 2, lambda n: mcb_sort(n, dist))
        doc = json.loads(json.dumps(to_chrome_trace(tb)))
        slices = [e for e in doc["traceEvents"] if e.get("ph") == "X"]
        assert slices
        for ev in slices:
            assert ev["dur"] >= 1
            assert ev["ts"] >= 0
        # Every message slice sits inside its phase span.
        phase_span = {
            e["name"]: (e["ts"], e["ts"] + e["dur"])
            for e in slices if e.get("cat") == "phase"
        }
        for ev in slices:
            if ev.get("cat") == "message":
                lo, hi = phase_span[ev["args"]["phase"]]
                assert lo <= ev["ts"] < hi

    def test_phase_args_carry_predictions_when_given(self):
        dist = Distribution.even(64, 4, seed=7)
        net, tb, _ = _traced_run(4, 2, lambda n: mcb_sort(n, dist))
        preds = {
            tb.phases[0].name: {"predicted_cycles": 32.0,
                                "bound_source": "Corollary 6"}
        }
        doc = to_chrome_trace(tb, predictions=preds)
        phase_ev = next(
            e for e in doc["traceEvents"] if e.get("cat") == "phase"
        )
        assert phase_ev["args"]["predicted_cycles"] == 32.0
        assert phase_ev["args"]["bound_source"] == "Corollary 6"


class TestListenSleepSpans:
    def test_spans_from_hand_written_program(self):
        # P1 sleeps 5 then writes; P2 parks until-nonempty; P3 takes a
        # bounded window.  The trace must carry one sleep span and two
        # listen spans with the right boundaries.
        def prog(ctx):
            if ctx.pid == 1:
                yield Sleep(5)
                yield CycleOp(write=1, payload=Message("m", 1))
                return None
            if ctx.pid == 2:
                off, msg = yield Listen(1, until_nonempty=True)
                return off
            heard = yield Listen(1, 7)
            return len(heard)

        net = MCBNetwork(p=3, k=1)
        tb = TraceBuilder()
        net.attach_observer(tb)
        out = net.run({1: prog, 2: prog, 3: prog}, phase="spans")
        net.detach_observer(tb)
        tb.finish()

        (pt,) = tb.phases
        assert pt.sleeps == [(1, 0, 5)]
        by_pid = {s.pid: s for s in pt.listens}
        assert set(by_pid) == {2, 3}
        # P2 parked at cycle 0; the write lands at cycle 5 and the fold
        # completes on the following cycle.
        assert by_pid[2].start == 0 and by_pid[2].window is None
        assert by_pid[2].end == 6 and by_pid[2].heard == 1
        # P3's bounded window runs its full 7 cycles.
        assert by_pid[3].start == 0 and by_pid[3].window == 7
        assert by_pid[3].end == 7 and by_pid[3].heard == 1
        assert out[2] == 5 and out[3] == 1

        # The export carries the same spans.
        doc = to_chrome_trace(tb)
        listens = [e for e in doc["traceEvents"] if e.get("cat") == "listen"]
        sleeps = [e for e in doc["traceEvents"] if e.get("cat") == "sleep"]
        assert len(listens) == 2 and len(sleeps) == 1
        assert sleeps[0]["tid"] == 1 and sleeps[0]["dur"] == 5

    def test_lane_summary_shows_listen_and_sleep(self):
        def prog(ctx):
            if ctx.pid == 1:
                yield Sleep(4)
                yield CycleOp(write=1, payload=Message("m", 1))
                return None
            off, msg = yield Listen(1, until_nonempty=True)
            return off

        net = MCBNetwork(p=2, k=1)
        tb = TraceBuilder()
        net.attach_observer(tb)
        net.run({1: prog, 2: prog}, phase="summary")
        net.detach_observer(tb)
        text = render_lane_summary(tb)
        assert "C1" in text
        assert "P1" in text and "P2" in text
        # P1 slept, P2 listened — both shares must be non-zero.
        p1 = next(ln for ln in text.splitlines() if ln.strip().startswith("P1"))
        p2 = next(ln for ln in text.splitlines() if ln.strip().startswith("P2"))
        assert "sleep   0.0%" not in p1
        assert "listen   0.0%" not in p2


class TestEngineParity:
    def test_fast_and_reference_emit_identical_streams(self):
        # Listen-heavy program: parked listeners, staggered sleeps, a
        # late writer.  The fast engine's park/wake bookkeeping and the
        # reference's per-cycle desugaring must produce the *same
        # events at the same cycles*.
        def prog(ctx):
            if ctx.pid == 1:
                yield Sleep(6)
                yield CycleOp(write=1, payload=Message("wake", 42))
                return None
            yield Sleep(ctx.pid)
            off, msg = yield Listen(1, until_nonempty=True)
            return (off, msg.fields)

        def capture(net):
            log = EventLog()
            net.attach_observer(log)
            out = net.run({pid: prog for pid in range(1, 5)}, phase="parity")
            return out, [ev.to_dict() for ev in log.events]

        out_fast, ev_fast = capture(MCBNetwork(p=4, k=2))
        out_ref, ev_ref = capture(ReferenceMCBNetwork(p=4, k=2))
        assert out_fast == out_ref
        assert ev_fast == ev_ref
        kinds = {e["kind"] for e in ev_fast}
        assert {"sleep", "listen_park", "listen_wake"} <= kinds

    def test_sort_trace_identical_across_engines(self):
        dist = Distribution.even(128, 8, seed=9)

        def trace_of(net):
            tb = TraceBuilder()
            net.attach_observer(tb)
            mcb_sort(net, dist)
            net.detach_observer(tb)
            return to_chrome_trace(tb)

        doc_fast = trace_of(MCBNetwork(p=8, k=4))
        doc_ref = trace_of(ReferenceMCBNetwork(p=8, k=4))
        assert doc_fast["traceEvents"] == doc_ref["traceEvents"]


class TestTimelineCli:
    def test_cli_writes_loadable_trace(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "run.trace.json"
        rc = main(
            ["timeline", "sort", "--n", "64", "--p", "4", "--k", "2",
             "--out", str(out)]
        )
        assert rc == 0
        printed = capsys.readouterr().out
        assert "reconciliation vs RunStats: OK (exact)" in printed
        assert "channel occupancy" in printed
        doc = json.loads(out.read_text())
        assert doc["traceEvents"]
        # Theory overlay stamped into the phase span args.
        phase_ev = next(
            e for e in doc["traceEvents"] if e.get("cat") == "phase"
        )
        assert "predicted_cycles" in phase_ev["args"]

    def test_cli_select_skewed(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "sel.trace.json"
        rc = main(
            ["timeline", "select", "--n", "100", "--p", "4", "--k", "2",
             "--skew", "1.0", "--rank", "40", "--out", str(out)]
        )
        assert rc == 0
        assert "OK (exact)" in capsys.readouterr().out
        doc = json.loads(out.read_text())
        assert doc["otherData"]["config"]["engine"] == "fast"
