"""Tests for the profiler report and the ``repro profile`` CLI."""

import json

import pytest

from repro import Distribution, MCBNetwork, mcb_select, mcb_sort
from repro.cli import main
from repro.mcb.reference import ReferenceMCBNetwork
from repro.obs import Profiler


class TestProfiler:
    def test_totals_match_run_stats_exactly(self):
        net = MCBNetwork(p=8, k=2)
        dist = Distribution.even(128, 8, seed=5)
        with Profiler(net) as prof:
            mcb_sort(net, dist)
        report = prof.report()
        assert report.totals["cycles"] == net.stats.cycles
        assert report.totals["messages"] == net.stats.messages
        assert report.totals["bits"] == net.stats.bits
        assert sum(ph.cycles for ph in report.phases) == net.stats.cycles
        assert sum(ph.messages for ph in report.phases) == net.stats.messages

    def test_select_profile_has_filtering_phases(self):
        net = MCBNetwork(p=8, k=2)
        dist = Distribution.even(128, 8, seed=5)
        with Profiler(net) as prof:
            mcb_select(net, dist, 64)
        report = prof.report()
        assert len(report.phases) > 1
        names = [ph.name for ph in report.phases]
        assert any("filter" in n for n in names)

    def test_hottest_channel_and_utilization(self):
        net = MCBNetwork(p=4, k=2)
        dist = Distribution.even(32, 4, seed=1)
        with Profiler(net) as prof:
            mcb_sort(net, dist)
        report = prof.report()
        for ph in report.phases:
            if ph.messages:
                assert ph.hottest_channel in ph.channel_writes
                assert (
                    ph.hottest_channel_writes
                    == max(ph.channel_writes.values())
                )
                assert 0 < ph.utilization <= 1

    def test_timeline_covers_run(self):
        net = MCBNetwork(p=8, k=2)
        dist = Distribution.even(128, 8, seed=5)
        with Profiler(net, timeline_buckets=10) as prof:
            mcb_sort(net, dist)
        tl = prof.report().timeline
        assert tl["total_cycles"] == net.stats.cycles
        assert len(tl["utilization"]) == 10
        assert all(u >= 0 for u in tl["utilization"])
        # Exact, not a lower bound: the buckets hold every message; the
        # only slack is the rounding of utilization and bucket width.
        k = net.k
        bucketed = sum(u * tl["bucket_cycles"] * k for u in tl["utilization"])
        assert abs(bucketed - net.stats.messages) < 0.5

    def test_detaches_on_exit(self):
        net = MCBNetwork(p=2, k=1)
        with Profiler(net):
            assert len(net.observers) == 2
        assert net.observers == ()

    def test_report_is_json_serializable(self):
        net = MCBNetwork(p=4, k=2)
        with Profiler(net, config={"algo": "sort"}) as prof:
            mcb_sort(net, Distribution.even(32, 4, seed=2))
        json.dumps(prof.report().to_dict())

    def test_render_contains_phases_and_totals(self):
        net = MCBNetwork(p=4, k=2)
        with Profiler(net) as prof:
            mcb_sort(net, Distribution.even(32, 4, seed=2))
        text = prof.report().render()
        assert "TOTAL" in text
        assert "utilization timeline" in text


class TestProfileCli:
    def test_json_totals_match_rerun_stats(self, capsys):
        # Acceptance: the CLI's JSON cost profile equals an identical
        # uninstrumented run's RunStats exactly.
        rc = main(
            ["profile", "sort", "--n", "256", "--p", "8", "--k", "2",
             "--json"]
        )
        assert rc == 0
        report = json.loads(capsys.readouterr().out)

        net = MCBNetwork(p=8, k=2)
        mcb_sort(net, Distribution.even(256, 8, seed=0))
        assert report["totals"]["cycles"] == net.stats.cycles
        assert report["totals"]["messages"] == net.stats.messages
        assert report["totals"]["bits"] == net.stats.bits
        assert report["config"]["verified"] is True
        phase_cycles = sum(p["cycles"] for p in report["phases"])
        assert phase_cycles == net.stats.cycles

    def test_select_json(self, capsys):
        rc = main(
            ["profile", "select", "--n", "128", "--p", "8", "--k", "2",
             "--rank", "64", "--json"]
        )
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["config"]["rank"] == 64
        assert "selected" in report["config"]
        assert report["totals"]["cycles"] > 0

    def test_table_output(self, capsys):
        rc = main(["profile", "sort", "--n", "64", "--p", "4", "--k", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "TOTAL" in out
        assert "algorithm=sort" in out

    def test_event_export(self, tmp_path, capsys):
        events = tmp_path / "ev.jsonl"
        csv_path = tmp_path / "ev.csv"
        rc = main(
            ["profile", "sort", "--n", "64", "--p", "4", "--k", "2",
             "--events", str(events), "--csv", str(csv_path)]
        )
        assert rc == 0
        lines = events.read_text().splitlines()
        kinds = {json.loads(ln)["kind"] for ln in lines}
        assert {"phase_start", "message", "phase_end"} <= kinds
        assert csv_path.read_text().count("\n") == len(lines) + 1  # header

    def test_bad_rank_rejected(self):
        with pytest.raises(SystemExit):
            main(["profile", "select", "--n", "64", "--p", "4", "--k", "2",
                  "--rank", "1000"])

    def test_json_has_theory_overlay_fields(self, capsys):
        # Acceptance: `repro profile sort --json` includes predicted
        # cycles/messages and measured/predicted ratios per phase,
        # sourced from repro.bounds.formulas.
        rc = main(["profile", "sort", "--n", "128", "--p", "8", "--k", "2",
                   "--json"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        for ph in report["phases"]:
            assert ph["predicted_cycles"] > 0
            assert ph["predicted_messages"] > 0
            assert ph["cycles_ratio"] is not None
            assert ph["messages_ratio"] is not None
            assert ph["bound_source"]
            assert ph["bound_scope"] in ("phase", "run")
        t = report["totals"]
        assert t["predicted_cycles"] > 0
        assert t["bound_source"] == "Corollary 6"
        assert t["cycles_ratio"] == pytest.approx(
            t["cycles"] / t["predicted_cycles"], rel=1e-3
        )

    def test_select_overlay_uses_per_phase_forms(self, capsys):
        rc = main(["profile", "select", "--n", "128", "--p", "8", "--k", "2",
                   "--rank", "64", "--json"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        by_scope = {}
        for ph in report["phases"]:
            by_scope.setdefault(ph["bound_scope"], []).append(ph["name"])
        # Partial-sums stages get their own §7.1 closed form.
        assert any(
            "prefix" in n or "count" in n for n in by_scope.get("phase", [])
        )
        assert report["totals"]["bound_source"] == "Corollary 7"

    def test_engine_reference_matches_fast(self, capsys):
        # A profiled run is observed, so the fast engine runs it on the
        # reference interpreter's loop: the CLI has no separate
        # `--engine reference`, and the library reports are identical.
        with pytest.raises(SystemExit) as exc:
            main(["profile", "sort", "--n", "128", "--p", "8", "--k", "2",
                  "--engine", "reference", "--json"])
        assert exc.value.code == 2
        capsys.readouterr()

        dist = Distribution.even(128, 8, seed=0)
        reports = []
        for net in (MCBNetwork(p=8, k=2), ReferenceMCBNetwork(p=8, k=2)):
            with Profiler(net) as prof:
                mcb_sort(net, dist)
            reports.append(prof.report().to_dict())
        assert reports[0]["totals"] == reports[1]["totals"]
        assert reports[0]["phases"] == reports[1]["phases"]

    def test_engine_vector_sort(self, capsys):
        rc = main(["profile", "sort", "--n", "48", "--p", "4", "--k", "4",
                   "--engine", "vector", "--json"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["config"]["engine"] == "vector"
        assert report["config"]["verified"] is True
        assert report["totals"]["cycles"] > 0

    def test_engine_vector_select(self, capsys):
        rc = main(["profile", "select", "--n", "64", "--p", "4", "--k", "2",
                   "--engine", "vector", "--json"])
        assert rc == 0
        vec_report = json.loads(capsys.readouterr().out)
        assert vec_report["config"]["engine"] == "vector"
        rc = main(["profile", "select", "--n", "64", "--p", "4", "--k", "2",
                   "--json"])
        assert rc == 0
        gen_report = json.loads(capsys.readouterr().out)
        # Profiling observes the network, so the vector engine steps
        # the generator's control plane: identical costs and answer.
        assert vec_report["totals"] == gen_report["totals"]
        assert vec_report["config"]["selected"] == \
            gen_report["config"]["selected"]

    def test_prom_export(self, tmp_path, capsys):
        prom = tmp_path / "run.prom"
        rc = main(["profile", "sort", "--n", "64", "--p", "4", "--k", "2",
                   "--prom", str(prom)])
        assert rc == 0
        text = prom.read_text()
        assert "# TYPE mcb_messages_total counter" in text
        assert "# TYPE mcb_phase_cycles histogram" in text
        assert 'le="+Inf"' in text
        # The counter value agrees with an uninstrumented rerun.
        net = MCBNetwork(p=4, k=2)
        mcb_sort(net, Distribution.even(64, 4, seed=0))
        line = next(
            ln for ln in text.splitlines()
            if ln.startswith("mcb_messages_total{")
        )
        assert line.endswith(str(net.stats.messages))


class TestObserverErrorSurfacing:
    class _Boom:
        """Observer whose on_message always raises."""

        def on_phase_start(self, ev): pass
        def on_phase_end(self, ev): pass
        def on_collision(self, ev): pass
        def on_fast_forward(self, ev): pass
        def on_processor_slept(self, ev): pass
        def on_listen_parked(self, ev): pass
        def on_listen_woken(self, ev): pass

        def on_message(self, ev):
            raise RuntimeError("boom")

    def test_report_surfaces_dispatcher_errors(self):
        net = MCBNetwork(p=4, k=2)
        with Profiler(net) as prof:
            net.attach_observer(self._Boom())
            mcb_sort(net, Distribution.even(32, 4, seed=2))
            report = prof.report()
        assert report.observer_errors.get("_Boom", 0) >= 1
        assert any("_Boom" in w for w in report.warnings())
        text = report.render()
        assert "WARNING: observer failures detected" in text
        assert "_Boom" in text

    def test_errors_survive_detach(self):
        # detach() rebuilds the dispatcher; the tally must be captured
        # before that and reported after.
        net = MCBNetwork(p=4, k=2)
        prof = Profiler(net)
        with prof:
            net.attach_observer(self._Boom())
            mcb_sort(net, Distribution.even(32, 4, seed=2))
        report = prof.report()  # after detach
        assert report.observer_errors.get("_Boom", 0) >= 1
        assert report.to_dict()["observer_errors"]["_Boom"] >= 1

    def test_clean_run_has_no_warnings(self):
        net = MCBNetwork(p=4, k=2)
        with Profiler(net) as prof:
            mcb_sort(net, Distribution.even(32, 4, seed=2))
        report = prof.report()
        assert report.observer_errors == {}
        assert report.warnings() == []
        assert "WARNING" not in report.render()
