"""Tests for the debug/observability helpers and the CLI."""

import pytest

from repro.cli import main
from repro.core import Distribution
from repro.mcb import (
    MCBNetwork,
    busiest_processors,
    channel_report,
    diff_runs,
    render_gantt,
)
from repro.obs import EventLog
from repro.sort import mcb_sort


@pytest.fixture
def traced_run():
    net = MCBNetwork(p=8, k=4)
    net.log = EventLog()
    net.attach_observer(net.log)
    d = Distribution.even(256, 8, seed=1)
    mcb_sort(net, d, phase="sort")
    return net


class TestGantt:
    def test_renders_all_channels(self, traced_run):
        art = render_gantt(traced_run.log.events, traced_run.k)
        lines = art.splitlines()
        assert lines[0].startswith("C1 |")
        assert lines[3].startswith("C4 |")
        assert "#" in art

    def test_width_respected(self, traced_run):
        art = render_gantt(traced_run.log.events, traced_run.k, width=40)
        row = art.splitlines()[0]
        assert len(row) <= 48

    def test_no_events(self):
        assert "no events" in render_gantt([], 2)

    def test_busiest_processors(self, traced_run):
        top = busiest_processors(traced_run.log.events, top=3)
        assert len(top) == 3
        assert top[0][1] >= top[1][1] >= top[2][1]


class TestChannelReport:
    def test_report_contains_every_channel(self, traced_run):
        rep = channel_report(traced_run.stats, traced_run.k)
        for ch in range(1, 5):
            assert f"C{ch}" in rep
        assert "balance" in rep

    def test_columnsort_balances_channels(self, traced_run):
        # In the p=k regime every processor writes its own channel the
        # same number of times; with virtual columns the balance is also
        # tight.  Check the shares are within 2x of each other.
        merged = {}
        for phase in traced_run.stats.phases:
            for ch, w in phase.channel_writes.items():
                merged[ch] = merged.get(ch, 0) + w
        assert max(merged.values()) <= 2 * min(merged.values())

    def test_phase_report(self, traced_run):
        rep = channel_report(traced_run.stats.phases[0], traced_run.k)
        assert "writes" in rep


class TestDiffRuns:
    def test_compares_phases(self):
        d = Distribution.even(128, 8, seed=2)
        net_a = MCBNetwork(p=8, k=4)
        mcb_sort(net_a, d, strategy="virtual", phase="sort")
        net_b = MCBNetwork(p=8, k=4)
        mcb_sort(net_b, d, strategy="collect", phase="sort")
        out = diff_runs(net_a.stats, net_b.stats, label_a="virt", label_b="coll")
        assert "TOTAL" in out and "sort" in out
        assert "virt cyc" in out


class TestCli:
    def test_sort_command(self, capsys):
        assert main(["sort", "--n", "128", "--p", "8", "--k", "2"]) == 0
        out = capsys.readouterr().out
        assert "sorted n=128" in out and "OK" in out

    def test_sort_uneven(self, capsys):
        assert main(["sort", "--n", "100", "--p", "8", "--k", "2",
                     "--skew", "2.0"]) == 0
        assert "OK" in capsys.readouterr().out

    def test_sort_bad_divisibility(self):
        with pytest.raises(SystemExit):
            main(["sort", "--n", "100", "--p", "8", "--k", "2"])

    def test_select_command(self, capsys):
        assert main(["select", "--n", "128", "--p", "8", "--k", "2",
                     "--rank", "64"]) == 0
        assert "rank 64" in capsys.readouterr().out

    def test_select_bad_rank(self):
        with pytest.raises(SystemExit):
            main(["select", "--n", "16", "--p", "4", "--k", "2",
                  "--rank", "99"])

    def test_quantiles_command(self, capsys):
        assert main(["quantiles", "--n", "120", "--p", "6", "--k", "2",
                     "--q", "4"]) == 0
        assert "quantiles" in capsys.readouterr().out

    def test_figure1_command(self, capsys):
        assert main(["figure1", "--m", "4", "--k", "2"]) == 0
        out = capsys.readouterr().out
        assert "Transpose" in out and "phase 2: transpose" in out

    def test_max_exclusive(self, capsys):
        assert main(["max", "--p", "16", "--k", "2"]) == 0
        assert "OK" in capsys.readouterr().out

    def test_max_detect(self, capsys):
        assert main(["max", "--p", "16", "--k", "2", "--model", "detect"]) == 0
        assert "OK" in capsys.readouterr().out

    def test_sort_strategy_flag(self, capsys):
        assert main(["sort", "--n", "128", "--p", "8", "--k", "2",
                     "--strategy", "merge"]) == 0
        assert "OK" in capsys.readouterr().out


class TestCliExperiments:
    def test_experiments_subcommand_runs_a_bench(self, capsys):
        # Narrow filter so the nested pytest run stays fast.
        rc = main(["experiments", "--filter", "e13_total"])
        assert rc == 0
