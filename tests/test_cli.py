"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_gossip_defaults(self):
        args = build_parser().parse_args(["gossip"])
        assert args.topology == "grid"
        assert args.algorithm == "concurrent-updown"

    def test_rejects_unknown_algorithm(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["gossip", "--algorithm", "nope"])

    def test_rejects_unknown_topology(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["gossip", "--topology", "nope"])


class TestCommands:
    def test_gossip(self, capsys):
        assert main(["gossip", "--topology", "cycle", "--n", "8"]) == 0
        out = capsys.readouterr().out
        assert "total time: 12" in out
        assert "complete  : True" in out

    def test_gossip_show_tree_and_schedule(self, capsys):
        assert main(
            ["gossip", "--topology", "star", "--n", "5", "--show-tree", "--show-schedule"]
        ) == 0
        out = capsys.readouterr().out
        assert "└── " in out
        assert "t=  0:" in out

    def test_gossip_alternative_algorithm(self, capsys):
        assert main(["gossip", "--topology", "path", "--n", "7", "--algorithm", "simple"]) == 0
        out = capsys.readouterr().out
        assert "simple" in out

    def test_tables_default(self, capsys):
        assert main(["tables"]) == 0
        out = capsys.readouterr().out
        for title in ("Table 1", "Table 2", "Table 3", "Table 4"):
            assert title in out

    def test_tables_specific_vertex(self, capsys):
        assert main(["tables", "--vertex", "5"]) == 0
        out = capsys.readouterr().out
        assert "vertex with message 5" in out

    def test_compare(self, capsys):
        assert main(["compare", "--sizes", "8", "--families", "path", "star"]) == 0
        out = capsys.readouterr().out
        assert "path-8" in out
        assert "concurrent-updown" in out

    def test_paper(self, capsys):
        assert main(["paper"]) == 0
        out = capsys.readouterr().out
        assert out.count("OK") == 5

    def test_broadcast(self, capsys):
        assert main(["broadcast", "--topology", "star", "--n", "16"]) == 0
        out = capsys.readouterr().out
        assert "multicast: 1 rounds" in out
        assert "telephone: 15 rounds" in out

    def test_weighted(self, capsys):
        assert main(["weighted", "--topology", "path", "--n", "8"]) == 0
        out = capsys.readouterr().out
        assert "complete=True" in out
        assert "N + r'" in out

    def test_online(self, capsys):
        assert main(["online", "--topology", "grid", "--n", "9"]) == 0
        out = capsys.readouterr().out
        assert "schedules identical: True" in out

    def test_repeated(self, capsys):
        assert main(["repeated", "--topology", "star", "--n", "8",
                     "--instances", "3"]) == 0
        out = capsys.readouterr().out
        assert "complete : True" in out

    def test_bounds(self, capsys):
        assert main(["bounds", "--sizes", "12", "--families", "path", "star"]) == 0
        out = capsys.readouterr().out
        assert "all bounds hold exactly" in out
        assert "path-12" in out


class TestSweepTimeouts:
    def test_chaos_timeout_fails_fast(self, capsys):
        assert main(["chaos", "--family", "path:8", "--trials", "50",
                     "--timeout", "0.000001"]) == 1
        out = capsys.readouterr().out
        assert out.startswith("TIMEOUT:")
        assert "deadline" in out

    def test_survive_timeout_fails_fast(self, capsys):
        assert main(["survive", "--family", "path:8", "--trials", "50",
                     "--timeout", "0.000001"]) == 1
        out = capsys.readouterr().out
        assert out.startswith("TIMEOUT:")

    def test_chaos_without_timeout_still_runs(self, capsys):
        assert main(["chaos", "--family", "path:6", "--trials", "2",
                     "--drop", "0.0"]) == 0
        assert "chaos sweep" in capsys.readouterr().out


class _FailingReport:
    def format(self):
        return "report"

    def check(self):
        raise AssertionError("gate broken")


class TestCheckGate:
    """A failing ``--check`` gate prints one ``CHECK FAILED`` line and
    exits 1 on every command that has one, never a traceback."""

    @pytest.mark.parametrize("argv,target", [
        (["compare", "--epidemic", "--check"],
         "repro.analysis.comparison.run_epidemic_comparison"),
        (["chaos", "--check"], "repro.analysis.chaos.run_chaos_sweep"),
        (["chaos", "--permanent", "0.1", "--check"],
         "repro.analysis.survival.run_survival_sweep"),
        (["survive", "--check"], "repro.analysis.survival.run_survival_sweep"),
        (["plan-bench", "--check"], "repro.analysis.planner_bench.run_planner_bench"),
    ])
    def test_failing_gate(self, argv, target, monkeypatch, capsys):
        monkeypatch.setattr(target, lambda *args, **kwargs: _FailingReport())
        assert main(argv) == 1
        assert capsys.readouterr().out == "report\nCHECK FAILED: gate broken\n"


class TestRunNet:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["run-net"])
        assert args.family == "grid:16"
        assert args.timeout == 60.0
        assert args.time_scale == 1.0

    def test_fault_free_check_passes(self, capsys):
        assert main(["run-net", "--family", "path:5", "--check"]) == 0
        out = capsys.readouterr().out
        assert "transcript: identical to offline schedule" in out
        assert "check: full (degraded) coverage and offline-exact transcript  OK" in out

    def test_kill_run_reaches_degraded_coverage(self, capsys):
        assert main(["run-net", "--family", "grid:9", "--kill", "4:2",
                     "--seed", "11", "--time-scale", "0.2", "--check"]) == 0
        out = capsys.readouterr().out
        assert "coverage=100.0%" in out
        assert "dead=[4]" in out
        assert "survival" in out

    def test_bad_kill_spec_rejected(self, capsys):
        assert main(["run-net", "--kill", "nope"]) == 2
        assert "bad --kill spec" in capsys.readouterr().out
