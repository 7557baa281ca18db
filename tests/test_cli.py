"""Tests for the CLI."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["flood"])

    def test_experiment_requires_known_system(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "--system", "voldemort"])

    def test_smoke_flags_parse(self):
        args = build_parser().parse_args(["figure1", "--smoke"])
        assert args.smoke
        args = build_parser().parse_args(["figure3"])
        assert not args.smoke
        args = build_parser().parse_args(["breaker", "--smoke", "--no-chaos"])
        assert args.smoke and not args.include_chaos

    def test_profile_subcommand_is_gone(self):
        # Host-time speed is measured from outside: benchmarks/perf/run.py.
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["profile", "raft"])
        assert exit_info.value.code == 2


class TestCommands:
    def test_table1_prints_catalog(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "cpu_slow" in out
        assert "20.0x" in out

    @pytest.mark.slow
    def test_experiment_smoke_run(self, capsys):
        code = main(
            ["experiment", "--system", "depfast", "--fault", "network_slow", "--smoke"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "ops/s" in out
        assert "depfast under network_slow" in out
