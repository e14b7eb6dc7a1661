"""CLI behaviour, exercised in-process through repro.cli.main."""

import pytest

from repro.cli import _des_config, build_parser, main
from repro.experiments.des_run import DesRunConfig
from repro.station.client import ClientPolicy


class TestTraceCommands:
    def test_generate_and_inspect(self, tmp_path, capsys):
        out = tmp_path / "starbucks.jsonl"
        csv = tmp_path / "starbucks.csv"
        assert main(
            ["trace", "generate", "Starbucks", "--out", str(out), "--csv", str(csv)]
        ) == 0
        captured = capsys.readouterr().out
        assert "wrote" in captured
        assert out.exists() and csv.exists()

        assert main(["trace", "inspect", str(out)]) == 0
        captured = capsys.readouterr().out
        assert "Starbucks" in captured
        assert "frames/s CDF" in captured

    def test_inspect_by_scenario_name(self, capsys):
        assert main(["trace", "inspect", "WRL"]) == 0
        assert "WRL" in capsys.readouterr().out

    def test_unknown_scenario_fails_cleanly(self, tmp_path, capsys):
        code = main(
            ["trace", "generate", "Mars_Base", "--out", str(tmp_path / "x.jsonl")]
        )
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_missing_file_fails_cleanly(self, capsys):
        assert main(["trace", "inspect", "/nonexistent/trace.jsonl"]) == 2


class TestEnergyCompare:
    def test_compare_runs(self, capsys):
        assert main(
            ["energy", "compare", "WRL", "--device", "galaxy-s4",
             "--fraction", "0.05"]
        ) == 0
        out = capsys.readouterr().out
        assert "receive-all" in out
        assert "hide" in out
        assert "Galaxy S4" in out

    def test_compare_strategies(self, capsys):
        for strategy in ("clustered", "random", "spread"):
            assert main(
                ["energy", "compare", "WRL", "--strategy", strategy]
            ) == 0
            assert strategy in capsys.readouterr().out


class TestOverheadCommands:
    def test_capacity(self, capsys):
        assert main(["overhead", "capacity", "--nodes", "50",
                     "--adoption", "0.75"]) == 0
        out = capsys.readouterr().out
        assert "decrease" in out
        assert "0.12" in out  # ~0.125%

    def test_delay(self, capsys):
        assert main(["overhead", "delay", "--nodes", "50",
                     "--interval", "10"]) == 0
        out = capsys.readouterr().out
        assert "RTT increase" in out
        assert "2.3" in out


class TestExperimentsCommands:
    def test_run_only_fast_figures(self, capsys):
        assert main(["experiments", "run", "--only", "figure10,figure11"]) == 0
        out = capsys.readouterr().out
        assert "Figure 10" in out
        assert "Figure 11" in out

    def test_run_only_tables(self, capsys):
        assert main(["experiments", "run", "--only", "table1,table2"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out
        assert "Table II" in out


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main(["trace"])

    @pytest.mark.parametrize(
        "argv, duration_s",
        [
            (["sim", "run", "Classroom"], 60.0),
            (["sweep", "Classroom"], 10.0),
            (["profile", "Classroom"], 60.0),
        ],
        ids=["sim-run", "sweep", "profile"],
    )
    def test_shared_run_flag_defaults(self, argv, duration_s):
        args = build_parser().parse_args(argv)
        assert (
            args.policy, args.clients, args.fraction,
            args.duration, args.dtim_period,
        ) == ("hide", 3, 0.10, duration_s, 1)
        assert _des_config(args) == DesRunConfig(
            policy=ClientPolicy.HIDE,
            client_count=3,
            useful_fraction=0.10,
            duration_s=duration_s,
            dtim_period=1,
        )
