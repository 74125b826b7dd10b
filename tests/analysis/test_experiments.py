"""Paper-tracking checks on the published artifacts, run through the
scenario registry (``Runner`` + ``render``), and the CLI front-end."""

import pytest

from repro.analysis import PAPER_TABLE1, PAPER_TABLE4
from repro.analysis.cli import build_parser, main
from repro.scenarios import Runner, render


def test_table1_report_matches_paper_conflict_columns():
    result = Runner().run("table1", fast=True)
    for banks, row in PAPER_TABLE1.items():
        ours = result.metrics[f"banks{banks}"]
        # serializing and optimized conflict-only columns track closely
        assert ours[0] == pytest.approx(row[0], abs=0.03)
        assert ours[2] == pytest.approx(row[2], abs=0.03)


def test_table3_report_exact():
    result = Runner().run("table3")
    assert result.metrics["enqueue_word"] == 216
    assert result.metrics["dequeue_word"] == 230
    assert result.metrics["line_copy"] == 24
    assert "Table 3" in render(result)


def test_table4_report_exact():
    result = Runner().run("table4")
    for name, want in PAPER_TABLE4.items():
        assert result.metrics[name] == want


def test_figures_render():
    assert "PowerPC" in render(Runner().run("figure1"))
    assert "DMC" in render(Runner().run("figure2"))


def test_cli_parser():
    args = build_parser().parse_args(["run", "table4"])
    assert args.command == "run"
    assert args.scenario == "table4"
    assert not args.fast
    args = build_parser().parse_args(["run", "all", "--fast"])
    assert args.fast
    args = build_parser().parse_args(
        ["run", "table1", "--engine", "reference", "--seed", "7"])
    assert args.engine == "reference"
    assert args.seed == 7


def test_cli_main_runs_table4(capsys):
    rc = main(["run", "table4"])
    captured = capsys.readouterr()
    assert rc == 0
    assert "Table 4" in captured.out


def test_cli_rejects_unknown_experiment():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "table9"])
