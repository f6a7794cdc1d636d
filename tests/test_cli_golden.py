"""Golden-file regression tests of the command-line entry points.

Each test runs a CLI main in-process, captures its stdout and compares it
against the checked-in text under ``tests/golden/``.  The CLIs print output
derived from analytical models and static configuration only (the DSE CLI is
pinned to ``--dry-run``), so the text is fully deterministic.  The
simulated-GPU example is pinned the same way: it runs on a seeded input and
prints every kernel launch and device counter.

Updating the goldens after an intentional output change::

    PYTHONPATH=src python -m pytest tests/test_cli_golden.py --update-golden

then review and commit the resulting diff like any other code change.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

from repro.dse.cli import main_dse
from repro.evaluation.cli import main_fig2, main_table1
from repro.serve.cli import main_serve


def run_cli(capsys, main, argv) -> str:
    assert main(argv) == 0
    return capsys.readouterr().out


def test_table1_stdout_matches_golden(capsys, golden):
    golden("table1", run_cli(capsys, main_table1, []))


def test_table1_compare_stdout_matches_golden(capsys, golden):
    golden("table1_compare", run_cli(capsys, main_table1, ["--compare"]))


def test_fig2_stdout_matches_golden(capsys, golden):
    golden("fig2", run_cli(capsys, main_fig2, []))


def test_dse_dry_run_stdout_matches_golden(capsys, golden):
    golden("dse_dry_run", run_cli(capsys, main_dse, ["--dry-run"]))


def test_dse_dry_run_resnet_stdout_matches_golden(capsys, golden):
    golden(
        "dse_dry_run_resnet",
        run_cli(capsys, main_dse,
                ["--dry-run", "--model", "resnet8", "--strategy", "greedy",
                 "--budget", "12", "--seed", "3"]),
    )


def test_serve_dry_run_stdout_matches_golden(capsys, golden):
    golden("serve_dry_run", run_cli(capsys, main_serve, ["--dry-run"]))


def test_serve_dry_run_custom_stdout_matches_golden(capsys, golden):
    golden(
        "serve_dry_run_custom",
        run_cli(capsys, main_serve,
                ["--dry-run", "--requests", "16", "--samples", "2",
                 "--batch-cap", "8", "--workers", "4", "--multipliers", "mul8s_exact",
                 "mul8s_udm"]),
    )


def test_gpu_emulation_demo_stdout_matches_golden(capsys, golden,
                                                 monkeypatch):
    path = Path(__file__).parents[1] / "examples" / "gpu_emulation_demo.py"
    spec = importlib.util.spec_from_file_location("gpu_emulation_demo", path)
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    monkeypatch.setattr(sys, "argv", [str(path)])
    golden("gpu_emulation_demo", run_cli(capsys, lambda argv: demo.main(), []))


def test_serve_rejects_missing_trace_file(capsys):
    assert main_serve(["--trace", "/nonexistent/trace.jsonl"]) == 2
    out = capsys.readouterr().out
    assert "error:" in out


def test_dse_rejects_unknown_multiplier(capsys):
    assert main_dse(["--dry-run", "--multipliers", "mul99_nope"]) == 2
    out = capsys.readouterr().out
    assert "error:" in out and "mul99_nope" in out


def test_dse_rejects_invalid_budget(capsys):
    code = main_dse(["--budget", "0", "--images", "8", "--input-size", "16"])
    assert code == 2
    assert "error: evaluation budget must be positive" in capsys.readouterr().out


def test_table1_images_flag_changes_output(capsys):
    """Guard that the golden comparison actually exercises the full table."""
    default = run_cli(capsys, main_table1, [])
    halved = run_cli(capsys, main_table1, ["--images", "5000"])
    assert default != halved


@pytest.mark.parametrize("main", [main_table1, main_fig2, main_dse])
def test_cli_help_exits_zero(capsys, main):
    with pytest.raises(SystemExit) as excinfo:
        main(["--help"])
    assert excinfo.value.code == 0
    assert capsys.readouterr().out