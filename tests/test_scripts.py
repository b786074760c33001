"""Smoke runs of the experiment scripts with tiny arguments."""

import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("name, argv, expected", [
    ("run_max_chsh_experiment.py", ["--states", "20", "--seed", "1"], "share above 2"),
    ("run_sampling_experiment.py",
     ["--trials", "3", "--coarse", "200", "--fine", "2000", "--spec-seed", "8"],
     "fine estimate within 5 stderr"),
])
def test_script_runs(monkeypatch, capsys, name, argv, expected):
    monkeypatch.setattr(sys, "argv", [name, *argv])
    runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    assert expected in capsys.readouterr().out
