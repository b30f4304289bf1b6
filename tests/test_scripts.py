"""The scripts under scripts/ run from a checkout with no install."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

from galdesk import padic_weights as pw
from galdesk import padics as pa
from galdesk import scenarios as sc

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_run_acceptance_without_pythonpath(tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run([sys.executable, str(SCRIPTS / "run_acceptance.py")], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    n = len(sc.list_builtins())
    assert f"{n}/{n} suites passed" in done.stdout


def test_dichotomy_experiment_counts_undetermined(monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("dichotomy_experiment",
                                                  SCRIPTS / "dichotomy_experiment.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(pw, "passage_dichotomy",
                        lambda fam: pw.Undetermined(pa.teichmuller(1, 5, 8), fam.entries[0]))
    monkeypatch.setattr(sys, "argv", ["dichotomy_experiment.py", "4", "0"])
    assert script.main() == 0
    assert "undetermined: 4" in capsys.readouterr().out


def test_dichotomy_experiment_splits_half_and_half(tmp_path):
    # The script builds its families with the builtin's dichotomy_family, so a
    # broken import or a drifting builder shows here.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run([sys.executable, str(SCRIPTS / "dichotomy_experiment.py"), "20", "0"],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert "parallel: 10" in done.stdout and "certificate: 10" in done.stdout
