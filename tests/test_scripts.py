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


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    script = importlib.util.module_from_spec(spec)
    sys.modules[name] = script  # dataclasses look their module up there
    spec.loader.exec_module(script)
    return script


def test_run_acceptance_without_pythonpath(tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run([sys.executable, str(SCRIPTS / "run_acceptance.py")], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    n = len(sc.list_builtins())
    assert f"{n}/{n} suites passed" in done.stdout


def test_dichotomy_experiment_counts_undetermined(monkeypatch, capsys):
    script = load_script("dichotomy_experiment")
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


TINY = """
def step(x, p):
    if x < 0:
        raise ValueError("negative")
    return x * 4 % p % p
"""

TINY_TEST = """
import pytest
from galdesk.tiny import step

def test_step():
    assert step(0, 7) == 0 and step(5, 7) == 6
    with pytest.raises(ValueError):
        step(-1, 7)
"""


def test_mutants_kills_a_planted_mutant_and_skips_a_listed_equivalent(tmp_path):
    mutants = load_script("mutants")
    project = tmp_path / "project"
    (project / "src" / "galdesk").mkdir(parents=True)
    (project / "src" / "galdesk" / "__init__.py").write_text("")
    (project / "src" / "galdesk" / "tiny.py").write_text(TINY)
    (project / "tests").mkdir()
    (project / "tests" / "test_tiny.py").write_text(TINY_TEST)
    found = mutants.mutants("tiny", TINY.encode())
    assert sorted(m.operator for m in found) == ["compare", "const", "const", "mod-p", "mod-p",
                                                 "raise"]
    test_map = mutants.build_test_map(project)
    assert [t for _, t in test_map[("tiny", 2)]] == ["tests/test_tiny.py::test_step"]
    # Either % p of x * 4 % p % p can go; the other reduces.
    equivalent = {("tiny.step", "mod-p", "return «x * 4 % p % p»"): "the inner % p reduces",
                  ("tiny.step", "mod-p", "return «x * 4 % p» % p"): "the outer % p reduces"}
    copies = [project, mutants.copy_checkout(project, tmp_path / "copy")]
    result = mutants.sweep(copies, ["tiny"], test_map, equivalent, log=lambda line: None)
    assert result == {"killed": 4, "timeout": 0, "survived": [], "equivalent": list(equivalent)}
    assert (project / "src" / "galdesk" / "tiny.py").read_text() == TINY


def test_every_listed_equivalent_is_a_mutant_of_the_source():
    mutants = load_script("mutants")
    src = SCRIPTS.parent / "src" / "galdesk"
    keys = {m.key for path in src.glob("*.py")
            for m in mutants.mutants(path.stem, path.read_bytes())}
    assert sorted(set(mutants.EQUIVALENT) - keys) == []
