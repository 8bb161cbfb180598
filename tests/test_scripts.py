"""Smoke runs of the scripts documented in the README, as subprocesses."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("argv", [
    ["scripts/magic_square_demo.py"],
    ["scripts/random_survey.py", "--count", "5", "--certify"],
])
def test_script_runs_clean(argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    # the closing line counts the disagreements; the per-system lines name them
    assert "DISAGREEMENT" not in proc.stdout
    assert "NONZERO RESIDUAL" not in proc.stdout


def test_survey_reports_and_fails_on_disagreement(monkeypatch, capsys):
    import importlib.util

    from synclcs.graphs import IsoSearchResult

    spec = importlib.util.spec_from_file_location(
        "random_survey", ROOT / "scripts" / "random_survey.py")
    survey = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(survey)
    # a search that never finds an isomorphism disagrees on every
    # consistent system
    monkeypatch.setattr(survey, "isomorphism_search",
                        lambda G, H: IsoSearchResult(None, "exhausted", 0, 0))
    status = survey.main(["--count", "5"])
    out = capsys.readouterr().out
    assert "DISAGREEMENT" in out
    summary = out.strip().splitlines()[-1]
    assert "always agree" not in summary
    assert status != 0


@pytest.mark.parametrize("flag", [["--pmax", "1"], ["--size", "0"]])
def test_survey_refuses_arguments_it_cannot_draw_from(flag):
    # before, --pmax 1 ended in an IndexError from an empty choice of
    # primes and --size 0 in a ValueError from an empty range
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "scripts/random_survey.py", "--count", "1", *flag],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert f"{flag[0]} must be at least" in proc.stderr
    assert "Traceback" not in proc.stderr
