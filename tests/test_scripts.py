"""The scripts under scripts/ run end to end and exit cleanly."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, timeout=120)


def test_survey_reports_a_resource_limit_as_a_row():
    proc = run_script("ergodicity_survey.py", "--primes", "7", "--levels", "8",
                      "--trials", "5")
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    lines = proc.stdout.splitlines()
    assert lines[0] == "== S_1(0) over Q_7 =="
    rows = [ln for ln in lines[1:] if ln]
    assert len(rows) == 7
    for row in rows:
        assert row.endswith("ResourceLimit: level 8 needs 4941258 cells, cap is 1000000")
    assert rows[0].split()[0] == "x+7"
