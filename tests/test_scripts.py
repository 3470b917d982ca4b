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


def test_cycle_tree_reports_a_resource_limit_as_a_row():
    # level 2 over Q_1009 needs 1008 * 1009 cells, just above the cap
    proc = run_script("cycle_tree.py", "--p", "1009", "--map", "x+1009", "--levels", "3")
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout.splitlines() == [
        "map 1009+x on S[1009^0](0)",
        "level  1: 1008 cells, cycle lengths %s  first invariant union: centers 1"
        % ([1] * 1008),
        "level  2: ResourceLimit: level 2 needs 1017072 cells, cap is 1000000",
        "verdict: ResourceLimit: level 3 needs 1026225648 cells, cap is 1000000",
    ]


def test_cycle_tree_reports_a_refuted_level_and_goes_on_to_the_verdict():
    proc = run_script("cycle_tree.py", "--p", "3", "--map", "x^2", "--levels", "3")
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    lines = proc.stdout.splitlines()
    assert lines[:2] == [
        "map x^2 on S[3^0](0)",
        "level  1: NotPermutation: cells 0 and 1 at level 1 share image cell 0",
    ]
    assert len(lines) == 3
    assert lines[2].startswith("verdict: {'verdict': 'NotIsometry', 'reason': 'IsometryFailed'")


def test_cycle_tree_refuses_a_start_off_the_sphere():
    proc = run_script("cycle_tree.py", "--p", "2", "--map", "x+2", "--levels", "3",
                      "--start", "0")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "start 0 is not on S[2^0](0)" in proc.stderr
    proc = run_script("cycle_tree.py", "--p", "2", "--map", "x+2", "--levels", "3",
                      "--start", "1", "--iters", "2")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-4:] == [
        "orbit of 1:",
        "  f^0 = 2:0:" + ",".join(["1"] + ["0"] * 23),
        "  f^1 = 2:0:" + ",".join(["1", "1"] + ["0"] * 22),
        "  f^2 = 2:0:" + ",".join(["1", "0", "1"] + ["0"] * 21),
    ]


def test_cycle_tree_shortens_a_long_invariant_union():
    # x + 7 over Q_7 splits every level into 6 cycles of 7^(k-1) cells;
    # a union of at most 8 cells is listed in full
    proc = run_script("cycle_tree.py", "--p", "7", "--map", "x+7", "--levels", "6")
    assert proc.returncode == 0, proc.stderr
    assert len(proc.stdout.encode()) < 4096
    lines = proc.stdout.splitlines()
    assert lines[2] == ("level  2:   42 cells, cycle lengths [7, 7, 7, 7, 7, 7]  "
                        "first invariant union: centers 1, 8, 15, 22, 29, 36, 43")
    assert lines[6] == ("level  6: 100842 cells, cycle lengths %s  first invariant union: "
                        "centers 1, 8, 15, 22, 29, 36, 43, 50, ... (16807 cells)" % ([16807] * 6))
