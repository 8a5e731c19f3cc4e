"""The scripts in tools/ run against the package in this checkout."""

import pathlib
import subprocess
import sys
from math import comb

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("family", ["gl", "sp", "o_even", "o_odd"])
def test_box_sweep_rank_two_agrees(family):
    # every integer and half-integer weight of rank 2 on [-5, 5]; the
    # fast and certified answers agree on all of them
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "box_sweep.py"), family, "2",
         "-5", "5", "1/2"], capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == "weights: 441"
    assert lines[1].startswith("seconds: ")
    assert lines[2:] == ["disagreements: 0"]


@pytest.mark.parametrize("family,D", [("gl", 5), ("sp", 9), ("o_even", 9),
                                      ("o_odd", 11)])
def test_prove_recursion_rank_two(family, D):
    # D = 2N + 1 at rank 2: C(3 + D, 3) points, no mismatch
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "prove_recursion.py"), family,
         "2", str(D)], capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == f"points: {comb(3 + D, 3)}"
    assert lines[1] == "mismatches: 0"
    assert lines[2].startswith("seconds: ")
    assert len(lines) == 3
