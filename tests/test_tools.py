"""The scripts in tools/ run against the package in this checkout."""

import pathlib
import subprocess
import sys

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
