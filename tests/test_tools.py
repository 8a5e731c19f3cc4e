"""The scripts in tools/ run against the package in this checkout."""

import pathlib
import subprocess
import sys
from math import comb

import pytest

from helpers import run_into_closed_pipe

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


# the rank-3 weights of the [-3, 3] half-integer boxes where the fast
# answer is a proper multiple of the certified one (ROADMAP item 5, also
# strict xfails in test_recursion); fixing them changes this list
RANK_THREE_DISAGREEMENTS = {
    "gl": [],
    "sp": ["  sp_6 (-3,-3,0): fast 2^2 3 4; certified 2^2 3"],
    "o_even": [],
    "o_odd": ["  o_7 (-5/2,-5/2,1/2): fast 3/2^2 5/2 3 7/2; "
              "certified 3/2^2 5/2 3",
              "  o_7 (-2,-2,0): fast 2^3 3^2; certified 2^3"],
}


@pytest.mark.parametrize("family", sorted(RANK_THREE_DISAGREEMENTS))
def test_box_sweep_rank_three_pins_the_known_disagreements(family):
    want = RANK_THREE_DISAGREEMENTS[family]
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "box_sweep.py"), family, "3",
         "-3", "3", "1/2"], capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == "weights: 2197"
    assert lines[1].startswith("seconds: ")
    assert lines[2:] == [f"disagreements: {len(want)}"] + want


def test_box_sweep_reads_bounds_as_the_cli_reads_a_coordinate():
    # an exponent is a usage error; Fraction once expanded 1e5 into
    # 100,001 box values, and 1e9999999 into a 33-million-bit integer,
    # before the sweep began
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "box_sweep.py"), "gl", "0",
         "0", "1e5", "1"], capture_output=True, text=True, timeout=120)
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.startswith("usage: ")
    assert "argument hi: cannot parse rational '1e5'" in done.stderr


def test_box_sweep_reads_a_negative_fraction_as_a_bound():
    # argparse's own negative-number rule matches only -N and -N.M, so
    # -1/2 was once read as an option and step went missing
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "box_sweep.py"), "gl", "1",
         "-1/2", "1/2", "1/2"], capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == "weights: 3"
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


@pytest.mark.parametrize("unbuffered", [True, False])
@pytest.mark.parametrize("tool,args", [
    ("prove_recursion.py", ["gl", "2", "5"]),
    ("box_sweep.py", ["gl", "2", "-1", "1", "1"])])
def test_closed_stdout_is_exit_one(tool, args, unbuffered):
    # both once ended in a BrokenPipeError traceback
    rc, err = run_into_closed_pipe(
        [sys.executable, str(ROOT / "tools" / tool), *args], unbuffered)
    assert rc == 1
    assert err == "hwpoly: cannot write stdout: Broken pipe\n"
