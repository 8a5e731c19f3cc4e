"""Prove the rank recursion equal to the Verma engine through degree D.

    python3 tools/prove_recursion.py FAMILY RANK D

FAMILY is gl, sp, o_even or o_odd and RANK the rank.  The script runs
recursion.prove_recursion: at every pair (L, d) with L >= 0 in Z^RANK,
d >= 1 and |L| + d - 1 <= D it compares the recursion's ints with the
Verma series at the weight L/d, scaled by d^k, for every order k <= D.
It prints the number of points, the number of mismatches and the
seconds taken, then each mismatch as its point, diagonal label and
order, and exits 1 when there is any, or when stdout cannot be written
(its reader closed the pipe; one line on stderr says so).  No mismatch
proves the two engines equal through order D at every weight of the
rank (see the docstring of prove_recursion).  D = N covers what
certify reads, and D = 2N + 1 what resolvent reads, N the matrix size.
It runs from a checkout without installing the package and uses the
standard library only.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from hwpoly import AlgebraSpec
from hwpoly.cli import write_stdout
from hwpoly.recursion import prove_recursion


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("family", choices=["gl", "sp", "o_even", "o_odd"])
    parser.add_argument("rank", type=int)
    parser.add_argument("D", type=int)
    args = parser.parse_args(argv)
    if args.rank < 0 or args.D < 0:
        parser.error("RANK and D must be nonnegative")
    spec = AlgebraSpec(args.family, args.rank)
    start = time.perf_counter()
    points, mismatches = prove_recursion(spec, args.D)
    seconds = time.perf_counter() - start
    lines = [f"points: {points}", f"mismatches: {len(mismatches)}",
             f"seconds: {seconds:.2f}"]
    lines += [f"  {spec.label} L=({','.join(map(str, L))}) d={d}: "
              f"entry {label}, order {k}" for L, d, label, k in mismatches]
    return write_stdout("\n".join(lines) + "\n") or (1 if mismatches else 0)


if __name__ == "__main__":
    sys.exit(main())
