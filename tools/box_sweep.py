"""Compare the fast and the certified minimal polynomial on a box of weights.

    python3 tools/box_sweep.py FAMILY RANK LO HI STEP

FAMILY is gl, sp, o_even or o_odd and RANK the rank.  The box holds
every weight whose coordinates lie in LO, LO + STEP, ..., HI; LO, HI and
STEP are rationals such as -4, 4 and 1/2, each read as the CLI reads a
weight coordinate: an integer, p/q or a decimal, with no exponent.  A
negative bound such as -1/2 needs no "--" before it.
The script prints the number of weights, the seconds taken, and every
weight where the shuffle answer (minpoly_from_weight) differs from the
certified one (certified_minimal_polynomial), with both root
multisets.  It exits 0, 2 on a usage error, or 1 when stdout cannot be
written (its reader closed the pipe; one line on stderr says so).  It
runs from a checkout without installing the package and uses the
standard library only.
"""

from __future__ import annotations

import argparse
import sys
import time
from fractions import Fraction
from itertools import product
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from hwpoly import (certified_minimal_polynomial, make_spec,
                    minpoly_from_weight)
from hwpoly.cli import (_Parser as _CliParser, _parse_weight, _Usage,
                        write_stdout)


class _Parser(_CliParser):
    """The CLI's parser, which reads a negative bound such as -1/2 as a
    value, with argparse's own usage error (exit 2)."""

    error = argparse.ArgumentParser.error


def _rational(text: str) -> Fraction:
    """One coordinate by the CLI's rule, so 1e9999999 is refused unexpanded."""
    try:
        (value,) = _parse_weight(text)
    except (_Usage, ValueError):
        raise argparse.ArgumentTypeError(f"cannot parse rational {text!r}")
    return value


def box(rank: int, lo: Fraction, hi: Fraction, step: Fraction):
    """Every weight with coordinates in lo, lo + step, ..., hi."""
    values = []
    while lo + len(values) * step <= hi:
        values.append(lo + len(values) * step)
    return product(values, repeat=rank)


def _roots(q) -> str:
    return " ".join(str(r) if m == 1 else f"{r}^{m}"
                    for r, m in q.rational_roots())


def main(argv=None) -> int:
    parser = _Parser(description=__doc__.splitlines()[0])
    parser.add_argument("family", choices=["gl", "sp", "o_even", "o_odd"])
    parser.add_argument("rank", type=int)
    for name in ("lo", "hi", "step"):
        parser.add_argument(name, type=_rational)
    args = parser.parse_args(argv)
    if args.rank < 0 or args.step <= 0:
        parser.error("RANK must be nonnegative and STEP positive")
    spec = make_spec(args.family, args.rank)
    start = time.perf_counter()
    count, differ = 0, []
    for lam in box(args.rank, args.lo, args.hi, args.step):
        count += 1
        fast = minpoly_from_weight(spec, lam)
        certified, _ = certified_minimal_polynomial(spec, lam)
        if fast != certified:
            differ.append((lam, fast, certified))
    seconds = time.perf_counter() - start
    lines = [f"weights: {count}", f"seconds: {seconds:.2f}",
             f"disagreements: {len(differ)}"]
    lines += [f"  {spec.label} ({','.join(str(x) for x in lam)}): "
              f"fast {_roots(fast)}; certified {_roots(certified)}"
              for lam, fast, certified in differ]
    return write_stdout("\n".join(lines) + "\n")


if __name__ == "__main__":
    sys.exit(main())
