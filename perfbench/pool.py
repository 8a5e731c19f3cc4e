"""Request pools, seeded request lists and answer checks.

Every request the benchmark can send is an entry of ``expected.json``:
its key is the request itself (the CLI arguments joined by spaces, or
``sweep <family> <rank> -- <weight>`` for an in-process sweep request)
and its value is the expected answer together with the engine that
produced it.  ``make_expected.py`` builds the pools and the answers at
a fixed pool seed; a run sends the first entries of each pool stratum
and its ``--seed`` draws their order, so the program never sees an
input the answers file does not cover.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

WORKLOADS = ("cli-fast", "certify-cold", "sweep-warm", "crosscheck")

# Each run sends the first entries of every pool stratum, in an order
# drawn by seed.  The cost of one request varies a lot between the
# entries of a stratum (rational_roots: 0.15-0.75 s for one cli-fast
# stratum; the certifier: up to 40 % within one spec), which a draw per
# seed would turn into run-to-run spread of the latency percentiles.
BULK_PER_STRATUM = 1        # cli-fast minpoly, per (family, rank, grid)
SHUFFLE_PER_FAMILY = 1      # cli-fast shuffle, per family
SWEEP_PER_GRID = 20         # sweep-warm, per (spec, grid)


def load_expected(path: Path = EXPECTED_PATH) -> dict:
    with open(path) as fh:
        return json.load(fh)


def cli_algebra(family: str, n: int):
    """The CLI's (family, number) pair for a spec given as (family, rank)."""
    if family == "o_even":
        return "o", 2 * n
    if family == "o_odd":
        return "o", 2 * n + 1
    return family, n


def spec_of_cli(family: str, num: int):
    """Inverse of cli_algebra."""
    if family == "o":
        return ("o_even" if num % 2 == 0 else "o_odd"), num // 2
    return family, num


def weight_text(weight) -> str:
    return ",".join(str(Fraction(x)) for x in weight)


def parse_weight(text: str):
    return tuple(Fraction(t) for t in text.split(",")) if text else ()


def cli_key(command: str, family: str, n: int, weight, *extra) -> str:
    fam, num = cli_algebra(family, n)
    return " ".join((command, fam, str(num)) + extra + ("--", weight_text(weight)))


def sweep_key(family: str, n: int, weight) -> str:
    return f"sweep {family} {n} -- {weight_text(weight)}"


def parse_sweep_key(key: str):
    _, family, n, _, weight = key.split(" ")
    return family, int(n), parse_weight(weight)


def doc_digest(doc) -> str:
    """Exact fingerprint of a JSON document, independent of key order."""
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def requests_for(workload: str, seed: int, expected: dict) -> list:
    """The request keys of one pass: the same requests for every seed,
    in an order the seed draws."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    pools = expected["pools"][workload]
    keys = []
    if workload == "cli-fast":
        for stratum in sorted(pools["bulk"]):
            keys += pools["bulk"][stratum][:BULK_PER_STRATUM]
        for family in sorted(pools["shuffle"]):
            keys += pools["shuffle"][family][:SHUFFLE_PER_FAMILY]
        keys += pools["heavy"] + pools["fixed"]
    elif workload == "certify-cold":
        for group in ("certify", "resolvent"):
            for spec in sorted(pools[group]):
                keys.append(pools[group][spec][0])
        keys += pools["fixed"]
    elif workload == "sweep-warm":
        for stratum in sorted(pools["sweep"]):
            keys += pools["sweep"][stratum][:SWEEP_PER_GRID]
        keys += pools["fixed"]
    else:
        keys += pools["howe"] + pools["oracle"]
    rng.shuffle(keys)
    return keys


def _coeffs(q) -> list:
    return [str(Fraction(c)) for c in q.coeffs]


def check_cli(key: str, doc: dict, want: dict) -> "tuple[bool, bool]":
    """(matches, known) for one CLI answer.

    matches is whether the answer equals the expected one exactly.  known
    is whether a mismatch reproduces a defect recorded in the answers
    file (the seed commit's own wrong output), which still counts as a
    failed request but not as a new wrong answer.
    """
    command = key.split(" ", 1)[0]
    if command == "minpoly":
        got = {"polynomial": doc.get("polynomial"), "roots": doc.get("roots")}
    elif command == "certify":
        got = {"polynomial": doc.get("polynomial"), "roots": doc.get("roots"),
               "witnesses": doc_digest(doc.get("witnesses"))}
    elif command == "oracle":
        got = {"polynomial": doc.get("polynomial"), "roots": doc.get("roots"),
               "dim": doc.get("dim")}
    elif command == "howe":
        passed = (doc.get("conv", {}).get("passed") is True
                  and doc.get("transfer", {}).get("passed") is True
                  and all(d.get("divisible") for d in doc.get("divisibility", ())))
        got = {"digest": doc_digest(doc), "passed": passed}
    else:  # shuffle and resolvent are checked as whole documents
        got = {"digest": doc_digest(doc)}
    wanted = {k: want[k] for k in got}
    if got == wanted:
        return True, False
    seed = want.get("seed_output")
    return False, seed is not None and all(got[k] == seed.get(k) for k in got)


def check_sweep(want: dict, certified, fast) -> "tuple[bool, bool]":
    """(matches, known) for one sweep request; see check_cli."""
    got = {"certified": _coeffs(certified), "fast": _coeffs(fast)}
    if got["certified"] == want["certified"] and got["fast"] == want["certified"]:
        return True, False
    seed = want.get("seed_output")
    return False, seed is not None and got == seed
