"""Build the request pools and their expected answers (expected.json).

Run from the repository root, at the commit whose answers should become
the reference:

    python3 perfbench/make_expected.py

Each answer records the engine it comes from:

* ``certified``: the certifying engine (projection criterion in U(g));
  it checks fast-mode answers wherever certification is reachable
  (gl_4, gl_5, o_7 and every sweep-warm spec);
* ``oracle``: ``oracle_minpoly`` on the Young symmetrizer module, for
  gl partitions with |lambda| <= 4 (the certified answer must agree);
* ``seed-regression``: this commit's own output, where no second engine
  reaches; it is a regression reference, not an independent proof.

A request whose seed output contradicts a second engine keeps that
engine's answer as the expected one and stores the seed output under
``seed_output``; the benchmark counts it as a failed request.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import platform
import random
import signal
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
os.environ.pop("HWPOLY_K", None)

import pool  # noqa: E402
from hwpoly import (certified_minimal_polynomial, cli, decompose,  # noqa: E402
                    make_spec, minpoly_from_weight)

POOL_SEED = 1311_3992
FAMILIES = ("gl", "sp", "o_even", "o_odd")
# Seconds a minpoly request may run in-process here before its expected
# answer is read off the decomposition instead of the CLI output.
MINPOLY_CAP_S = 60


class _Timeout(BaseException):
    pass


def _alarm(signum, frame):
    raise _Timeout()


def run_cli(args, cap=None):
    """The CLI document for args, run in this process, and its seconds."""
    buf = io.StringIO()
    if cap:
        signal.signal(signal.SIGALRM, _alarm)
        signal.alarm(cap)
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(list(args))
    finally:
        if cap:
            signal.alarm(0)
    seconds = time.perf_counter() - t0
    if rc != 0:
        raise RuntimeError(f"{' '.join(args)} exited {rc}")
    return json.loads(buf.getvalue()), seconds


def draw_weight(rng, n, den, span):
    return tuple(Fraction(rng.randint(-span * den, span * den), den)
                 for _ in range(n))


def distinct_draws(count, make):
    seen = []
    while len(seen) < count:
        w = make()
        if w not in seen:
            seen.append(w)
    return seen


def gl_partition(family, weight):
    return (family == "gl" and all(x.denominator == 1 and x >= 0 for x in weight)
            and list(weight) == sorted(weight, reverse=True) and sum(weight) <= 4)


def poly_doc(q):
    return {"polynomial": [str(c) for c in q.coeffs],
            "roots": [[str(r), m] for r, m in q.rational_roots()]}


def second_engine(family, n, weight):
    """(answer, source) from the strongest engine that reaches weight, or None."""
    spec = make_spec(family, n)
    reachable = (family == "gl" and n <= 5) or (family != "gl" and spec.N <= 7)
    if not reachable:
        return None
    q, _ = certified_minimal_polynomial(spec, weight)
    source = "certified"
    if gl_partition(family, weight) and n <= 4:
        from hwpoly import build_irrep_gl, oracle_minpoly
        if oracle_minpoly(build_irrep_gl(tuple(int(x) for x in weight), n)) != q:
            raise RuntimeError(f"oracle and certifier disagree at {weight}")
        source = "certified+oracle"
    return q, source


# -- cli-fast ------------------------------------------------------------

def fast_strata():
    """(family, rank, grid denominator) of the cli-fast bulk.

    Ranks 4..8 (gl up to 12) on the integer grid; half-integer and third
    grids only where every request answers far below the time limit.
    Rank 8 half-integer and third weights are the heavy requests.
    """
    out = [("gl", n, d) for n in (4, 6, 8, 10, 12) for d in (1, 2, 3)
           if (n, d) != (12, 3)]
    for family in FAMILIES[1:]:
        for n in (4, 5, 6, 7, 8):
            for d in (1, 2, 3):
                if d == 1 or (d == 2 and n <= 6) or (d == 3 and n <= 5):
                    out.append((family, n, d))
    return out


def minpoly_entry(family, n, weight, cap=MINPOLY_CAP_S):
    key = pool.cli_key("minpoly", family, n, weight)
    try:
        doc, seconds = run_cli(key.split(" "), cap)
        seed = {"polynomial": doc["polynomial"], "roots": doc["roots"]}
        entry = {"seed_s": round(seconds, 4)}
    except _Timeout:
        # the CLI did not finish here; its answer is the decomposition's
        q = minpoly_from_weight(make_spec(family, n), weight)
        roots = {}
        for r in decompose(make_spec(family, n), weight).roots():
            roots[r] = roots.get(r, 0) + 1
        seed = {"polynomial": [str(c) for c in q.coeffs],
                "roots": [[str(r), m] for r, m in sorted(roots.items())]}
        entry = {"seed_s": f"> {cap}", "note": "CLI did not finish at the "
                 "seed; answer read off the shuffle decomposition"}
    other = second_engine(family, n, weight)
    if other is None:
        entry.update(seed, source="seed-regression")
    else:
        q, source = other
        entry.update(poly_doc(q), source=source)
        if seed != poly_doc(q):
            entry["seed_output"] = seed
            entry["known_defect"] = "fast mode disagrees with the certifier"
    return key, entry


def build_cli_fast(rng, answers):
    bulk = {}
    for family, n, d in fast_strata():
        keys = []
        for w in distinct_draws(10, lambda: draw_weight(rng, n, d, 3)):
            key, entry = minpoly_entry(family, n, w)
            answers[key] = entry
            keys.append(key)
        bulk[f"{family}/{n}/{d}"] = keys
    shuffle = {}
    for family in FAMILIES:
        keys = []
        for _ in range(10):
            n = rng.randint(4, 8)
            spec = make_spec(family, n)
            w = draw_weight(rng, n, rng.randint(1, 3), 3)
            seq = tuple(a + b for a, b in zip(w, spec.rho))
            key = f"shuffle {family} -- {pool.weight_text(seq)}"
            doc, _ = run_cli(key.split(" "))
            answers[key] = {"digest": pool.doc_digest(doc), "roots": doc["roots"],
                            "source": "seed-regression"}
            keys.append(key)
        shuffle[family] = keys
    # rank 8 half-integer and third weights: rational_roots stalls on some
    heavy = []
    hrng = random.Random(2013)
    for i in range(4):
        family = FAMILIES[1 + i % 3]
        den = 2 + (i // 3) % 2
        w = draw_weight(hrng, 8, den, 3)
        key, entry = minpoly_entry(family, 8, w)
        answers[key] = entry
        heavy.append(key)
    key, entry = minpoly_entry("o_odd", 3, (-2, -2, 0))
    answers[key] = entry
    return {"bulk": bulk, "shuffle": shuffle, "heavy": heavy, "fixed": [key]}


# -- certify-cold --------------------------------------------------------

def certify_entry(family, n, weight):
    key = pool.cli_key("certify", family, n, weight)
    doc, _ = run_cli(key.split(" "))
    entry = {"polynomial": doc["polynomial"], "roots": doc["roots"],
             "witnesses": pool.doc_digest(doc["witnesses"]),
             "source": "seed-regression (certified)"}
    fast = minpoly_from_weight(make_spec(family, n), weight)
    entry["fast"] = [str(c) for c in fast.coeffs]
    return key, entry


def staircase_weights(rng, family, n, count):
    """Dominant integral weights (finite-dimensional modules, regular after
    the rho shift) whose shuffle candidate has the degree of the staircase
    (n-1, ..., 1, 0).  The certifier's cost is set by that degree, so every
    draw from one spec costs about the same."""
    spec = make_spec(family, n)
    target = len(decompose(spec, tuple(range(n - 1, -1, -1))).roots())
    weights = [w for w in itertools.product(range(6), repeat=n)
               if list(w) == sorted(w, reverse=True)
               and len(decompose(spec, w).roots()) == target]
    rng.shuffle(weights)
    return weights[:count]


def build_certify_cold(rng, answers):
    certify = {}
    for family, n in (("gl", 5), ("sp", 3), ("o_even", 3), ("o_odd", 3)):
        keys = []
        for w in staircase_weights(rng, family, n, 10):
            key, entry = certify_entry(family, n, w)
            answers[key] = entry
            keys.append(key)
        certify[f"{family}/{n}"] = keys
    resolvent = {}
    for family, n in (("gl", 3), ("o_even", 2), ("sp", 2)):
        keys = []
        for w in staircase_weights(rng, family, n, 10):
            key = pool.cli_key("resolvent", family, n, w)
            doc, _ = run_cli(key.split(" "))
            q, _ = certified_minimal_polynomial(make_spec(family, n), w)
            if doc["lcm"] != [str(c) for c in q.coeffs]:
                raise RuntimeError(f"{key}: lcm is not the certified polynomial")
            answers[key] = {"digest": pool.doc_digest(doc), "lcm": doc["lcm"],
                            "source": "certified (lcm); seed-regression "
                                      "(series entries)"}
            keys.append(key)
        resolvent[f"{family}/{n}"] = keys
    key, entry = certify_entry("o_odd", 3, (-2, -2, 0))
    answers[key] = entry
    return {"certify": certify, "resolvent": resolvent, "fixed": [key]}


# -- sweep-warm ----------------------------------------------------------

SWEEP_SPECS = (("gl", 4), ("gl", 5), ("sp", 2), ("o_odd", 2), ("o_even", 3))


def sweep_entry(family, n, weight):
    spec = make_spec(family, n)
    q, source = second_engine(family, n, weight)
    fast = minpoly_from_weight(spec, weight)
    entry = {"certified": [str(c) for c in q.coeffs], "source": source}
    if fast != q:
        entry["seed_output"] = {"certified": entry["certified"],
                                "fast": [str(c) for c in fast.coeffs]}
        entry["known_defect"] = "fast mode disagrees with the certifier"
    return pool.sweep_key(family, n, weight), entry


def build_sweep_warm(rng, answers):
    sweep = {}
    for family, n in SWEEP_SPECS:
        for d in (1, 2):
            keys = []
            span = 3 if d == 1 else 2
            for w in distinct_draws(40, lambda: draw_weight(rng, n, d, span)):
                key, entry = sweep_entry(family, n, w)
                answers[key] = entry
                keys.append(key)
            sweep[f"{family}/{n}/{d}"] = keys
    key, entry = sweep_entry("o_odd", 3, (-2, -2, 0))
    answers[key] = entry
    return {"sweep": sweep, "fixed": [key]}


# -- crosscheck ----------------------------------------------------------

def partitions(total, parts, largest=None):
    largest = total if largest is None else largest
    if parts == 0:
        return [()] if total == 0 else []
    out = []
    for first in range(min(total, largest), -1, -1):
        out += [(first,) + rest for rest in partitions(total - first, parts - 1, first)]
    return out


def build_crosscheck(answers):
    howe = []
    for n in (1, 2, 3):
        for k in (1, 2, 3):
            key = f"howe {n} {k} --rmax 4"
            doc, _ = run_cli(key.split(" "))
            answers[key] = {"digest": pool.doc_digest(doc), "passed": True,
                            "source": "dual pair identities (self-checking); "
                                      "seed-regression (document)"}
            if not doc["conv"]["passed"] or not doc["transfer"]["passed"]:
                raise RuntimeError(f"{key}: identities fail at the seed")
            howe.append(key)
    oracle = []
    for n in (3, 4):
        for total in range(5):
            for lam in partitions(total, n):
                key = pool.cli_key("oracle", "gl", n, lam)
                doc, _ = run_cli(key.split(" "))
                q, _ = certified_minimal_polynomial(make_spec("gl", n), lam)
                if doc["polynomial"] != [str(c) for c in q.coeffs]:
                    raise RuntimeError(f"{key}: oracle and certifier disagree")
                answers[key] = {"polynomial": doc["polynomial"],
                                "roots": doc["roots"], "dim": doc["dim"],
                                "source": "oracle+certified"}
                oracle.append(key)
    return {"howe": howe, "oracle": oracle}


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    rng = random.Random(POOL_SEED)
    answers = {}
    pools = {}
    for name, build in (("cli-fast", lambda: build_cli_fast(rng, answers)),
                        ("certify-cold", lambda: build_certify_cold(rng, answers)),
                        ("sweep-warm", lambda: build_sweep_warm(rng, answers)),
                        ("crosscheck", lambda: build_crosscheck(answers))):
        t0 = time.perf_counter()
        pools[name] = build()
        print(f"{name}: {time.perf_counter() - t0:.1f} s", file=sys.stderr)
    doc = {"about": __doc__.strip().splitlines()[0],
           "pool_seed": POOL_SEED, "git_sha": git_sha(),
           "python": platform.python_version(),
           "pools": pools, "answers": answers}
    write_expected(doc)


def write_expected(doc):
    """One line per top-level field and per answer, keys sorted."""
    lines = [f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}"
             for k, v in sorted(doc.items()) if k != "answers"]
    answers = [f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}"
               for k, v in sorted(doc["answers"].items())]
    with open(pool.EXPECTED_PATH, "w") as fh:
        fh.write("{\n" + ",\n".join(lines) + ',\n"answers": {\n'
                 + ",\n".join(answers) + "\n}}\n")


if __name__ == "__main__":
    main()
