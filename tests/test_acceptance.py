"""End to end acceptance suite.

Each test covers one release criterion and prints a single PASS/FAIL
line (run with -rP or -s to see the lines for passing tests).  Every
comparison is exact; there are no tolerances anywhere.
"""

import random
from fractions import Fraction
from itertools import product

from helpers import (acceptance_relative_weights, hw_coefficient, parabolic,
                     project_relative, symbolic_relative_formulas)
from hwpoly.algebra import CARTAN, NEG, POS, make_spec
from hwpoly.enveloping import (UElement, evaluate_at_weight, pbw_normalize,
                               project_hc)
from hwpoly.genmatrix import projected_diagonal
from hwpoly.howe import (check_conv_powers, check_divisibility_instance,
                         check_resolvent_transfer)
from hwpoly.oracle import build_catalog_rep, build_irrep_gl, oracle_minpoly
from hwpoly.polyrat import UniPoly
from hwpoly.shuffle import decompose, minpoly_from_weight, shuffle_gl
from hwpoly.verify import certified_minimal_polynomial

F = Fraction

# every non-GL spec in scope, by family and rank
BC_SPECS = (("sp", 1), ("sp", 2), ("o_odd", 1), ("o_even", 2), ("o_odd", 2))


def _conclude(num, name, failures):
    status = "PASS" if not failures else f"FAIL ({len(failures)} deviations)"
    print(f"ACCEPTANCE {num:02d} {name}: {status}")
    assert not failures, failures[:5]


def _random_element(rng, spec, max_terms=3, max_len=3):
    out = UElement.zero(spec)
    for _ in range(rng.randrange(1, max_terms + 1)):
        word = [spec.gens[rng.randrange(len(spec.gens))]
                for _ in range(rng.randrange(0, max_len + 1))]
        coeff = F(rng.randrange(-3, 4), rng.randrange(1, 3))
        if coeff:
            out = out + pbw_normalize(spec, [(coeff, word)])
    return out


def test_01_shuffle_worked_example():
    dec = shuffle_gl((3, 3, 2, 4, 1, 3, 2, 2, 1))
    got = [tuple(p.terms) for p in dec.parts]
    want = [(3, 2, 1), (3, 2), (4, 3, 2, 1)]
    failures = [] if got == want else [(got, want)]
    _conclude(1, "shuffle-worked-example", failures)


def test_02_trivial_modules():
    failures = []
    u = UniPoly.from_roots([0])
    combos = [("gl", n) for n in range(1, 6)] + list(BC_SPECS)
    for family, n in combos:
        spec = make_spec(family, n)
        lam = (0,) * n
        q, _ = certified_minimal_polynomial(spec, lam)
        if q != u:
            failures.append(("certified", spec.label, str(q)))
        qo = oracle_minpoly(build_catalog_rep(family, n, "trivial"))
        if qo != u:
            failures.append(("oracle", spec.label, str(qo)))
    _conclude(2, "trivial-modules", failures)


def test_03_generic_weight_formula():
    failures = []
    for n in (2, 3, 4):
        spec = make_spec("gl", n)
        rng = random.Random(f"acceptance-generic-{n}")
        done = 0
        while done < 50:
            lam = tuple(rng.randint(-8, 8) for _ in range(n))
            l = decompose(spec, lam).sequence
            if len(set(l)) < n:
                continue
            if any(abs(a - b) == 1 for a in l for b in l):
                continue
            done += 1
            q = minpoly_from_weight(spec, lam)
            if q != UniPoly.from_roots(l):
                failures.append(("fast", spec.label, lam))
            elif n <= 3:
                qc, _ = certified_minimal_polynomial(spec, lam)
                if qc != q:
                    failures.append(("certified", spec.label, lam))
    _conclude(3, "generic-weight-formula", failures)


def _dominant_partitions(n, total):
    out = []
    for lam in product(range(total + 1), repeat=n):
        if sum(lam) <= total and all(a >= b for a, b in zip(lam, lam[1:])):
            out.append(lam)
    return out


def test_04_gl_oracle_grid():
    failures = []
    for n in (1, 2, 3):
        spec = make_spec("gl", n)
        for lam in _dominant_partitions(n, 3):
            qo = oracle_minpoly(build_irrep_gl(lam, n))
            qf = minpoly_from_weight(spec, lam)
            qc, _ = certified_minimal_polynomial(spec, lam)
            if not (qo == qf == qc):
                failures.append((spec.label, lam, str(qo), str(qf), str(qc)))
    _conclude(4, "gl-oracle-grid", failures)


def test_05_exhaustive_singular_grid():
    failures = []
    grids = (("gl", 2), ("gl", 3), ("sp", 1), ("o_odd", 1), ("o_even", 2))
    for family, n in grids:
        spec = make_spec(family, n)
        for lam in product(range(-2, 3), repeat=n):
            qf = minpoly_from_weight(spec, lam)
            qc, _ = certified_minimal_polynomial(spec, lam)
            if qc != qf:
                failures.append((spec.label, lam, str(qf), str(qc)))
    _conclude(5, "exhaustive-singular-grid", failures)


def test_06_defining_modules():
    failures = []
    # n = 1 degenerates: the shifted weight is (1) alone, the zero root
    # never appears, and oracle and certifier agree on u - 1
    cases = [(("gl", 1), UniPoly.from_roots([1]))]
    cases += [(("gl", n), UniPoly.from_roots([0, n])) for n in range(2, 6)]
    cases.append((("sp", 1), UniPoly.from_roots([-1, 3])))
    for (family, n), want in cases:
        spec = make_spec(family, n)
        lam = (1,) + (0,) * (n - 1)
        qc, _ = certified_minimal_polynomial(spec, lam)
        if qc != want:
            failures.append(("certified", spec.label, str(qc)))
        qo = oracle_minpoly(build_catalog_rep(family, n, "defining"))
        if qo != want:
            failures.append(("oracle", spec.label, str(qo)))
    _conclude(6, "defining-modules", failures)


def test_07_relative_projection_identities():
    failures = []
    for spec, lam in acceptance_relative_weights():
        reports = symbolic_relative_formulas(spec, lam, K=6)
        for rep in reports[:2]:
            if not rep.exact:
                failures.append((spec.label, lam, rep.name))
    _conclude(7, "relative-projection-identities", failures)


def test_08_projection_axioms():
    failures = []
    algebras = [("gl", 1), ("gl", 2), ("gl", 3)] + list(BC_SPECS)
    for family, n in algebras:
        spec = make_spec(family, n)
        rng = random.Random(f"acceptance-proj-{spec.label}")
        ngen = len(spec.gens)
        cartan = [spec.gens[g] for g in range(ngen)
                  if spec.triangular[g] == CARTAN]
        raising = [spec.gens[g] for g in range(ngen)
                   if spec.triangular[g] == POS]
        lowering = [spec.gens[g] for g in range(ngen)
                    if spec.triangular[g] not in (CARTAN, POS)]
        mi = spec.matrix_indices
        for it in range(200):
            a = _random_element(rng, spec)
            h1 = pbw_normalize(spec, [rng.choice(cartan)
                                      for _ in range(rng.randint(0, 2))])
            h2 = pbw_normalize(spec, [rng.choice(cartan)
                                      for _ in range(rng.randint(0, 2))])
            if project_hc(h1 * a * h2) != h1 * project_hc(a) * h2:
                failures.append(("hc-bimodule", spec.label, it))
            if raising:
                e = pbw_normalize(spec, [rng.choice(raising)])
                f = pbw_normalize(spec, [rng.choice(lowering)])
                if not project_hc(f * a).is_zero():
                    failures.append(("hc-kills-lower", spec.label, it))
                if not project_hc(a * e).is_zero():
                    failures.append(("hc-kills-upper", spec.label, it))
            if n >= 2:
                t = rng.randint(1, n)
                p = parabolic(spec, t)
                levi = [spec.gens[g] for g in sorted(p.levi)]
                m1 = pbw_normalize(spec, [rng.choice(levi)
                                          for _ in range(rng.randint(0, 1))])
                if project_relative(m1 * a, p) != m1 * project_relative(a, p):
                    failures.append(("rel-bimodule", spec.label, t, it))
                lower = [g for g in range(len(spec.gens))
                         if g not in p.levi and spec.triangular[g] == NEG]
                if lower:
                    fp = spec.gens[rng.choice(lower)]
                    bad = project_relative(pbw_normalize(spec, [fp]) * a, p)
                    if not bad.is_zero():
                        failures.append(("rel-kills-lower", spec.label, t, it))
                pt, p1 = parabolic(spec, n), parabolic(spec, 1)
                if project_relative(project_relative(a, pt), p1) \
                        != project_relative(a, p1):
                    failures.append(("composition-chain", spec.label, it))
                if project_hc(project_relative(a, pt)) != project_hc(a):
                    failures.append(("composition-hc", spec.label, it))
            word = [(rng.choice(mi), rng.choice(mi))
                    for _ in range(rng.randint(0, 3))]
            lam = tuple(F(rng.randint(-5, 5), rng.choice([1, 2]))
                        for _ in range(n))
            engine = evaluate_at_weight(
                project_hc(pbw_normalize(spec, word)), lam)
            if hw_coefficient(spec, word, lam) != engine:
                failures.append(("projhw", spec.label, it))
    _conclude(8, "projection-axioms", failures)


def test_09_dual_pair_suite():
    failures = []
    for n, k in product((1, 2, 3), repeat=2):
        rep = check_conv_powers(n, k, 4)
        if not rep.passed:
            failures.append(("conv", n, k, rep.failures[:3]))
    for n, k in ((1, 1), (2, 1), (1, 2), (2, 2)):
        rep = check_resolvent_transfer(n, k, 4)
        if not rep.passed:
            failures.append(("transfer", n, k, rep.failures[:3]))
    for k in range(1, 5):
        for d in range(5):
            rep = check_divisibility_instance(1, k, d)
            if not rep.divisible:
                failures.append(("divisibility", k, d))
    _conclude(9, "dual-pair-suite", failures)


def test_10_trace_series_diagnostics():
    failures = []
    for family, n in BC_SPECS:
        spec = make_spec(family, n)
        rng = random.Random(f"acceptance-pp-{spec.label}")
        for _ in range(3):
            lam = tuple(F(rng.randint(-3, 3), rng.choice([1, 2]))
                        for _ in range(n))
            c1 = sum(evaluate_at_weight(d, lam)
                     for d in projected_diagonal(spec, 0))
            c2 = sum(evaluate_at_weight(d, lam)
                     for d in projected_diagonal(spec, 1))
            if c1 != spec.N:
                failures.append(("u^-1", spec.label, lam, str(c1)))
            if c2 != 0:
                failures.append(("u^-2", spec.label, lam, str(c2)))
    _conclude(10, "trace-series-diagnostics", failures)
