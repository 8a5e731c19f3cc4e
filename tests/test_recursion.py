"""The rank recursion, the lemmas of its proof, and its cross-check
against the Verma engine."""

import gc
import random
import weakref
from fractions import Fraction
from itertools import product
from math import comb

import pytest

from hwpoly import recursion, verma
from helpers import series_of_rational, verma_act, verma_apply
from hwpoly.algebra import NEG, POS, AlgebraSpec, Family, make_spec
from hwpoly.enveloping import UElement, project_hc
from hwpoly.genmatrix import (MatrixU, generator_matrix, generator_power,
                              projected_diagonal)
from hwpoly.polyrat import UniPoly, clear_denominators
from hwpoly.recursion import RecursionSeries, scaled_numerators
from hwpoly.shuffle import minpoly_from_weight
from hwpoly.verify import (certified_minimal_polynomial, certify_minimal,
                           projected_resolvent)
from hwpoly.verma import DiagonalSeries, VermaModule, prove_recursion

F = Fraction


# the simplex checks, (family, rank): D.  The recursion module proves
# the recursion at every rank; these cross-check the code against the
# Verma walk through degree D.  D = 2N + 1 covers the 2N + 2 terms of
# the resolvent, D = N the deg q + 1 <= N + 1 that certify reads
GL_SIMPLEX = {("gl", 0): 1, ("gl", 1): 3, ("gl", 2): 5, ("gl", 3): 7,
              ("gl", 4): 4, ("gl", 5): 5}
SIMPLEX = {
    **GL_SIMPLEX,
    ("sp", 0): 1, ("sp", 1): 5, ("sp", 2): 9, ("sp", 3): 6,
    ("o_even", 0): 1, ("o_even", 1): 5, ("o_even", 2): 9, ("o_even", 3): 6,
    ("o_odd", 0): 3, ("o_odd", 1): 7, ("o_odd", 2): 11, ("o_odd", 3): 7,
}


@pytest.mark.parametrize("family,n,D", [
    (family, n, D) for (family, n), D in sorted(SIMPLEX.items())])
def test_proof_covers_every_proven_entry(family, n, D):
    # a fresh spec, so the Verma tables of the D + 1 scales go with it
    points, mismatches = prove_recursion(AlgebraSpec(family, n), D)
    assert points == comb(n + 1 + D, n + 1)
    assert mismatches == []


def test_proof_sees_a_wrong_sp_constant(monkeypatch):
    monkeypatch.setattr(recursion, "SP_CORNER", 3)
    _, mismatches = prove_recursion(AlgebraSpec("sp", 2), 4)
    assert mismatches
    # the corner term enters R_(-n) only, from order 1 on
    assert {label for _, _, label, _ in mismatches} == {-2, -1}
    assert min(k for _, _, _, k in mismatches) == 1


def test_proof_sees_a_wrong_power_of_d(monkeypatch):
    # one more factor d in every term past the first is invisible at
    # d = 1, so the proof must hold points of every scale up to D + 1
    right = recursion.scaled_numerators

    def wrong(spec, L, d, K):
        return [[x * d ** (k > 0) for k, x in enumerate(col)]
                for col in right(spec, L, d, K)]

    monkeypatch.setattr(verma, "scaled_numerators", wrong)
    _, mismatches = prove_recursion(AlgebraSpec("gl", 2), 3)
    assert mismatches
    assert all(d > 1 for _, d, _, _ in mismatches)


# (family, label, report): the corner n, an inner label (o_odd's 0
# among them) and the opposite corner -n of each rank 3 family
BUMPS = [("gl", 3, "corner"), ("gl", 1, "inner-block"),
         ("sp", 3, "corner"), ("sp", -2, "inner-block"),
         ("sp", -3, "opposite-corner"),
         ("o_even", 3, "corner"), ("o_even", 2, "inner-block"),
         ("o_even", -3, "opposite-corner"),
         ("o_odd", 3, "corner"), ("o_odd", 0, "inner-block"),
         ("o_odd", -3, "opposite-corner")]


@pytest.mark.parametrize("lam,d", [((1, 0, 2), 1), ((1, F(1, 2), 2), 2)])
@pytest.mark.parametrize("family,label,report", BUMPS)
def test_relcheck_names_the_identity_and_order_of_a_wrong_term(
        monkeypatch, family, label, report, lam, d):
    # one int of the recursion off by one, at one label and order 3:
    # the report of that label's block reads it, as 1/d^3, and no other
    right = recursion.scaled_numerators
    spec = AlgebraSpec(family, 3)
    position = spec.matrix_indices.index(label)

    def bumped(spec, L, d, K):
        cols = right(spec, L, d, K)
        cols[position][3] += 1
        return cols

    monkeypatch.setattr(verma, "scaled_numerators", bumped)
    reports = verma.check_relative_formulas(spec, lam, K=6)
    names = ["corner", "inner-block"] + ["opposite-corner"] * (family != "gl")
    assert [r.name for r in reports] == names
    for r in reports:
        if r.name == report:
            assert r.residuals == (0, 0, 0, F(1, d ** 3), 0, 0)
            assert not r.exact
        else:
            assert r.exact, r


@pytest.mark.parametrize("family", ["gl", "sp", "o_even", "o_odd"])
def test_series_match_the_verma_series(family):
    # random weights of scale up to 6, read through the class
    rng = random.Random(f"recursion-{family}")
    for n in (1, 2, 3):
        spec = make_spec(family, n)
        # as many terms as resolvent reads
        K = 2 * spec.N + 2
        for _ in range(8):
            lam = tuple(F(rng.randint(-9, 9), rng.choice([1, 2, 3]))
                        for _ in range(n))
            mine = RecursionSeries(spec, lam)
            ref = DiagonalSeries(spec, lam)
            assert mine.values(K) == ref.values(K), (spec.label, lam)
            d, cols = mine.numerators(K)
            assert d == ref.numerators(K)[0]
            assert all(type(x) is int for col in cols for x in col)
            # a shorter request reads a prefix of the longest one's
            # columns, handed out uncopied and read-only
            assert all(type(col) is tuple for col in cols)
            assert mine.numerators(2) == (d, cols)
            assert mine.numerators(2)[1] is cols
            assert mine.values(2) == [col[:2] for col in mine.values(K)]


@pytest.mark.parametrize("family", ["sp", "o_even", "o_odd"])
def test_serves_every_order_past_the_old_table(family):
    # every order at every rank, past the ranks and orders the simplex
    # checks reach
    for n in (0, 3, 4, 10):
        spec = make_spec(family, n)
        lam = tuple(range(n, 0, -1))
        series = RecursionSeries(spec, lam)
        for K in (0, 1, 8, spec.N + 1, 2 * spec.N + 2, 4 * spec.N):
            d, cols = series.numerators(K)
            assert d == 1 and len(cols) == spec.N
            assert all(len(col) >= K for col in cols)
        # the fast answer certifies on it directly, with no fallback
        q = minpoly_from_weight(spec, lam)
        assert certify_minimal(series, q).polynomial == q


def test_gl_is_proven_at_every_rank_and_order():
    for n in (0, 1, 5, 6, 16, 40):
        spec = make_spec("gl", n)
        series = RecursionSeries(spec, tuple(range(n)))
        for K in (0, 1, spec.N + 1, 2 * spec.N + 2, 4 * spec.N):
            assert all(len(col) >= K for col in series.numerators(K)[1])
        assert len(series.values(2 * spec.N + 2)) == n


# the certifier runs on the recursion; either engine's series certifies
# to the one certificate, which names the engine it was read from
ENGINES = {"recursion": RecursionSeries, "verma": DiagonalSeries}


@pytest.mark.parametrize("family,n,lam,engine", [
    ("gl", 3, (2, 1, 0), "recursion"),
    ("sp", 3, (F(1, 2), 0, -1), "recursion"),
    ("o_odd", 3, (-2, -2, 0), "recursion"),
    ("sp", 4, (2, F(1, 2), 0, -1), "verma"),
    ("o_even", 4, (3, 2, 1, 0), "verma"),
    ("gl", 6, (5, 4, 3, 2, 1, 0), "recursion")])
def test_certificate_names_its_engine(family, n, lam, engine):
    spec = make_spec(family, n)
    _, cert = certified_minimal_polynomial(spec, lam)
    assert cert.engine == "recursion"
    mine = certify_minimal(ENGINES[engine](spec, lam),
                           minpoly_from_weight(spec, lam))
    assert mine.engine == engine
    assert cert._replace(engine=engine) == mine


@pytest.mark.parametrize("family,n,lam", [
    ("gl", 3, (5, 2, 1)), ("sp", 2, (3, 0)), ("o_even", 2, (1, 1)),
    ("o_odd", 2, (F(1, 2), F(-3, 2))),
    ("gl", 6, (3, F(1, 2), 2, -1, 0, 4))])
def test_resolvents_of_both_engines_agree(family, n, lam):
    spec = make_spec(family, n)
    assert projected_resolvent(RecursionSeries(spec, lam)) \
        == projected_resolvent(DiagonalSeries(spec, lam))


@pytest.mark.parametrize("n", range(9))
@pytest.mark.parametrize("family", ["gl", "sp", "o_even", "o_odd"])
def test_poles_are_the_characteristic_identity(family, n):
    # chi(u) = prod (u - l_k) for gl, prod (u - c + l_k)(u - c - l_k)
    # for o and sp, times u - n for o_odd, with c = n - 1 + epsilon and
    # l = lambda + rho: the N poles the recursion divides by
    rng = random.Random(f"poles-{family}-{n}")
    spec = make_spec(family, n)
    for den in (1, 2, 3, 6):
        lam = tuple(F(rng.randint(-12, 12), den) for _ in range(n))
        l = [x + r for x, r in zip(lam, spec.rho)]
        if spec.family is Family.GL:
            roots = l
        else:
            c = n - 1 + spec.epsilon
            roots = [c + s * x for x in l for s in (-1, 1)]
            roots += [n] if spec.family is Family.O_ODD else []
        d, L = clear_denominators(lam)
        poles = recursion.scaled_poles(spec, L, d)
        assert len(poles) == spec.N
        assert all(type(E) is int for E in poles)
        assert sorted(F(E, d) for E in poles) == sorted(roots), lam
        assert RecursionSeries(spec, lam).characteristic() \
            == UniPoly.from_roots(roots)


@pytest.mark.parametrize("n", range(4))
@pytest.mark.parametrize("family", ["gl", "sp", "o_even", "o_odd"])
def test_characteristic_identity_certifies_on_the_verma_walk(family, n):
    # chi annihilates on the independent engine too, and trims there to
    # the certifier's own certificate, on the box [-2, 2]^n in halves
    spec = AlgebraSpec(family, n)
    box = [F(k, 2) for k in range(-4, 5)]
    for lam in product(box, repeat=n):
        chi = RecursionSeries(spec, lam).characteristic()
        walk = certify_minimal(DiagonalSeries(spec, lam), chi)
        mine = certify_minimal(RecursionSeries(spec, lam), chi)
        _, cert = certified_minimal_polynomial(spec, lam)
        assert walk._replace(engine="recursion") == mine == cert, lam


# the gl proof in the recursion docstring, step by step: each finite
# fact about the structure constants it uses, at ranks 1-6


@pytest.mark.parametrize("n", range(1, 7))
def test_gl_proof_steps_2_to_4_on_the_brackets(n):
    spec = make_spec("gl", n)

    def E(i, j):
        return spec.gen_index[i, j]

    inner = range(1, n)
    upper = {E(q, n) for q in inner}
    levi = [E(p, r) for p in inner for r in inner] + [E(n, n)]
    # step 2: u+ = span{E_qn} raises and is l-stable
    assert all(spec.triangular[g] == POS for g in upper)
    for x in levi:
        for g in upper:
            assert {h for h, _ in spec.bracket(x, g)} <= upper
    # step 3: E_nn is central in l, and E_nr raises its eigenvalue by one
    assert all(spec.bracket(E(n, n), x) == () for x in levi)
    for r in inner:
        assert spec.triangular[E(n, r)] == NEG
        assert spec.bracket(E(n, n), E(n, r)) == ((E(n, r), 1),)
    # step 4: [E_qn, E_nr] = E_qr - delta_qr E_nn
    for q in inner:
        for r in inner:
            want = {E(q, r): 1}
            if q == r:
                want[E(n, n)] = -1
            assert dict(spec.bracket(E(q, n), E(n, r))) == want


@pytest.mark.parametrize("n", range(1, 7))
def test_gl_proof_step_6_block_identity(n):
    # (u - M')(u - a - 1) - (M' - a) = (u - a)(u - 1 - M') over the
    # inner algebra; both sides have degree at most 2 in u and 1 in a,
    # so the points u in {0, 1, 2}, a in {0, 1} fix them
    inner = make_spec("gl", n - 1)
    M = generator_matrix(inner)

    def scalar(c):
        return MatrixU.scalar(UElement, inner, inner.matrix_indices, c)

    minus_M = scalar(-1) * M
    for u in range(3):
        for a in range(2):
            lhs = (minus_M + u) * scalar(u - a - 1) + (minus_M + a)
            rhs = scalar(u - a) * (minus_M + (u - 1))
            assert lhs.rows == rhs.rows


@pytest.mark.parametrize("n", [2, 3, 4])
def test_gl_proof_step_5_on_verma_modules(n):
    # on W = U(l) v_lambda: B kills W, E_nn acts as a, and
    # E_qn E_nr w = (E_qr - delta_qr a) w; integral weights, so the
    # module's scaled generators are the generators themselves
    rng = random.Random(f"step-5-{n}")
    spec = make_spec("gl", n)
    inner = range(1, n)
    lowering = [(p, r) for p in inner for r in inner if p > r]

    words = [[]] + [[x] for x in lowering] \
        + [[x, y] for x in lowering for y in lowering]
    for _ in range(3):
        lam = tuple(rng.randint(-4, 4) for _ in range(n))
        module, a = VermaModule(spec, lam), lam[-1]

        def act(word, vec):
            for i, j in reversed(word):
                vec = verma_apply(module, spec.gen_index[i, j], vec)
            return vec

        for word in words:
            w = act(word, {0: 1})
            assert act([(n, n)], w) == {k: a * c for k, c in w.items() if a}
            for q in inner:
                assert act([(q, n)], w) == {}
                for r in inner:
                    want = act([(q, r)], w)
                    if q == r:
                        for k, c in w.items():
                            want[k] = want.get(k, 0) - a * c
                    want = {k: c for k, c in want.items() if c}
                    assert act([(q, n), (n, r)], w) == want, (lam, word)


@pytest.mark.parametrize("n", range(1, 9))
def test_gl_numerators_match_the_closed_form(n):
    # R_i = 1/(u - l_i) prod_(j > i) (u - l_j - 1)/(u - l_j), expanded
    # at infinity in Fraction arithmetic, through the resolvent's order
    rng = random.Random(f"closed-form-{n}")
    spec = make_spec("gl", n)
    K = 2 * spec.N + 2
    weights = [tuple(F(rng.randint(-12, 12), den) for _ in range(n))
               for den in (1, 2, 3, 6)]
    weights.append(tuple(F(rng.randint(-12, 12), rng.choice([1, 2, 3, 6]))
                         for _ in range(n)))
    for lam in weights:
        l = [x + n - j for j, x in enumerate(lam, 1)]
        d, L = clear_denominators(lam)
        cols = scaled_numerators(spec, L, d, K)
        assert len(cols) == n
        for i, col in enumerate(cols):
            num = UniPoly.from_roots([x + 1 for x in l[i + 1:]])
            _, tail = series_of_rational(num, UniPoly.from_roots(l[i:]), K)
            assert col == [s * d ** k for k, s in enumerate(tail)], (lam, i)


def seeded_weights(spec):
    """Integral dominant, tie-heavy, half-integral and negative weights."""
    n = spec.n
    rng = random.Random(f"past-the-table-{n}" if spec.family is Family.GL
                        else f"past-the-table-{spec.label}")
    dominant = sorted((rng.randint(-3, 5) for _ in range(n)), reverse=True)
    # shifted weights lambda + rho drawn from three values
    ties = [rng.choice([0, 1, 2]) - r for r in spec.rho]
    half = [F(rng.randrange(-7, 8, 2), 2) for _ in range(n)]
    negative = [rng.randint(-6, -1) for _ in range(n)]
    return [tuple(dominant), tuple(ties), tuple(half), tuple(negative)]


@pytest.mark.parametrize("n", range(6, 11))
def test_gl_certificates_past_the_old_table_match_the_verma_walk(n):
    # a fresh spec, so the Verma tables go with it
    spec = AlgebraSpec("gl", n)
    for lam in seeded_weights(spec):
        _, cert = certified_minimal_polynomial(spec, lam)
        assert cert.engine == "recursion"
        reference = certify_minimal(DiagonalSeries(spec, lam),
                                    minpoly_from_weight(spec, lam))
        assert cert._replace(engine="verma") == reference, lam


@pytest.mark.parametrize("n", [4, 5, 6])
@pytest.mark.parametrize("family", ["sp", "o_even", "o_odd"])
def test_certificates_past_the_old_table_match_the_verma_walk(family, n):
    # o and sp past the ranks the simplex checks reach: first the series,
    # through the terms the certificate reads, then the certificates
    spec = AlgebraSpec(family, n)
    for lam in seeded_weights(spec):
        q = minpoly_from_weight(spec, lam)
        walk = DiagonalSeries(spec, lam)
        K = q.degree + 1
        assert RecursionSeries(spec, lam).values(K) == walk.values(K), lam
        _, cert = certified_minimal_polynomial(spec, lam)
        assert cert.engine == "recursion"
        assert cert._replace(engine="verma") == certify_minimal(walk, q), lam


# the o and sp proof in the recursion docstring, step by step.  F[i,j]
# for any index pair is a dict {generator: coefficient}, and brackets
# of such dicts are read off spec.bracket


def span(spec, i, j):
    c, g = spec.resolve(i, j)
    return {g: c} if c else {}


def bracket(spec, x, y):
    out = {}
    for g, a in x.items():
        for h, b in y.items():
            for k, c in spec.bracket(g, h):
                out[k] = out.get(k, 0) + a * b * c
    return {k: c for k, c in out.items() if c}


def combination(*terms):
    """sum c x over the pairs (c, x) of dicts x."""
    out = {}
    for c, x in terms:
        for g, v in x.items():
            out[g] = out.get(g, 0) + c * v
    return {g: v for g, v in out.items() if v}


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("family", ["sp", "o_even", "o_odd"])
def test_o_sp_proof_steps_9_to_11_on_the_brackets(family, n):
    spec = make_spec(family, n)
    sp = spec.family is Family.SP
    labels = spec.matrix_indices
    inner = [i for i in labels if abs(i) < n]
    assert len(inner) == spec.N - 2
    m = span(spec, n, n)
    # H_1 = F[-n,-n] = -F[n,n]
    assert m == {spec.cartan_by_coord[0]: -1}
    upper = set()
    for j in labels:
        if j > -n:
            upper |= span(spec, -n, j).keys()
    levi = {g for g, (i, j) in enumerate(spec.gens)
            if abs(i) < n and abs(j) < n} | m.keys()
    # step 9: u+ raises and is l-stable, by the two brackets named
    assert all(spec.triangular[g] == POS for g in upper)
    for x in levi:
        for g in upper:
            assert {h for h, _ in spec.bracket(x, g)} <= upper
    for j in (j for j in labels if j > -n):
        assert bracket(spec, m, span(spec, -n, j)) == combination(
            (-1, span(spec, -n, j)), (-(j == n), span(spec, -n, n)))
        for p in inner:
            for r in inner:
                assert bracket(spec, span(spec, p, r), span(spec, -n, j)) \
                    == combination((-(p == j), span(spec, -n, r)),
                                   (spec.theta(p, r) * (r == -j),
                                    span(spec, -n, -p)))
    # ... and B lies in u+: F[q,n] = -theta(q,n) F[-n,-q], B_(-n) = F[-n,n]
    for q in inner:
        assert span(spec, q, n) == combination(
            (-spec.theta(q, n), span(spec, -n, -q)))
    assert span(spec, -n, n).keys() <= upper
    assert bool(span(spec, -n, n)) == sp
    # step 10: m is central in l and F[n,r] raises its eigenvalue by one
    assert all(bracket(spec, m, {x: 1}) == {} for x in levi)
    for r in inner:
        C = span(spec, n, r)
        assert {spec.triangular[g] for g in C} == {NEG}
        assert bracket(spec, m, C) == C
    # step 11
    for q in inner:
        for r in inner:
            assert bracket(spec, span(spec, q, n), span(spec, n, r)) \
                == combination((1, span(spec, q, r)), (-(q == r), m))
        assert bracket(spec, span(spec, -n, n), span(spec, n, q)) \
            == combination((2 * sp, span(spec, -n, q)))


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("family", ["sp", "o_even", "o_odd"])
def test_o_sp_proof_step_13_block_identity(family, n):
    # (u - M')(u + a - 1) - (M' + a) = (u + a)(u - 1 - M') over the
    # inner algebra, at the points u in {0, 1, 2}, a in {0, 1}
    inner = make_spec(family, n - 1)
    M = generator_matrix(inner)

    def scalar(c):
        return MatrixU.scalar(UElement, inner, inner.matrix_indices, c)

    minus_M = scalar(-1) * M
    for u in range(3):
        for a in range(2):
            lhs = (minus_M + u) * scalar(u + a - 1) + (minus_M + (-a))
            rhs = scalar(u + a) * (minus_M + (u - 1))
            assert lhs.rows == rhs.rows


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("family", ["sp", "o_even", "o_odd"])
def test_o_sp_proof_steps_9_to_12_on_verma_modules(family, n):
    # on W = U(l) v_lambda, spanned by words in the inner lowering
    # generators: u+ and B kill W, m acts as -a, F[q,n] F[n,r] acts as
    # F[q,r] + delta_qr a, and F[-n,n] F[n,r] as 0; integral weights, so
    # the module's scaled generators are the generators themselves
    rng = random.Random(f"o-sp-steps-{family}-{n}")
    spec = make_spec(family, n)
    labels = spec.matrix_indices
    inner = [i for i in labels if abs(i) < n]
    lowering = [g for g, (i, j) in enumerate(spec.gens)
                if abs(i) < n and abs(j) < n and spec.triangular[g] == NEG]
    words = [[]] + [[x] for x in lowering] \
        + [[x, y] for x in lowering for y in lowering]
    for _ in range(2):
        lam = tuple(rng.randint(-4, 4) for _ in range(n))
        module, a = VermaModule(spec, lam), lam[0]

        def act(pairs, vec):
            for i, j in reversed(pairs):
                out = {}
                for g, c in span(spec, i, j).items():
                    verma_apply(module, g, vec, c, out)
                vec = out
            return vec

        for word in words:
            w = {0: 1}
            for g in reversed(word):
                w = verma_apply(module, g, w)
            assert act([(n, n)], w) == {k: -a * c for k, c in w.items() if a}
            for j in labels:
                if j > -n:
                    assert act([(-n, j)], w) == {}
                if j != n:
                    assert act([(j, n)], w) == {}
            for q in inner:
                assert act([(-n, n), (n, q)], w) == {}
                for r in inner:
                    want = act([(q, r)], w)
                    if q == r:
                        for k, c in w.items():
                            want[k] = want.get(k, 0) + a * c
                    want = {k: c for k, c in want.items() if c}
                    assert act([(q, n), (n, r)], w) == want, (lam, word)


def entry(spec, P, i, j):
    """(P)_ij, or 0 when a label is outside the algebra."""
    if {i, j} <= set(spec.matrix_indices):
        return P[i, j]
    return UElement.zero(spec)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("family", ["sp", "o_even", "o_odd"])
def test_o_sp_proof_step_16_vector_operator_identity(family, n):
    # [F_ab, (M^p)_cd] in PBW form for every index pair (a, b), p <= 3
    spec = make_spec(family, n)
    labels = spec.matrix_indices
    for p in range(4):
        P = generator_power(spec, p)
        for a in labels:
            for b in labels:
                x, t = UElement.generator(spec, a, b), spec.theta(a, b)
                for c in labels:
                    for d in labels:
                        want = UElement.zero(spec)
                        if b == c:
                            want = want + P[a, d]
                        if a == d:
                            want = want - P[c, b]
                        if a == -c:
                            want = want - t * entry(spec, P, -b, d)
                        if b == -d:
                            want = want + t * entry(spec, P, c, -a)
                        assert x.commutator(P[c, d]) == want, (p, a, b, c, d)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("family", ["sp", "o_even", "o_odd"])
def test_o_sp_proof_steps_17_and_18_the_opposite_corner(family, n):
    # step 17 in PBW form: moving each F[-n,j], j > -n, to the right
    # leaves (N - 2 + [sp] 2) P_(-n,-n) - sum_inner P_jj - [sp] 2 P_nn;
    # step 18 in U(h): pi((M^k)_(-n,-n)) = (H_1 + 2 rho_1) pi(P_(-n,-n))
    # - sum_inner pi(P_jj) - [sp] 2 pi(P_nn), with P = M^(k-1)
    spec = make_spec(family, n)
    sp = spec.family is Family.SP
    labels = spec.matrix_indices
    inner = [i for i in labels if abs(i) < n]
    two_rho_1 = spec.N - 2 + 2 * sp
    assert 2 * spec.rho[0] == two_rho_1
    H_1 = UElement.generator(spec, -n, -n)
    for k in range(1, 5):
        P = generator_power(spec, k - 1)
        moved = H_1 * P[-n, -n] + (two_rho_1 * P[-n, -n]
                                   - 2 * sp * P[n, n])
        for j in labels:
            if j > -n:
                F_j = UElement.generator(spec, -n, j)
                moved = moved + P[j, -n] * F_j
                # pi kills U(g) n+
                assert project_hc(P[j, -n] * F_j).is_zero()
        for j in inner:
            moved = moved - P[j, j]
        assert generator_power(spec, k)[-n, -n] == moved
        pi, before = projected_diagonal(spec, k), projected_diagonal(spec, k - 1)
        at = dict(zip(labels, before))
        want = (H_1 + two_rho_1) * at[-n] - 2 * sp * at[n]
        for j in inner:
            want = want - at[j]
        assert pi[labels.index(-n)] == want


def test_o_sp_proof_step_19_rank_zero():
    # o_odd's rank 0 matrix is [F[0,0]] = [0], so R_0 = 1/u
    spec = make_spec("o_odd", 0)
    assert generator_matrix(spec).rows == [[UElement.zero(spec)]]
    assert scaled_numerators(spec, (), 1, 5) == [[1, 0, 0, 0, 0]]
    for family in ("sp", "o_even"):
        assert scaled_numerators(make_spec(family, 0), (), 1, 5) == []


# ROADMAP item 3: the fast (shuffle) answer is a proper multiple of the
# certified one at each of these weights
ITEM_2 = [("o_odd", 3, (-2, -2, 0)),
          ("o_odd", 3, (F(-5, 2), F(-5, 2), F(1, 2))),
          ("sp", 3, (-3, -3, 0)),
          ("o_odd", 4, (-3, -3, 0, 0)),
          ("o_odd", 4, (-3, -1, -2, 0)),
          ("o_odd", 4, (-3, -3, F(3, 2), 0))]


@pytest.mark.xfail(strict=True, reason="ROADMAP item 3: the mirror shuffle "
                   "gives a proper multiple of the minimal polynomial")
@pytest.mark.parametrize("family,n,lam", ITEM_2)
def test_fast_equals_certified_at_item_2_weights(family, n, lam):
    spec = make_spec(family, n)
    assert minpoly_from_weight(spec, lam) \
        == certified_minimal_polynomial(spec, lam)[0]


@pytest.mark.parametrize("family,n,lam", [("o_odd", 3, (-2, -2, 0)),
                                          ("sp", 3, (-3, -3, 0))])
def test_both_engines_trim_item_2_candidates_alike(family, n, lam):
    # the recursion and the Verma walk give one certificate
    spec = make_spec(family, n)
    q = minpoly_from_weight(spec, lam)
    mine = certify_minimal(RecursionSeries(spec, lam), q)
    ref = certify_minimal(DiagonalSeries(spec, lam), q)
    assert mine.polynomial.degree < q.degree
    assert (mine.engine, ref.engine) == ("recursion", "verma")
    assert mine._replace(engine=None) == ref._replace(engine=None)


def test_dropped_spec_is_freed_without_the_cycle_collector():
    # neither the generator order nor the Verma tables may tie a spec
    # into a reference cycle
    gc.disable()
    try:
        spec = AlgebraSpec("sp", 3)
        lam = (2, 1, 0)
        cert = certify_minimal(DiagonalSeries(spec, lam),
                               minpoly_from_weight(spec, lam))
        assert spec._cache_misc["verma", 1].rows
        ref = weakref.ref(spec)
        del spec
        assert ref() is None
        assert cert.engine == "verma"
    finally:
        gc.enable()


def test_a_module_keeps_its_spec_alive():
    # the table refers to its spec weakly, so a module built on a spec
    # that no one else holds must still act
    module = VermaModule(AlgebraSpec("gl", 2), (3, 0))
    h = module.spec.cartan_by_coord[0]
    assert verma_act(module, h, 0) == {0: 3}
