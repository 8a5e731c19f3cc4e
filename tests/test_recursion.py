"""The rank recursion, its proof against the Verma engine, and the
engine the certifier picks."""

import gc
import random
import weakref
from fractions import Fraction
from math import comb

import pytest

from hwpoly import recursion, verify, verma
from helpers import series_of_rational, verma_act, verma_apply
from hwpoly.algebra import NEG, POS, AlgebraSpec, make_spec
from hwpoly.enveloping import UElement
from hwpoly.genmatrix import MatrixU, generator_matrix
from hwpoly.polyrat import UniPoly, clear_denominators
from hwpoly.recursion import (PROVEN, RecursionSeries, proven_terms,
                              scaled_numerators)
from hwpoly.shuffle import minpoly_from_weight
from hwpoly.verify import (certified_minimal_polynomial, certify_minimal,
                           projected_resolvent, series_for)
from hwpoly.verma import DiagonalSeries, VermaModule, prove_recursion

F = Fraction


# gl's simplex checks: the recursion module proves gl at every rank, and
# these cross-check the code against the Verma walk
GL_SIMPLEX = {("gl", 0): 1, ("gl", 1): 3, ("gl", 2): 5, ("gl", 3): 7,
              ("gl", 4): 4, ("gl", 5): 5}


@pytest.mark.parametrize("family,n,D", [
    (family, n, D) for (family, n), D
    in sorted({**GL_SIMPLEX, **PROVEN}.items())])
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


@pytest.mark.parametrize("family", ["gl", "sp", "o_even", "o_odd"])
def test_series_match_the_verma_series(family):
    # random weights of scale up to 6, read through the class
    rng = random.Random(f"recursion-{family}")
    for n in (1, 2, 3):
        spec = make_spec(family, n)
        # gl is proven at every order: read as many terms as resolvent
        K = 2 * spec.N + 2 if family == "gl" else proven_terms(spec)
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


def test_refuses_terms_past_its_table_entry():
    spec = make_spec("sp", 3)
    series = RecursionSeries(spec, (3, 1, -2))
    assert len(series.numerators(PROVEN["sp", 3] + 1)[1][0]) == 7
    with pytest.raises(ValueError, match="proven for 7 terms of sp_6"):
        series.numerators(8)
    # past the table not even one term is proven
    past = RecursionSeries(make_spec("sp", 4), (0,) * 4)
    assert past.numerators(0) == (1, ((),) * 8)
    with pytest.raises(ValueError):
        past.values(1)


def test_series_for_picks_the_engine_by_the_order():
    sp3, sp4 = make_spec("sp", 3), make_spec("sp", 4)
    assert type(series_for(sp3, (2, 1, 0), 7)) is RecursionSeries
    assert type(series_for(sp3, (2, 1, 0), 8)) is DiagonalSeries
    assert type(series_for(sp4, (0,) * 4, 1)) is DiagonalSeries


def test_gl_is_proven_at_every_rank_and_order():
    assert not [key for key in PROVEN if key[0] == "gl"]
    for n in (0, 1, 5, 6, 16, 40):
        spec = make_spec("gl", n)
        for K in (0, 1, spec.N + 1, 2 * spec.N + 2, 10 ** 6):
            assert type(series_for(spec, (0,) * n, K)) is RecursionSeries
        series = RecursionSeries(spec, tuple(range(n)))
        assert len(series.values(2 * spec.N + 2)) == n


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
    assert cert.engine == engine
    reference = certify_minimal(DiagonalSeries(spec, lam),
                                minpoly_from_weight(spec, lam))
    assert reference.engine == "verma"
    assert cert._replace(engine="verma") == reference


@pytest.mark.parametrize("family,n,lam", [
    ("gl", 3, (5, 2, 1)), ("sp", 2, (3, 0)), ("o_even", 2, (1, 1)),
    ("o_odd", 2, (F(1, 2), F(-3, 2))),
    ("gl", 6, (3, F(1, 2), 2, -1, 0, 4))])
def test_resolvents_of_both_engines_agree(family, n, lam):
    spec = make_spec(family, n)
    series = series_for(spec, lam, verify.resolvent_order(spec))
    assert type(series) is RecursionSeries
    assert projected_resolvent(series) \
        == projected_resolvent(DiagonalSeries(spec, lam))


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


def seeded_gl_weights(n):
    """Integral dominant, tie-heavy, half-integral and negative weights."""
    rng = random.Random(f"past-the-table-{n}")
    dominant = sorted((rng.randint(-3, 5) for _ in range(n)), reverse=True)
    # shifted weights l_j = lambda_j + n - j drawn from three values
    ties = [rng.choice([0, 1, 2]) - (n - j) for j in range(1, n + 1)]
    half = [F(rng.randrange(-7, 8, 2), 2) for _ in range(n)]
    negative = [rng.randint(-6, -1) for _ in range(n)]
    return [tuple(dominant), tuple(ties), tuple(half), tuple(negative)]


@pytest.mark.parametrize("n", range(6, 11))
def test_gl_certificates_past_the_old_table_match_the_verma_walk(n):
    # a fresh spec, so the Verma tables go with it
    spec = AlgebraSpec("gl", n)
    for lam in seeded_gl_weights(n):
        _, cert = certified_minimal_polynomial(spec, lam)
        assert cert.engine == "recursion"
        reference = certify_minimal(DiagonalSeries(spec, lam),
                                    minpoly_from_weight(spec, lam))
        assert cert._replace(engine="verma") == reference, lam


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
    # proven ranks: the recursion and the Verma walk give one certificate
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
