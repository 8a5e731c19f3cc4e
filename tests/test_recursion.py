"""The rank recursion, its proof against the Verma engine, and the
engine the certifier picks."""

import gc
import random
import weakref
from fractions import Fraction
from math import comb

import pytest

from hwpoly import recursion, verify
from helpers import verma_act
from hwpoly.algebra import AlgebraSpec, make_spec
from hwpoly.recursion import (PROVEN, RecursionSeries, proven_terms,
                              prove_recursion)
from hwpoly.shuffle import minpoly_from_weight
from hwpoly.verify import (certified_minimal_polynomial, certify_minimal,
                           projected_resolvent, series_for)
from hwpoly.verma import DiagonalSeries, VermaModule

F = Fraction


@pytest.mark.parametrize("family,n,D", [(family, n, D) for (family, n), D
                                         in sorted(PROVEN.items())])
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

    monkeypatch.setattr(recursion, "scaled_numerators", wrong)
    _, mismatches = prove_recursion(AlgebraSpec("gl", 2), 3)
    assert mismatches
    assert all(d > 1 for _, d, _, _ in mismatches)


@pytest.mark.parametrize("family", ["gl", "sp", "o_even", "o_odd"])
def test_series_match_the_verma_series(family):
    # random weights of scale up to 6, read through the class
    rng = random.Random(f"recursion-{family}")
    for n in (1, 2, 3):
        spec = make_spec(family, n)
        K = proven_terms(spec)
        for _ in range(8):
            lam = tuple(F(rng.randint(-9, 9), rng.choice([1, 2, 3]))
                        for _ in range(n))
            mine = RecursionSeries(spec, lam)
            ref = DiagonalSeries(spec, lam)
            assert mine.values(K) == ref.values(K), (spec.label, lam)
            d, cols = mine.numerators(K)
            assert d == ref.numerators(K)[0]
            assert all(type(x) is int for col in cols for x in col)
            # a shorter request is a prefix of the longest one
            assert mine.numerators(2) == (d, [col[:2] for col in cols])


def test_refuses_terms_past_its_table_entry():
    spec = make_spec("gl", 4)
    series = RecursionSeries(spec, (3, 1, 0, -2))
    assert len(series.numerators(PROVEN["gl", 4] + 1)[1][0]) == 5
    with pytest.raises(ValueError, match="proven for 5 terms of gl_4"):
        series.numerators(6)
    # past the table not even one term is proven
    past = RecursionSeries(make_spec("gl", 6), (0,) * 6)
    assert past.numerators(0) == (1, [[]] * 6)
    with pytest.raises(ValueError):
        past.values(1)


def test_series_for_picks_the_engine_by_the_order():
    gl3, gl6 = make_spec("gl", 3), make_spec("gl", 6)
    assert type(series_for(gl3, (2, 1, 0), 8)) is RecursionSeries
    assert type(series_for(gl3, (2, 1, 0), 9)) is DiagonalSeries
    assert type(series_for(gl6, (0,) * 6, 1)) is DiagonalSeries


@pytest.mark.parametrize("family,n,lam,engine", [
    ("gl", 3, (2, 1, 0), "recursion"),
    ("sp", 3, (F(1, 2), 0, -1), "recursion"),
    ("o_odd", 3, (-2, -2, 0), "recursion"),
    ("gl", 6, (5, 4, 3, 2, 1, 0), "verma"),
    ("o_even", 4, (3, 2, 1, 0), "verma")])
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
    ("o_odd", 2, (F(1, 2), F(-3, 2)))])
def test_resolvents_of_both_engines_agree(family, n, lam):
    spec = make_spec(family, n)
    series = series_for(spec, lam, verify.resolvent_order(spec))
    assert type(series) is RecursionSeries
    assert projected_resolvent(series) \
        == projected_resolvent(DiagonalSeries(spec, lam))


# ROADMAP item 2: the fast (shuffle) answer is a proper multiple of the
# certified one at each of these weights
ITEM_2 = [("o_odd", 3, (-2, -2, 0)),
          ("o_odd", 3, (F(-5, 2), F(-5, 2), F(1, 2))),
          ("sp", 3, (-3, -3, 0)),
          ("o_odd", 4, (-3, -3, 0, 0)),
          ("o_odd", 4, (-3, -1, -2, 0)),
          ("o_odd", 4, (-3, -3, F(3, 2), 0))]


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2: the mirror shuffle "
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
