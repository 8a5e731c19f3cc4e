import random
from collections import Counter
from fractions import Fraction
from functools import reduce
from operator import or_

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import poly_divmod, poly_gcd, series_of_rational
from hwpoly.polyrat import (
    ReconstructionError,
    TruncationError,
    UniPoly,
    monic_lcm,
    pade_reconstruct,
    rat,
    root_multiset,
    scaled_product,
    scaled_quotient,
)

F = Fraction
U = UniPoly((0, 1))


def test_unipoly_normalisation():
    assert UniPoly((1, 2, 0, 0)).coeffs == (Fraction(1), Fraction(2))
    assert UniPoly(()).coeffs == ()
    assert UniPoly((0,)).coeffs == ()
    assert UniPoly((0, 0, 1)).degree == 2
    assert UniPoly(()).degree == -1


def test_unipoly_arithmetic():
    p = UniPoly((-1, 1)) * UniPoly((-2, 1))
    assert p == UniPoly((2, -3, 1))
    q, r = poly_divmod(p, UniPoly((-1, 1)))
    assert q == UniPoly((-2, 1)) and not r.coeffs
    assert root_multiset(UniPoly((-1, 1))) <= root_multiset(p)
    assert not root_multiset(UniPoly((-3, 1))) <= root_multiset(p)
    # the kernel divides out a root, and refuses any other value
    assert scaled_quotient(p.coeffs, 2) == [-1, 1]
    assert scaled_quotient(p.coeffs, Fraction(1, 2)) is None


def test_monic_lcm():
    a = UniPoly((1, -2, 1))
    # frozen: lcm of (u-1)^2, u-1, u-2 is (u-1)^2 (u-2)
    assert monic_lcm([a, UniPoly((-1, 1)), UniPoly((-2, 1))]) \
        == UniPoly((-2, 5, -4, 1))
    assert monic_lcm([]) == UniPoly((1,))
    assert monic_lcm([UniPoly((-2, 2))]) == UniPoly((-1, 1))
    with pytest.raises(ValueError):
        monic_lcm([UniPoly()])
    # u^2 - 2 has no rational root
    with pytest.raises(ValueError):
        monic_lcm([a, UniPoly((-2, 0, 1))])


def test_rational_roots():
    # (u-1)^2 (u-2), and (u-1/2)(u-3)u, known by their coefficients
    p = UniPoly((-2, 5, -4, 1))
    assert p.rational_roots() == [(Fraction(1), 2), (Fraction(2), 1)]
    q = UniPoly((0, F(3, 2), F(-7, 2), 1))
    assert q.rational_roots() == [
        (Fraction(0), 1), (Fraction(1, 2), 1), (Fraction(3), 1)]


def test_from_roots_hands_out_copies_of_its_roots():
    p = UniPoly.from_roots([2, Fraction(-1, 3), 2, 0])
    p.rational_roots().clear()
    assert p.rational_roots() == [
        (Fraction(-1, 3), 1), (Fraction(0), 1), (Fraction(2), 2)]


def _product_of_factors(roots):
    product = UniPoly((1,))
    for r in roots:
        product = product * UniPoly((-r, 1))
    return product


@pytest.mark.parametrize("roots", [
    [], [3], [2, 2, 2], [-1, F(-1, 2), -1], [F(1, 2), F(-1, 3), 0, F(5, 6)],
    [F(-7, 6), F(2, 3), F(2, 3), 4, F(-1, 2)]])
def test_from_roots_is_the_product_of_its_factors(roots):
    built = UniPoly.from_roots(roots)
    product = _product_of_factors(roots)
    assert built == product
    assert all(type(c) is Fraction for c in built.coeffs)
    assert built.rational_roots() == sorted(Counter(roots).items())
    assert UniPoly(product.coeffs).rational_roots() == built.rational_roots()


# Small rational roots, zero and negatives included, with denominators
# 1, 2 and 3: the search must still find what from_roots records.
_ROOTS = st.lists(
    st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 3])),
    max_size=5)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(_ROOTS)
def test_search_agrees_with_carried_roots(roots):
    built = UniPoly.from_roots(roots)
    carried = built.rational_roots()
    assert carried == sorted(Counter(roots).items())
    assert built == _product_of_factors(roots)
    # coefficients alone carry no roots, so this runs the divisor search
    assert UniPoly(built.coeffs).rational_roots() == carried


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(_ROOTS, st.integers(0, 4))
def test_synthetic_division_matches_polynomial_division(roots, pick):
    q = UniPoly.from_roots(roots + [Fraction(1, 2)])
    D, ints = q.scaled_roots()
    a = ints[pick % len(ints)]
    rest = scaled_quotient(scaled_product(ints), a)
    # the quotient's ints are in v = D u, as scaled_product's are
    m = len(rest) - 1
    quotient = UniPoly(Fraction(c, D ** (m - k)) for k, c in enumerate(rest))
    assert quotient == poly_divmod(q, UniPoly((-Fraction(a, D), 1)))[0]
    left = list(ints)
    left.remove(a)
    assert rest == scaled_product(left)


@pytest.mark.parametrize("value", [
    st.integers(-4, 4),
    st.builds(Fraction, st.integers(-4, 4), st.sampled_from([1, 2, 3, 6])),
], ids=["int", "fraction"])
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_scaled_quotient_divides_exactly_the_roots(value, data):
    # one pass tests and divides: None exactly off the root multiset, and
    # on it the long-division quotient, ints from ints
    roots = data.draw(st.lists(value, max_size=6))
    a = data.draw(st.one_of(value, st.sampled_from(roots)) if roots else value)
    cs = scaled_product(roots)
    rest = scaled_quotient(cs, a)
    quotient, remainder = poly_divmod(UniPoly(cs), UniPoly((-a, 1)))
    assert (rest is None) == (a not in roots) == bool(remainder.coeffs)
    if rest is not None:
        assert UniPoly(rest) == quotient
        if type(a) is int:
            assert all(type(c) is int for c in rest)


# roots of denominators 1, 2, 3 and 6, so common factors are frequent
_MIXED_ROOTS = st.lists(
    st.builds(Fraction, st.integers(-4, 4), st.sampled_from([1, 2, 3, 6])),
    max_size=5)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(_MIXED_ROOTS, _MIXED_ROOTS)
def test_fraction_arithmetic_follows_the_root_multisets(a, b):
    # on split monic polynomials, gcd, lcm, divisibility and division by
    # a factor are the multiset min, max, inclusion and difference of the
    # roots; the reference arithmetic runs on Fraction coefficients, the
    # package's lcm and root_multiset on Counters
    def built(roots):
        return UniPoly.from_roots(Counter(roots).elements())

    ca, cb = Counter(a), Counter(b)
    pa, pb = built(a), built(b)
    assert root_multiset(pa) == ca and root_multiset(pb) == cb
    assert poly_gcd(pa, pb) == built(ca & cb)
    assert monic_lcm([pa, pb]) == built(ca | cb)
    assert (not poly_divmod(pb, pa)[1].coeffs) == (ca <= cb)
    assert (not poly_divmod(pa, pb)[1].coeffs) == (cb <= ca)
    common = built(ca & cb)
    assert poly_divmod(pa, common) == (built(ca - cb), UniPoly())
    for r in ca:
        assert poly_divmod(pa, UniPoly((-r, 1)))[0] == built(ca - Counter([r]))


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(st.lists(_MIXED_ROOTS, max_size=4), st.integers(1, 4))
def test_monic_lcm_is_the_multiset_max_of_the_roots(groups, lead):
    # split polynomials built from their roots, and copies known by their
    # coefficients alone, times lead so not monic, which the lcm searches
    want = UniPoly.from_roots(
        reduce(or_, map(Counter, groups), Counter()).elements())
    built = [UniPoly.from_roots(g) for g in groups]
    assert monic_lcm(built) == want
    copies = [UniPoly(c * lead for c in p.coeffs) for p in built]
    got = monic_lcm(copies)
    assert got == want
    assert got.rational_roots() == want.rational_roots()
    # times u^2 - 2, which does not split over Q
    with pytest.raises(ValueError):
        monic_lcm(built + [UniPoly.from_roots(groups[0] if groups else [])
                           * UniPoly((-2, 0, 1))])


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(_MIXED_ROOTS, st.integers(0, 3))
def test_search_strips_repeated_zeros_beside_a_factor_that_does_not_split(
        roots, zeros):
    # the roots, zero repeated, times u^2 - 2, known by its coefficients:
    # the search slices off the zero roots, divides out each root it
    # finds and leaves u^2 - 2, which has no rational root
    R = roots + [Fraction(0)] * zeros
    p = UniPoly((UniPoly.from_roots(R) * UniPoly((-2, 0, 1))).coeffs)
    assert p.rational_roots() == sorted(Counter(R).items())


def test_scaled_roots_of_coefficients_alone():
    # searched once, then kept: (D, the ascending ints) with repetition
    q = UniPoly(UniPoly.from_roots([F(-1, 2), F(-1, 2), F(1, 4), 2]).coeffs)
    assert q.scaled_roots() == (4, (-2, -2, 1, 8))
    assert q.rational_roots() == [(F(-1, 2), 2), (F(1, 4), 1), (2, 1)]
    # a polynomial that does not split, u (u^2 - 2), keeps the roots found
    assert UniPoly((0, -2, 0, 1)).scaled_roots() == (1, (0,))


def test_series_of_geometric():
    # frozen: 1/(u-3) expands with tail 3^k
    poly, tail = series_of_rational(UniPoly((1,)), UniPoly((-3, 1)), 5)
    assert not poly.coeffs
    assert list(tail) == [3 ** k for k in range(5)]


def test_series_with_polynomial_part():
    # u^2/(u-1) = u + 1 + 1/(u-1)
    poly, tail = series_of_rational(U * U, UniPoly((-1, 1)), 4)
    assert poly == UniPoly((1, 1))
    assert list(tail) == [1, 1, 1, 1]


def test_series_multiply_back():
    # (2u^2 - u + 3)/((u - 1)(u + 2)) = 2 + (4/3)/(u - 1) - (13/3)/(u + 2),
    # so the u^-m coefficient is 4/3 - (13/3) (-2)^(m-1)
    num, den = UniPoly((3, -1, 2)), UniPoly.from_roots([1, -2])
    poly, tail = series_of_rational(num, den, 8)
    assert poly == UniPoly((2,))
    assert list(tail) == [-3, 10, -16, 36, -68, 140, -276, 556]
    # the tail alone gives the proper part, 7 - 3u over the same den
    assert pade_reconstruct(tail, 2) == (UniPoly((7, -3)), den)
    assert poly_divmod(num, den) == (poly, UniPoly((7, -3)))


def test_pade_frozen_example():
    # frozen: tail (1, 0, 2, 0, 4) is u/(u^2 - 2)
    num, den = pade_reconstruct((1, 0, 2, 0, 4), 2)
    assert num == U
    assert den == UniPoly((-2, 0, 1))


def test_pade_truncation_guard():
    with pytest.raises(TruncationError):
        pade_reconstruct((1, 0, 2), 2)


def test_pade_no_fit():
    with pytest.raises(ReconstructionError):
        pade_reconstruct((1, 1, 2, 6, 24, 120), 2)


def test_pade_round_trip_random():
    rng = random.Random(20260822)
    for _ in range(40):
        d = rng.randrange(0, 4)
        den = UniPoly([Fraction(rng.randrange(-4, 5), rng.randrange(1, 3))
                       for _ in range(d)] + [1])
        if not den.coeffs[0] and d > 0:
            # add 1 to the zero constant term
            den = UniPoly((1,) + den.coeffs[1:])
        num = UniPoly([Fraction(rng.randrange(-6, 7)) for _ in range(rng.randrange(0, d + 3))])
        if not num.coeffs:
            num, den = UniPoly(), UniPoly((1,))
        g = poly_gcd(num, den) if num.coeffs else UniPoly((1,))
        if g.degree > 0:
            # den and g are monic, so the quotient is too
            num = poly_divmod(num, g)[0]
            den = poly_divmod(den, g)[0]
        k = 2 * den.degree + 2
        poly, tail = series_of_rational(num, den, k)
        got_num, got_den = pade_reconstruct(tail, den.degree)
        assert got_den == den
        # num = poly got_den + got_num with got_num of lower degree
        assert poly_divmod(num, got_den) == (poly, got_num)


def test_rat_rejects_floats():
    with pytest.raises(TypeError):
        rat(0.5)
    assert rat("3/2") == Fraction(3, 2)
