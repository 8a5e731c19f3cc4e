import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import series_of_rational
from hwpoly.polyrat import (
    ReconstructionError,
    TruncationError,
    UniPoly,
    monic_lcm,
    pade_reconstruct,
    rat,
    scaled_product,
    scaled_quotient,
)

F = Fraction
U = UniPoly.x()


def test_unipoly_normalisation():
    assert UniPoly((1, 2, 0, 0)).coeffs == (Fraction(1), Fraction(2))
    assert UniPoly(()).is_zero()
    assert UniPoly((0,)).is_zero()
    assert UniPoly((0, 0, 1)).degree == 2
    assert UniPoly.zero().degree == -1


def test_unipoly_arithmetic():
    p = (U - 1) * (U - 2)
    assert p == U * U - 3 * U + 2
    q, r = divmod(p, U - 1)
    assert q == U - 2 and r.is_zero()
    assert (U - 1).divides(p)
    assert not (U - 3).divides(p)
    assert p.evaluate(2) == 0
    assert p.evaluate(Fraction(1, 2)) == Fraction(3, 4)


def test_unipoly_gcd_and_monic_lcm():
    a = (U - 1) ** 2
    b = (U - 1) * (U - 2)
    assert a.gcd(b) == U - 1
    # frozen: lcm of (u-1)^2, u-1, u-2 is (u-1)^2 (u-2)
    assert monic_lcm([a, U - 1, U - 2]) == (U - 1) ** 2 * (U - 2)
    assert monic_lcm([]) == UniPoly.one()
    assert monic_lcm([2 * (U - 1)]) == U - 1
    with pytest.raises(ValueError):
        monic_lcm([UniPoly.zero()])


def test_rational_roots():
    p = (U - 1) ** 2 * (U - 2)
    assert p.rational_roots() == [(Fraction(1), 2), (Fraction(2), 1)]
    q = (U - Fraction(1, 2)) * (U - 3) * U
    assert q.rational_roots() == [
        (Fraction(0), 1), (Fraction(1, 2), 1), (Fraction(3), 1)]


def test_from_roots_hands_out_copies_of_its_roots():
    p = UniPoly.from_roots([2, Fraction(-1, 3), 2, 0])
    p.rational_roots().clear()
    assert p.rational_roots() == [
        (Fraction(-1, 3), 1), (Fraction(0), 1), (Fraction(2), 2)]


def _product_of_factors(roots):
    product = UniPoly.one()
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
    assert quotient == q // UniPoly((-Fraction(a, D), 1))
    left = list(ints)
    left.remove(a)
    assert rest == scaled_product(left)


def test_scaled_roots_of_coefficients_alone():
    # searched once, then kept: (D, the ascending ints) with repetition
    q = (U + F(1, 2)) * (U + F(1, 2)) * (U - F(1, 4)) * (U - 2)
    assert q.scaled_roots() == (4, (-2, -2, 1, 8))
    assert q.rational_roots() == [(F(-1, 2), 2), (F(1, 4), 1), (2, 1)]
    # a polynomial that does not split keeps the roots found
    assert (U * (U * U - 2)).scaled_roots() == (1, (0,))


def test_series_of_geometric():
    # frozen: 1/(u-3) expands with tail 3^k
    poly, tail = series_of_rational(UniPoly.one(), U - 3, 5)
    assert poly.is_zero()
    assert list(tail) == [3 ** k for k in range(5)]


def test_series_with_polynomial_part():
    # u^2/(u-1) = u + 1 + 1/(u-1)
    poly, tail = series_of_rational(U * U, U - 1, 4)
    assert poly == U + 1
    assert list(tail) == [1, 1, 1, 1]


def test_series_multiply_back():
    # (2u^2 - u + 3)/((u - 1)(u + 2)) = 2 + (4/3)/(u - 1) - (13/3)/(u + 2),
    # so the u^-m coefficient is 4/3 - (13/3) (-2)^(m-1)
    num, den = 2 * U * U - U + 3, (U - 1) * (U + 2)
    poly, tail = series_of_rational(num, den, 8)
    assert poly == UniPoly((2,))
    assert list(tail) == [-3, 10, -16, 36, -68, 140, -276, 556]
    # the tail alone gives the proper part, 7 - 3u over the same den
    assert pade_reconstruct(tail, 2) == (7 - 3 * U, den)
    assert poly * den + (7 - 3 * U) == num


def test_pade_frozen_example():
    # frozen: tail (1, 0, 2, 0, 4) is u/(u^2 - 2)
    num, den = pade_reconstruct((1, 0, 2, 0, 4), 2)
    assert num == U
    assert den == U * U - 2


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
        while den.evaluate(0) == 0 and d > 0:
            den = den + 1
        num = UniPoly([Fraction(rng.randrange(-6, 7)) for _ in range(rng.randrange(0, d + 3))])
        if num.is_zero():
            num, den = UniPoly.zero(), UniPoly.one()
        g = num.gcd(den) if not num.is_zero() else UniPoly.one()
        if g.degree > 0:
            num = num // g
            den = (den // g).monic()
        k = 2 * den.degree + 2
        poly, tail = series_of_rational(num, den, k)
        got_num, got_den = pade_reconstruct(tail, den.degree)
        assert got_den == den
        assert poly * got_den + got_num == num


def test_rat_rejects_floats():
    with pytest.raises(TypeError):
        rat(0.5)
    assert rat("3/2") == Fraction(3, 2)
