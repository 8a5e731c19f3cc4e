import random
from fractions import Fraction
from itertools import product as iproduct
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hwpoly import howe
from hwpoly.genmatrix import MatrixU
from hwpoly.howe import (CheckReport, WeylAlgebra, WeylElement,
                         check_conv_powers, check_divisibility_instance,
                         check_resolvent_transfer, dual_pair, weyl_normalize)
from hwpoly.polyrat import UniPoly


def _unpack(alg, m):
    """(position exponents, derivative exponents) of a packed monomial:
    16-bit fields, positions in the low nvars fields."""
    assert m >= 0 and m >> 32 * alg.nvars == 0, m
    fields = [(m >> 16 * f) & 0xFFFF for f in range(2 * alg.nvars)]
    return tuple(fields[:alg.nvars]), tuple(fields[alg.nvars:])


def _unpacked(elem):
    """The terms of elem keyed by (position, derivative) exponent tuples."""
    return {_unpack(elem.spec, m): c for m, c in elem.terms.items()}


class TestWeylNormalize:
    def test_canonical_commutator(self):
        alg = WeylAlgebra(1, 1)
        got = weyl_normalize(alg, [("d", 1, 1), ("x", 1, 1)])
        want = alg.x(1, 1) * alg.d(1, 1) + 1
        assert got == want

    def test_positions_commute(self):
        alg = WeylAlgebra(2, 2)
        a = weyl_normalize(alg, [("x", 1, 2), ("x", 2, 1)])
        b = weyl_normalize(alg, [("x", 2, 1), ("x", 1, 2)])
        assert a == b

    def test_euler_square(self):
        # (x d)^2 = x^2 d^2 + x d in one variable
        alg = WeylAlgebra(1, 1)
        e = alg.x(1, 1) * alg.d(1, 1)
        xx = weyl_normalize(
            alg, [(Fraction(1), [("x", 1, 1), ("x", 1, 1),
                                 ("d", 1, 1), ("d", 1, 1)]),
                  (Fraction(1), [("x", 1, 1), ("d", 1, 1)])])
        assert e * e == xx

    def test_pair_form_and_empty_word(self):
        alg = WeylAlgebra(1, 2)
        assert weyl_normalize(alg, []) == WeylElement.scalar(alg, 1)
        got = weyl_normalize(alg, [(2, [("x", 2, 1)]), (-1, [])])
        assert got == 2 * alg.x(2, 1) - 1

    def test_unknown_atom_rejected(self):
        with pytest.raises(ValueError):
            weyl_normalize(WeylAlgebra(1, 1), [("y", 1, 1)])

    def test_index_out_of_range(self):
        alg = WeylAlgebra(2, 3)
        with pytest.raises(ValueError):
            alg.x(4, 1)
        with pytest.raises(ValueError):
            alg.d(1, 3)

    def test_mixed_algebras_rejected(self):
        with pytest.raises(ValueError):
            WeylAlgebra(1, 1).x(1, 1) * WeylAlgebra(1, 2).x(1, 1)


class TestProductLaw:
    def test_associativity_on_random_elements(self):
        rng = random.Random(611)
        alg = WeylAlgebra(2, 2)

        def rand_elem():
            out = WeylElement.zero(alg)
            for _ in range(rng.randint(1, 3)):
                xe = tuple(rng.randint(0, 2) for _ in range(alg.nvars))
                de = tuple(rng.randint(0, 2) for _ in range(alg.nvars))
                out = out + WeylElement(alg, {alg.monomial(xe, de):
                                              Fraction(rng.randint(-3, 3))})
            return out

        for _ in range(40):
            a, b, c = rand_elem(), rand_elem(), rand_elem()
            assert (a * b) * c == a * (b * c)

    def test_associativity_with_fraction_coefficients(self):
        rng = random.Random(612)
        alg = WeylAlgebra(2, 1)

        def rand_elem():
            terms = {}
            for _ in range(rng.randint(1, 3)):
                xe = tuple(rng.randint(0, 2) for _ in range(alg.nvars))
                de = tuple(rng.randint(0, 2) for _ in range(alg.nvars))
                terms[alg.monomial(xe, de)] = rng.choice(
                    [rng.randint(-3, 3),
                     Fraction(rng.randint(-3, 3), rng.choice([2, 3]))])
            return WeylElement(alg, {m: c for m, c in terms.items() if c})

        for _ in range(40):
            a, b, c = rand_elem(), rand_elem(), rand_elem()
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c

    def test_non_integral_scalar(self):
        alg = WeylAlgebra(1, 2)
        x, d = alg.x(2, 1), alg.d(1, 1)
        half = x * Fraction(1, 2)
        assert half != x
        assert set(map(type, half.terms.values())) == {Fraction}
        assert half * 2 == x
        # the product is integral again and is stored as an int
        assert set(map(type, (half * 2).terms.values())) == {int}
        assert (Fraction(1, 3) * d) * x * 3 == d * x
        assert WeylElement.scalar(alg, Fraction(4, 2)).terms == {
            alg.monomial((0, 0), (0, 0)): 2}

    def test_derivative_of_power(self):
        # d x^5 = x^5 d + 5 x^4
        alg = WeylAlgebra(1, 1)
        x, d = alg.x(1, 1), alg.d(1, 1)
        x5 = x * x * x * x * x
        assert d * x5 == x5 * d + 5 * (x * x * x * x)


def _contraction_sum(m1, m2):
    """The closed product formula summed over every variable, zeros included."""
    (g1, b1), (g2, b2) = m1, m2
    out = {}
    for mu in iproduct(*(range(min(b, g) + 1) for b, g in zip(b1, g2))):
        coeff = 1
        for b, g, m in zip(b1, g2, mu):
            coeff *= comb(b, m) * comb(g, m) * factorial(m)
        key = (tuple(x + y - m for x, y, m in zip(g1, g2, mu)),
               tuple(x + y - m for x, y, m in zip(b1, b2, mu)))
        out[key] = out.get(key, 0) + coeff
    return out


def _monomial_element(alg, m):
    """The one-term element 1 * x^g d^b of the exponent pair m = (g, b)."""
    return WeylElement(alg, {alg.monomial(*m): 1})


class TestMonomialProduct:
    def test_matches_contraction_sum_on_random_monomials(self):
        rng = random.Random(613)
        alg = WeylAlgebra(2, 2)

        def rand_exps():
            return tuple(rng.choice([0, 0, 0, 1, 2, 3])
                         for _ in range(alg.nvars))

        fast = 0
        for _ in range(400):
            m1 = (rand_exps(), rand_exps())
            m2 = (rand_exps(), rand_exps())
            got = _unpacked(_monomial_element(alg, m1)
                            * _monomial_element(alg, m2))
            assert got == _contraction_sum(m1, m2), (m1, m2)
            assert all(type(c) is int for c in got.values())
            fast += not any(b and g for b, g in zip(m1[1], m2[0]))
        # both the no-contraction path and the general sum are exercised
        assert 50 < fast < 350

    def test_no_contraction_adds_exponents(self):
        alg = WeylAlgebra(1, 2)
        m1 = ((1, 2), (0, 3))
        m2 = ((4, 0), (1, 1))
        got = _monomial_element(alg, m1) * _monomial_element(alg, m2)
        assert _unpacked(got) == {((5, 2), (1, 4)): 1}
        assert got.terms == {alg.monomial(*m1) + alg.monomial(*m2): 1}

    def test_packing_layout(self):
        # positions in the low fields, derivatives above, 16 bits each
        alg = WeylAlgebra(2, 1)
        packed = alg.monomial((1, 2), (3, 4))
        assert packed == 1 + (2 << 16) + (3 << 32) + (4 << 48)
        assert WeylElement.scalar(alg, 1).terms == {0: 1}
        assert alg.x(1, 2).terms == {1 << 16: 1}
        assert alg.d(1, 1).terms == {1 << 32: 1}
        for m in (((1, 2), (3, 4)), ((0, 0), (0, 0)),
                  ((2 ** 15 - 1, 0), (0, 7))):
            assert _unpack(alg, alg.monomial(*m)) == m

    @pytest.mark.parametrize("xe,de", [((2 ** 15, 0), (0, 0)),
                                       ((0, 0), (0, 2 ** 15)),
                                       ((-1, 0), (0, 0)),
                                       ((0,), (0, 0))])
    def test_packing_rejects_out_of_range(self, xe, de):
        with pytest.raises(ValueError):
            WeylAlgebra(2, 1).monomial(xe, de)


def _reference_product(alg, a, b):
    """a * b expanded term by term through _contraction_sum."""
    out = {}
    for m1, c1 in _unpacked(a).items():
        for m2, c2 in _unpacked(b).items():
            for m, c in _contraction_sum(m1, m2).items():
                out[m] = out.get(m, 0) + c1 * c2 * c
    return {m: c for m, c in out.items() if c}


_ALGEBRAS = st.sampled_from([(1, 1), (2, 1), (1, 2), (2, 2), (3, 1)])
_COEFFS = st.one_of(
    st.integers(-4, 4).filter(bool),
    st.builds(Fraction, st.integers(-4, 4).filter(bool),
              st.integers(2, 5)))


@st.composite
def _elements(draw, alg, lo=1, hi=6, positions=None, derivatives=None):
    """Elements of lo..hi terms, exponents 0..3; positions and derivatives
    name the variables that may carry a nonzero exponent (all by default)."""
    everywhere = range(alg.nvars)
    positions = everywhere if positions is None else positions
    derivatives = everywhere if derivatives is None else derivatives
    exps = st.integers(0, 3)
    monomial = st.tuples(
        st.tuples(*(exps if v in positions else st.just(0)
                    for v in everywhere)),
        st.tuples(*(exps if v in derivatives else st.just(0)
                    for v in everywhere)))
    terms = draw(st.dictionaries(monomial, _COEFFS, min_size=lo,
                                 max_size=hi))
    return WeylElement(alg, {alg.monomial(*m): c for m, c in terms.items()})


_PROPERTY = settings(max_examples=60, deadline=None, derandomize=True,
                     database=None)


class TestPackedProductProperties:
    @_PROPERTY
    @given(st.data(), _ALGEBRAS, st.booleans())
    def test_matches_reference_in_both_orientations(self, data, shape,
                                                    left_smaller):
        # the outer loop of a product runs over the factor with fewer
        # terms; both choices must give the reference expansion
        alg = WeylAlgebra(*shape)
        few = data.draw(_elements(alg, 1, 3))
        many = data.draw(_elements(alg, 4, 6))
        a, b = (few, many) if left_smaller else (many, few)
        assert len(a.terms) != len(b.terms)
        assert _unpacked(a * b) == _reference_product(alg, a, b)

    @_PROPERTY
    @given(st.data(), _ALGEBRAS)
    def test_matches_reference_on_equal_sizes(self, data, shape):
        alg = WeylAlgebra(*shape)
        a = data.draw(_elements(alg))
        b = data.draw(_elements(alg))
        assert _unpacked(a * b) == _reference_product(alg, a, b)

    @_PROPERTY
    @given(st.data(), st.sampled_from([(2, 1), (1, 2), (2, 2), (3, 1)]),
           st.booleans())
    def test_disjoint_supports_add_exponents(self, data, shape, swap):
        # no derivative of the left factor meets a position of the right
        # one, so every term product is the sum of the two ints
        alg = WeylAlgebra(*shape)
        cut = alg.nvars // 2
        lo, hi = range(cut), range(cut, alg.nvars)
        if swap:
            lo, hi = hi, lo
        a = data.draw(_elements(alg, derivatives=lo))
        b = data.draw(_elements(alg, positions=hi))
        want = {}
        for m1, c1 in a.terms.items():
            for m2, c2 in b.terms.items():
                want[m1 + m2] = want.get(m1 + m2, 0) + c1 * c2
        assert (a * b).terms == {m: c for m, c in want.items() if c}
        assert _unpacked(a * b) == _reference_product(alg, a, b)

    @_PROPERTY
    @given(st.data(), _ALGEBRAS)
    def test_associative(self, data, shape):
        alg = WeylAlgebra(*shape)
        a, b, c = (data.draw(_elements(alg)) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


class TestExponentGuard:
    @staticmethod
    def _power(e, k):
        # e^(2^k) by repeated squaring
        for _ in range(k):
            e = e * e
        return e

    @pytest.mark.parametrize("atom", ["x", "d"])
    def test_field_of_two_to_the_fifteen_rejected(self, atom):
        alg = WeylAlgebra(2, 1)
        gen = getattr(alg, atom)(1, 2)
        half = self._power(gen, 14)
        # a product may reach 2^15 exactly, as its factors stay below it
        full = half * half
        assert _unpacked(full) == (
            {((0, 2 ** 15), (0, 0)): 1} if atom == "x"
            else {((0, 0), (0, 2 ** 15)): 1})
        other = alg.x(1, 1) + alg.d(1, 2)
        for left, right in ((full, other), (other, full), (full, full),
                            (full, WeylElement.scalar(alg, 1))):
            with pytest.raises(ValueError, match="2\\*\\*15"):
                left * right

    def test_guard_runs_before_anything_is_added(self):
        alg = WeylAlgebra(1, 1)
        bad = WeylElement(alg, {1: 1, 1 << 15: 1})
        acc = {}
        with pytest.raises(ValueError):
            howe._add_product(alg, acc, alg.x(1, 1).terms, bad.terms)
        with pytest.raises(ValueError):
            howe._add_product(alg, acc, bad.terms, alg.x(1, 1).terms)
        assert acc == {}

    def test_largest_field_below_the_guard_is_exact(self):
        # two fields of 2^15 - 1 sum to 2^16 - 2 without touching the
        # neighbouring field
        alg = WeylAlgebra(2, 1)
        top = 2 ** 15 - 1
        xt = WeylElement(alg, {alg.monomial((top, 0), (0, 0)): 1})
        dt = WeylElement(alg, {alg.monomial((0, 0), (top, 0)): 1})
        assert _unpacked(xt * xt) == {((2 * top, 0), (0, 0)): 1}
        assert _unpacked(dt * dt) == {((0, 0), (2 * top, 0)): 1}
        assert _unpacked(dt * alg.x(1, 1)) == {((1, 0), (top, 0)): 1,
                                                ((0, 0), (top - 1, 0)): top}


class TestDualPair:
    def test_gl_relations_both_sides(self):
        for n, k in [(1, 2), (2, 2), (2, 3)]:
            emb = dual_pair(n, k)
            for mat, size in ((emb.left, k), (emb.right, n)):
                labels = range(1, size + 1)
                assert mat.labels == tuple(labels)
                for i in labels:
                    for j in labels:
                        for p in labels:
                            for q in labels:
                                got = mat[i, j].commutator(mat[p, q])
                                want = WeylElement.zero(emb.alg)
                                if j == p:
                                    want = want + mat[i, q]
                                if q == i:
                                    want = want - mat[p, j]
                                assert got == want

    def test_left_right_commute(self):
        for n, k in [(1, 1), (2, 2), (3, 2), (2, 3)]:
            emb = dual_pair(n, k)
            for row in emb.left.rows:
                for e in row:
                    for row2 in emb.right.rows:
                        for f in row2:
                            assert e.commutator(f).is_zero()


class TestConvPowers:
    def test_scalar_case_hand_value(self):
        rep = check_conv_powers(1, 1, 1)
        assert rep.passed
        # the r = 1 identity in one variable reads x d x = x^2 d + x
        alg = WeylAlgebra(1, 1)
        x, d = alg.x(1, 1), alg.d(1, 1)
        assert x * d * x == x * x * d + x

    def test_small_grid(self):
        for n in (1, 2):
            for k in (1, 2):
                rep = check_conv_powers(n, k, 3)
                assert rep.passed, rep.failures
                assert rep.checks == 4 * n * k

    def test_rectangular(self):
        assert check_conv_powers(2, 1, 2).passed
        assert check_conv_powers(1, 3, 2).passed

    def test_products_keep_int_coefficients(self, monkeypatch):
        # the checks add their sums in place through _add_product, and the
        # matrix powers of L and R add each entry through the class's
        # kernel WeylElement._add_product, which WeylElement.__mul__ also
        # calls; spy on all three
        seen, summed, powered = set(), set(), set()
        mul, add_product = WeylElement.__mul__, howe._add_product

        def spy(self, other):
            out = mul(self, other)
            seen.update(type(c) for c in out.terms.values())
            return out

        def spy_sum(alg, acc, left, right):
            add_product(alg, acc, left, right)
            summed.update(type(c) for c in acc.values())

        def spy_kernel(alg, acc, left, right):
            add_product(alg, acc, left, right)
            powered.update(type(c) for c in acc.values())

        monkeypatch.setattr(WeylElement, "__mul__", spy)
        monkeypatch.setattr(howe, "_add_product", spy_sum)
        monkeypatch.setattr(WeylElement, "_add_product",
                            staticmethod(spy_kernel))
        assert check_conv_powers(2, 2, 2).passed
        assert seen == {int}
        assert summed == {int}
        assert powered == {int}
        summed.clear()
        powered.clear()
        assert check_resolvent_transfer(2, 2, 2).passed
        assert summed == {int}
        assert powered == {int}

    def test_negative_power_bound_rejected(self):
        # a negative bound would run no check and still report a pass
        with pytest.raises(ValueError):
            check_conv_powers(1, 1, -1)
        assert check_conv_powers(1, 1, 0).checks == 1


def _perturbed_dual_pair(n, k):
    """dual_pair(n, k) with one entry of L off by the scalar 1."""
    emb = dual_pair(n, k)
    rows = [list(row) for row in emb.left.rows]
    rows[0][-1] = rows[0][-1] + 1
    return emb._replace(left=MatrixU(WeylElement, emb.alg, emb.left.labels,
                                     rows))


class TestChecksCatchAWrongPair:
    # the in-place sums must still see a wrong L
    def test_conv_powers_fails(self, monkeypatch):
        monkeypatch.setattr(howe, "dual_pair", _perturbed_dual_pair)
        rep = check_conv_powers(2, 2, 2)
        assert not rep.passed
        assert rep.checks == 12
        # L^0 is the identity however L is perturbed
        assert {r for r, _, _ in rep.failures} == {1, 2}

    def test_resolvent_transfer_fails(self, monkeypatch):
        monkeypatch.setattr(howe, "dual_pair", _perturbed_dual_pair)
        rep = check_resolvent_transfer(2, 2, 2)
        assert not rep.passed
        assert rep.checks == 12
        # order 1 reads S_0 = I alone; order 2 reads S_1, where L enters
        assert {r for r, _, _ in rep.failures} == {2}


class TestResolventTransfer:
    def test_scalar_case(self):
        rep = check_resolvent_transfer(1, 1, 3)
        assert rep.passed
        assert rep.checks == 4

    def test_rectangular_cases(self):
        assert check_resolvent_transfer(2, 1, 3).passed
        assert check_resolvent_transfer(1, 2, 3).passed

    def test_report_shape(self):
        rep = check_resolvent_transfer(2, 2, 2)
        assert isinstance(rep, CheckReport)
        assert rep.passed
        assert rep.checks == 4 + 2 * 4

    @pytest.mark.parametrize("K", [0, -3])
    def test_order_below_one_rejected(self, K):
        # only the trivially equal zeroth order would be counted, a pass
        # that checks nothing
        with pytest.raises(ValueError, match="at least 1"):
            check_resolvent_transfer(2, 2, K)
        assert check_resolvent_transfer(1, 1, 1).checks == 2


class TestDivisibility:
    def test_frozen_k2_d1(self):
        rep = check_divisibility_instance(1, 2, 1)
        assert rep.q == UniPoly.from_roots([1])
        assert rep.q_prime == UniPoly.from_roots([0, 2])
        assert rep.product == UniPoly.from_roots([0, -1, 1])
        assert rep.divisible

    def test_degree_zero(self):
        rep = check_divisibility_instance(1, 3, 0)
        assert rep.q == UniPoly((0, 1))
        assert rep.divisible

    def test_k3_d2(self):
        assert check_divisibility_instance(1, 3, 2).divisible

    def test_sweep(self):
        for k in range(1, 5):
            for d in range(5):
                assert check_divisibility_instance(1, k, d).divisible

    def test_rank_restriction(self):
        with pytest.raises(ValueError):
            check_divisibility_instance(2, 2, 1)
        with pytest.raises(ValueError):
            check_divisibility_instance(1, 2, -1)
