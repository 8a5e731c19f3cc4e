import random
from fractions import Fraction
from itertools import product as iproduct
from math import comb, factorial

import pytest

from hwpoly.howe import (CheckReport, WeylAlgebra, WeylElement, _mono_mul,
                         check_conv_powers, check_divisibility_instance,
                         check_resolvent_transfer, dual_pair, weyl_normalize)
from hwpoly.polyrat import UniPoly


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
        assert weyl_normalize(alg, []) == WeylElement.one(alg)
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
                out = out + WeylElement(alg, {(xe, de):
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
                terms[(xe, de)] = rng.choice(
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
            ((0, 0), (0, 0)): 2}

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
            got = _mono_mul(alg, m1, m2)
            assert got == _contraction_sum(m1, m2), (m1, m2)
            assert all(type(c) is int for c in got.values())
            fast += not any(b and g for b, g in zip(m1[1], m2[0]))
        # both the no-contraction path and the general sum are exercised
        assert 50 < fast < 350

    def test_no_contraction_adds_exponents(self):
        alg = WeylAlgebra(1, 2)
        m1 = ((1, 2), (0, 3))
        m2 = ((4, 0), (1, 1))
        assert _mono_mul(alg, m1, m2) == {((5, 2), (1, 4)): 1}


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
        seen = set()
        mul = WeylElement.__mul__

        def spy(self, other):
            out = mul(self, other)
            seen.update(type(c) for c in out.terms.values())
            return out

        monkeypatch.setattr(WeylElement, "__mul__", spy)
        assert check_conv_powers(2, 2, 2).passed
        assert seen == {int}

    def test_negative_power_bound_rejected(self):
        # a negative bound would run no check and still report a pass
        with pytest.raises(ValueError):
            check_conv_powers(1, 1, -1)
        assert check_conv_powers(1, 1, 0).checks == 1


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
        assert rep.q == UniPoly.x()
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
