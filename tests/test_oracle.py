"""Finite dimensional oracles: explicit modules, Krylov, Verma coefficients."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import ReferenceVerma, hw_coefficient, verma_act
from hwpoly.algebra import NEG, AlgebraSpec, make_spec
from hwpoly.enveloping import (VermaModule, evaluate_at_weight, pbw_normalize,
                               project_hc)
from hwpoly.oracle import (
    build_catalog_rep,
    build_irrep_gl,
    oracle_minpoly,
    weyl_dimension_gl,
)
from hwpoly.polyrat import UniPoly
from hwpoly.shuffle import minpoly_from_weight


def mat_mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
            for row in a]


def mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def entry_matrix(rep, i, j):
    """The matrix of F[i,j] (gl E[i,j]) on rep, sign folded in."""
    c, idx = rep.spec.resolve(i, j)
    return [[c * x for x in row] for row in rep.mats[idx]]


def assert_bracket_fidelity(rep):
    spec = rep.spec
    for a, (i, j) in enumerate(spec.gens):
        for b, (k, l) in enumerate(spec.gens):
            lhs = mat_sub(mat_mul(rep.mats[a], rep.mats[b]),
                          mat_mul(rep.mats[b], rep.mats[a]))
            rhs = [[Fraction(0)] * rep.dim for _ in range(rep.dim)]
            for h, c in spec.bracket(a, b):
                for r in range(rep.dim):
                    for s in range(rep.dim):
                        rhs[r][s] += c * rep.mats[h][r][s]
            assert lhs == [list(r) for r in rhs], (spec.label, (i, j), (k, l))


class TestCatalogReps:
    def test_trivial_minpoly(self):
        for family, n in [("gl", 3), ("sp", 2), ("o_odd", 1), ("o_even", 2)]:
            rep = build_catalog_rep(make_spec(family, n), "trivial")
            assert oracle_minpoly(rep) == UniPoly.x()

    def test_defining_fidelity(self):
        for family, n in [("gl", 2), ("sp", 1), ("sp", 2),
                          ("o_odd", 1), ("o_even", 2)]:
            assert_bracket_fidelity(build_catalog_rep(make_spec(family, n),
                                                      "defining"))

    def test_defining_gl_minpoly(self):
        for n in (2, 3):
            rep = build_catalog_rep(make_spec("gl", n), "defining")
            assert oracle_minpoly(rep) == UniPoly.from_roots([0, n])

    def test_defining_sp1_minpoly(self):
        rep = build_catalog_rep(make_spec("sp", 1), "defining")
        assert oracle_minpoly(rep) == UniPoly.from_roots([-1, 3])

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            build_catalog_rep(make_spec("gl", 2), "adjoint")


class TestIrrepGL:
    def test_dimensions(self):
        assert build_irrep_gl((1, 0), 2).dim == 2
        assert build_irrep_gl((1, 1), 2).dim == 1
        assert build_irrep_gl((2, 0), 2).dim == 3
        assert build_irrep_gl((1, 1, 0), 3).dim == 3
        assert build_irrep_gl((2, 1, 0), 3).dim == 8

    def test_weyl_dimension(self):
        assert weyl_dimension_gl((3, 1)) == 3
        assert weyl_dimension_gl((2, 1, 0)) == 8
        # not integral: a real exception, which python -O keeps
        with pytest.raises(ValueError):
            weyl_dimension_gl((Fraction(1, 2), 0))

    def test_determinant_rep(self):
        rep = build_irrep_gl((1, 1), 2)
        spec = rep.spec
        assert entry_matrix(rep, 1, 1) == [[1]]
        assert entry_matrix(rep, 2, 2) == [[1]]
        assert entry_matrix(rep, 1, 2) == [[0]]
        assert oracle_minpoly(rep) == UniPoly.from_roots([1])
        assert minpoly_from_weight(spec, (1, 1)) == UniPoly.from_roots([1])

    def test_bracket_fidelity(self):
        # the dense check costs about 20 s at dimension 20, so the gl_4
        # modules are the small ones, of dimension at most 6
        for lam, n in [((3,), 1), ((2, 0), 2), ((2, 1), 2), ((1, 1, 0), 3),
                       ((2, 1, 0), 3), ((1, 0, 0, 0), 4), ((1, 1, 0, 0), 4),
                       ((1, 1, 1, 0), 4)]:
            assert_bracket_fidelity(build_irrep_gl(lam, n))

    def test_degree_trace(self):
        for lam, n in [((2, 1), 2), ((1, 1, 1), 3)]:
            rep = build_irrep_gl(lam, n)
            tr = sum(entry_matrix(rep, i, i)[a][a]
                     for i in range(1, n + 1) for a in range(rep.dim))
            assert tr == sum(lam) * rep.dim

    def test_minpoly_matches_shuffle(self):
        assert oracle_minpoly(build_irrep_gl((3,), 1)) == \
            minpoly_from_weight(make_spec("gl", 1), (3,))
        grid2 = [(0, 0), (1, 0), (2, 0), (3, 0), (1, 1), (2, 1)]
        for lam in grid2:
            spec = make_spec("gl", 2)
            assert oracle_minpoly(build_irrep_gl(lam, 2)) == \
                minpoly_from_weight(spec, lam)
        for lam in [(0, 0, 0), (1, 0, 0), (1, 1, 0), (2, 0, 0)]:
            spec = make_spec("gl", 3)
            assert oracle_minpoly(build_irrep_gl(lam, 3)) == \
                minpoly_from_weight(spec, lam)

    @pytest.mark.parametrize("lam", [
        (0, 0, 0, 0), (1, 0, 0, 0), (2, 0, 0, 0), (1, 1, 0, 0),
        (3, 0, 0, 0), (2, 1, 0, 0), (1, 1, 1, 0), (4, 0, 0, 0),
        (3, 1, 0, 0), (2, 2, 0, 0), (2, 1, 1, 0), (1, 1, 1, 1)],
        ids=lambda lam: ",".join(map(str, lam)))
    def test_gl4_minpoly_matches_shuffle(self, lam):
        # every gl_4 partition of size at most 4, the oracle's bound
        assert oracle_minpoly(build_irrep_gl(lam, 4)) == \
            minpoly_from_weight(make_spec("gl", 4), lam)

    def test_rank_zero_is_the_trivial_module(self):
        # the empty weight once raised IndexError reading lam[-1]
        rep = build_irrep_gl((), 0)
        assert rep.dim == 1
        assert oracle_minpoly(rep) == UniPoly.one()

    def test_contract_errors(self):
        with pytest.raises(ValueError):
            build_irrep_gl((0, 1), 2)
        with pytest.raises(ValueError):
            build_irrep_gl((2, -1), 2)
        with pytest.raises(ValueError):
            build_irrep_gl((5, 0), 2)
        with pytest.raises(ValueError):
            build_irrep_gl((1, 0), 3)


class TestVerma:
    def test_lowering_then_raising(self):
        spec = make_spec("gl", 2)
        assert hw_coefficient(spec, [(1, 2), (2, 1)], (3, 1)) == 2
        assert hw_coefficient(spec, [(2, 1), (1, 2)], (3, 1)) == 0

    def test_cartan_word(self):
        spec = make_spec("gl", 2)
        assert hw_coefficient(spec, [(1, 1), (1, 1)], (Fraction(1, 2), 0)) \
            == Fraction(1, 4)
        assert hw_coefficient(spec, [], (5, 7)) == 1

    def test_sp1_pairing(self):
        spec = make_spec("sp", 1)
        assert hw_coefficient(spec, [(-1, 1), (1, -1)], (5,)) == 20

    def test_orthogonal_zero_pair(self):
        spec = make_spec("o_odd", 1)
        assert hw_coefficient(spec, [(1, -1), (0, 0)], (3,)) == 0

    def test_third_integer_weights(self):
        # the action runs on the basis scaled by the denominator d of the
        # weight, so each value is an int divided by d to the word length
        spec = make_spec("sp", 1)
        assert hw_coefficient(spec, [(-1, 1), (1, -1)], (Fraction(1, 3),)) \
            == Fraction(4, 3)
        gl2 = make_spec("gl", 2)
        assert hw_coefficient(gl2, [(1, 2), (1, 1), (2, 1)],
                              (Fraction(2, 3), Fraction(-1, 3))) \
            == Fraction(-1, 3)
        assert hw_coefficient(gl2, [(1, 1)] * 3, (Fraction(-2, 3), 0)) \
            == Fraction(-8, 27)
        assert hw_coefficient(gl2, [(1, 2), (2, 1)], (Fraction(1, 6), 1)) \
            == Fraction(-5, 6)

    def test_packed_field_guard(self):
        # a field that would reach its top bit raises instead of carrying
        # into the next generator's field
        spec = make_spec("gl", 3)
        verma = VermaModule(spec, (2, 1, 0))
        lowering = [g for g, (i, j) in enumerate(spec.gens) if i > j]
        low, high = lowering[0], lowering[-1]
        unit = verma.table.unit
        nu = (2 ** 15 - 2) * unit[low] + (2 ** 15 - 1) * unit[high]
        assert verma_act(verma, low, nu) == {nu + unit[low]: 1}
        with pytest.raises(ValueError, match="2\\*\\*15"):
            verma_act(verma, low, nu + unit[low])
        with pytest.raises(ValueError):
            verma_act(verma, high, (2 ** 15 - 1) * unit[high])

    @pytest.mark.parametrize("family", ["gl", "sp", "o_even", "o_odd"])
    def test_monomial_weights_are_the_cartan_brackets(self, family):
        # a Cartan generator acts in closed form through the weights of
        # the lowering generators, read off their index pairs; each must
        # be the weight [H_k, x] = w_k x gives, and a monomial's the sum
        for n in (1, 2, 3, 4):
            spec = make_spec(family, n)
            table = VermaModule(spec, (0,) * n).table
            total, nu = [0] * n, 0
            for g, kind in enumerate(spec.triangular):
                if kind != NEG:
                    continue
                wt = tuple(dict(spec.bracket(h, g)).get(g, 0)
                           for h in spec.cartan_by_coord)
                assert all(b == g for h in spec.cartan_by_coord
                           for b, _ in spec.bracket(h, g))
                assert table._weight(table.unit[g]) == wt
                total = [t + 2 * w for t, w in zip(total, wt)]
                nu += 2 * table.unit[g]
            assert table._weight(nu) == tuple(total)

    def test_matches_engine_on_random_words(self):
        rng = random.Random(20260822)
        cases = [("gl", 2), ("gl", 3), ("sp", 1), ("sp", 2),
                 ("o_odd", 1), ("o_even", 2)]
        for family, n in cases:
            spec = make_spec(family, n)
            mi = spec.matrix_indices
            for _ in range(40):
                lam = tuple(Fraction(rng.randint(-6, 6), rng.choice([1, 2]))
                            for _ in range(n))
                word = [(rng.choice(mi), rng.choice(mi))
                        for _ in range(rng.randint(0, 4))]
                direct = hw_coefficient(spec, word, lam)
                engine = evaluate_at_weight(
                    project_hc(pbw_normalize(spec, word)), lam)
                assert direct == engine, (spec.label, lam, word)

    def test_matches_engine_at_third_integer_weights(self):
        rng = random.Random(20261018)
        cases = [("gl", 2), ("gl", 3), ("sp", 1), ("sp", 2),
                 ("o_odd", 1), ("o_odd", 2), ("o_even", 2)]
        for family, n in cases:
            spec = make_spec(family, n)
            mi = spec.matrix_indices
            for _ in range(30):
                lam = tuple(Fraction(rng.randint(-9, 9), rng.choice([3, 6]))
                            for _ in range(n))
                word = [(rng.choice(mi), rng.choice(mi))
                        for _ in range(rng.randint(1, 4))]
                direct = hw_coefficient(spec, word, lam)
                engine = evaluate_at_weight(
                    project_hc(pbw_normalize(spec, word)), lam)
                assert direct == engine, (spec.label, lam, word)


_VERMA_SPECS = [(family, n) for family in ("gl", "sp", "o_even", "o_odd")
                for n in (1, 2, 3, 4)]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_verma_action_matches_the_reference(data):
    # one spec per (family, rank) serves every example, so its shared
    # tables hold whatever earlier draws left there; a fresh spec takes
    # the same weights in the opposite order
    family, n = data.draw(st.sampled_from(_VERMA_SPECS))
    spec = make_spec(family, n)
    scale = data.draw(st.sampled_from([1, 2, 3, 6]))
    # the first coordinate has denominator exactly scale
    weight = st.builds(
        lambda first, rest: (Fraction(1 + scale * first, scale),)
        + tuple(Fraction(x, scale) for x in rest),
        st.integers(-3, 3),
        st.lists(st.integers(-9, 9), min_size=n - 1, max_size=n - 1))
    weights = data.draw(st.lists(weight, min_size=1, max_size=3))
    g = data.draw(st.integers(0, len(spec.gens) - 1))
    lowering = [b for b, kind in enumerate(spec.triangular) if kind == NEG]
    word = data.draw(st.lists(st.sampled_from(lowering), max_size=3)) \
        if lowering else []
    nu = sum(ReferenceVerma(spec, weights[0]).unit[b] for b in word)
    fresh = AlgebraSpec(family, n)
    backwards = {lam: verma_act(VermaModule(fresh, lam), g, nu)
                 for lam in reversed(weights)}
    for lam in weights:
        module = VermaModule(spec, lam)
        assert module.scale == scale
        want = ReferenceVerma(spec, lam).act(g, nu)
        assert verma_act(module, g, nu) == want
        assert backwards[lam] == want
