"""Finite dimensional oracles: explicit modules, Krylov, Verma coefficients."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (ReferenceVerma, dense_matrices, hw_coefficient,
                     reference_oracle_minpoly, verma_act)
from hwpoly.algebra import NEG, make_spec
from hwpoly.enveloping import evaluate_at_weight, pbw_normalize, project_hc
from hwpoly import oracle
from hwpoly.oracle import (
    build_catalog_rep,
    build_irrep_gl,
    oracle_minpoly,
    weyl_dimension_gl,
)
from hwpoly.polyrat import InvariantError, UniPoly
from hwpoly.shuffle import minpoly_from_weight
from hwpoly.verma import VermaModule


def mat_mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
            for row in a]


def mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def entry_matrix(rep, i, j):
    """The matrix of F[i,j] (gl E[i,j]) on rep, sign folded in."""
    c, idx = rep.spec.resolve(i, j)
    return [[c * x for x in row] for row in dense_matrices(rep)[idx]]


def assert_bracket_fidelity(rep):
    spec = rep.spec
    mats = dense_matrices(rep)
    for a, (i, j) in enumerate(spec.gens):
        for b, (k, l) in enumerate(spec.gens):
            lhs = mat_sub(mat_mul(mats[a], mats[b]),
                          mat_mul(mats[b], mats[a]))
            rhs = [[Fraction(0)] * rep.dim for _ in range(rep.dim)]
            for h, c in spec.bracket(a, b):
                for r in range(rep.dim):
                    for s in range(rep.dim):
                        rhs[r][s] += c * mats[h][r][s]
            assert lhs == [list(r) for r in rhs], (spec.label, (i, j), (k, l))


class TestCatalogReps:
    def test_trivial_minpoly(self):
        for family, n in [("gl", 3), ("sp", 2), ("o_odd", 1), ("o_even", 2)]:
            rep = build_catalog_rep(family, n, "trivial")
            assert oracle_minpoly(rep) == UniPoly((0, 1))

    def test_defining_fidelity(self):
        for family, n in [("gl", 2), ("sp", 1), ("sp", 2),
                          ("o_odd", 1), ("o_even", 2)]:
            assert_bracket_fidelity(build_catalog_rep(family, n, "defining"))

    def test_defining_gl_minpoly(self):
        for n in (2, 3):
            rep = build_catalog_rep("gl", n, "defining")
            assert oracle_minpoly(rep) == UniPoly.from_roots([0, n])

    def test_defining_sp1_minpoly(self):
        rep = build_catalog_rep("sp", 1, "defining")
        assert oracle_minpoly(rep) == UniPoly.from_roots([-1, 3])

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            build_catalog_rep("gl", 2, "adjoint")


class TestIrrepGL:
    def test_dimensions(self):
        assert build_irrep_gl((1, 0), 2).dim == 2
        assert build_irrep_gl((1, 1), 2).dim == 1
        assert build_irrep_gl((2, 0), 2).dim == 3
        assert build_irrep_gl((1, 1, 0), 3).dim == 3
        assert build_irrep_gl((2, 1, 0), 3).dim == 8

    def test_pattern_count_off_the_weyl_dimension_raises(self, monkeypatch):
        # one interlacing row too few: a real exception, which python -O
        # keeps, and a RuntimeError, so handlers of that still catch it
        rows_below = oracle._rows_below
        monkeypatch.setattr(oracle, "_rows_below",
                            lambda row: rows_below(row)[1:])
        with pytest.raises(InvariantError, match="Weyl dimension"):
            build_irrep_gl((2, 1, 0), 3)
        assert issubclass(InvariantError, RuntimeError)

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
        # N^2 dim(V) is the one bound: |lambda| may be far past 4
        grid2 = [(0, 0), (1, 0), (2, 0), (3, 0), (1, 1), (2, 1), (100, 0)]
        for lam in grid2:
            spec = make_spec("gl", 2)
            assert oracle_minpoly(build_irrep_gl(lam, 2)) == \
                minpoly_from_weight(spec, lam)
        for lam in [(0, 0, 0), (1, 0, 0), (1, 1, 0), (2, 0, 0), (120, 0, 0)]:
            spec = make_spec("gl", 3)
            assert oracle_minpoly(build_irrep_gl(lam, 3)) == \
                minpoly_from_weight(spec, lam)

    @pytest.mark.parametrize("lam", [
        (0, 0, 0, 0), (1, 0, 0, 0), (2, 0, 0, 0), (1, 1, 0, 0),
        (3, 0, 0, 0), (2, 1, 0, 0), (1, 1, 1, 0), (4, 0, 0, 0),
        (3, 1, 0, 0), (2, 2, 0, 0), (2, 1, 1, 0), (1, 1, 1, 1)],
        ids=lambda lam: ",".join(map(str, lam)))
    def test_gl4_minpoly_matches_shuffle(self, lam):
        # every gl_4 partition of size at most 4
        assert oracle_minpoly(build_irrep_gl(lam, 4)) == \
            minpoly_from_weight(make_spec("gl", 4), lam)

    def test_rank_zero_is_the_trivial_module(self):
        # the empty weight once raised IndexError reading lam[-1]
        rep = build_irrep_gl((), 0)
        assert rep.dim == 1
        assert oracle_minpoly(rep) == UniPoly((1,))

    def test_work_bound(self, monkeypatch):
        # N^2 dim(V) is checked against the bound before the patterns
        # are enumerated, for catalog modules too
        def boom(*args):
            raise AssertionError("enumerated patterns")
        monkeypatch.setattr(oracle, "_rows_below", boom)
        lam = (2, 1) + (0,) * 18
        assert 20 ** 2 * weyl_dimension_gl(lam) > oracle._WORK_BOUND
        with pytest.raises(ValueError, match="exceeds the oracle bound"):
            build_irrep_gl(lam, 20)
        assert build_catalog_rep("gl", 100, "defining").dim == 100
        with pytest.raises(ValueError, match="101\\^2 \\* 101"):
            build_catalog_rep("gl", 101, "defining")

    def test_contract_errors(self):
        with pytest.raises(ValueError):
            build_irrep_gl((0, 1), 2)
        with pytest.raises(ValueError):
            build_irrep_gl((2, -1), 2)
        # |lambda| = 5 was refused by a former bound, |lambda| <= 4
        assert oracle_minpoly(build_irrep_gl((5, 0), 2)) == \
            minpoly_from_weight(make_spec("gl", 2), (5, 0))
        with pytest.raises(ValueError):
            build_irrep_gl((1, 0), 3)

    def test_weight_must_be_integral(self):
        # a half-integral or float coordinate was once truncated to an
        # int, building irrep(1, 0) or irrep(2, 0) silently
        with pytest.raises(ValueError, match="must be integers"):
            build_irrep_gl((Fraction(3, 2), 0), 2)
        with pytest.raises(TypeError, match="floating point"):
            build_irrep_gl((2.7, 0), 2)
        assert build_irrep_gl((Fraction(2), 0), 2) == build_irrep_gl((2, 0), 2)


def _partitions(n, most):
    """Every partition of size at most `most` as a weight of gl_n."""
    out = [()]
    for _ in range(n):
        out = [p + (x,) for p in out for x in range(most + 1)
               if (not p or x <= p[-1]) and sum(p) + x <= most]
    return out


def _reference_modules():
    # every gl irreducible with |lambda| <= 4 and n <= 4, gl_0 among
    # them; the trivial and defining modules of gl_1, gl_3 and every o
    # and sp family at ranks 1-3, the reducible defining module of o_2
    # (o_even, rank 1) among them
    mods = [(f"gl{n}-{','.join(map(str, lam))}", lambda n=n, lam=lam:
             build_irrep_gl(lam, n))
            for n in range(5) for lam in _partitions(n, 4)]
    specs = [("gl", 1), ("gl", 3)] + [(family, n)
                                      for family in ("sp", "o_even", "o_odd")
                                      for n in (1, 2, 3)]
    mods += [(f"{family}{n}-{name}", lambda family=family, n=n, name=name:
              build_catalog_rep(family, n, name))
             for family, n in specs for name in ("trivial", "defining")]
    return mods


def direct_sum(a, b):
    """The direct sum of two oracle modules of one algebra."""
    shift = a.dim
    columns = tuple(
        {**ca, **{k + shift: {r + shift: x for r, x in col.items()}
                  for k, col in cb.items()}}
        for ca, cb in zip(a.columns, b.columns))
    return a._replace(name=f"{a.name}+{b.name}", dim=a.dim + b.dim,
                      columns=columns, generating=a.generating
                      + tuple(s + shift for s in b.generating))


class TestReference:
    """oracle_minpoly, from the N |S| cyclic starts, against the
    reference that runs Krylov from every coordinate vector."""

    @pytest.mark.parametrize("build", [pytest.param(b, id=name)
                                       for name, b in _reference_modules()])
    def test_matches_every_coordinate_start(self, build):
        rep = build()
        assert oracle_minpoly(rep) == reference_oracle_minpoly(rep)

    def test_one_vector_of_the_o2_defining_module(self):
        # o_2 is abelian, spanned by F_(-1,-1), which acts on the
        # defining module by diag(1, -1) on (v_-1, v_1): two lines, so
        # one vector does not generate it
        rep = build_catalog_rep("o_even", 1, "defining")
        assert rep.spec.matrix_indices == (-1, 1)
        assert dense_matrices(rep) == (((1, 0), (0, -1)),)
        assert rep.generating == (0, 1)
        full = oracle_minpoly(rep)
        assert full == reference_oracle_minpoly(rep) \
            == UniPoly.from_roots([1, -1])
        # the lcm does not change with S = {v_-1}: M = sum e_ij (x) F_ij
        # is diagonal, with F_(1,1) = -F_(-1,-1), so it acts on
        # e_i (x) v_a by sign(i) sign(a).  The starts e_(-1) (x) v_-1 and
        # e_1 (x) v_-1 span only half of C^2 (x) V, yet they already
        # carry both eigenvalues 1 and -1
        assert oracle._scaled_columns(rep) == (1, [{0: 1}, {1: -1}, {2: -1},
                                                   {3: 1}])
        for s in (0, 1):
            assert oracle_minpoly(rep._replace(generating=(s,))) == full

    def test_a_generating_set_that_misses_a_summand(self):
        # on the reducible trivial + defining module of gl_2, the vector
        # of the trivial summand alone generates only that summand, and
        # the lcm loses the defining module's root 2
        rep = direct_sum(build_catalog_rep("gl", 2, "trivial"),
                         build_catalog_rep("gl", 2, "defining"))
        assert rep.generating == (0, 1, 2)
        assert oracle_minpoly(rep) == reference_oracle_minpoly(rep) \
            == UniPoly.from_roots([0, 2])
        assert oracle_minpoly(rep._replace(generating=(0,))) == UniPoly((0, 1))


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
        unit = verma.unit
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
            module = VermaModule(spec, (0,) * n)
            total, nu = [0] * n, 0
            for g, kind in enumerate(spec.triangular):
                if kind != NEG:
                    continue
                wt = tuple(dict(spec.bracket(h, g)).get(g, 0)
                           for h in spec.cartan_by_coord)
                assert all(b == g for h in spec.cartan_by_coord
                           for b, _ in spec.bracket(h, g))
                assert module._weight(module.unit[g]) == wt
                total = [t + 2 * w for t, w in zip(total, wt)]
                nu += 2 * module.unit[g]
            assert module._weight(nu) == tuple(total)

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
    # one spec per (family, rank) serves every example, and each module
    # memoises the images at its own weight
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
    for lam in weights:
        module = VermaModule(spec, lam)
        assert module.scale == scale
        assert verma_act(module, g, nu) == ReferenceVerma(spec, lam).act(g, nu)
