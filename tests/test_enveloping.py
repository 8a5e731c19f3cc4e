import random
from fractions import Fraction

import pytest

from helpers import (parabolic, project_relative, restrict_corank_one,
                     weight, weight_components)
from hwpoly.algebra import make_spec
from hwpoly.enveloping import (
    UElement,
    evaluate_at_weight,
    pbw_normalize,
    project_hc,
)
from hwpoly.howe import WeylAlgebra, WeylElement, weyl_normalize

F = Fraction


def gen(spec, i, j):
    return UElement.generator(spec, i, j)


def test_gl2_straightening():
    gl2 = make_spec("gl", 2)
    # frozen: E12 E21 = E21 E12 + E11 - E22
    lhs = gen(gl2, 1, 2) * gen(gl2, 2, 1)
    rhs = gen(gl2, 2, 1) * gen(gl2, 1, 2) + gen(gl2, 1, 1) - gen(gl2, 2, 2)
    assert lhs == rhs
    mono = next(iter((gen(gl2, 2, 1) * gen(gl2, 1, 2)).terms))
    assert [gl2.gens[g] for g in mono] == [(2, 1), (1, 2)]


def test_sp2_straightening():
    sp = make_spec("sp", 1)
    # frozen: F(-1,1) F(1,-1) = F(1,-1) F(-1,1) + 4 F(-1,-1)
    lhs = gen(sp, -1, 1) * gen(sp, 1, -1)
    rhs = gen(sp, 1, -1) * gen(sp, -1, 1) + 4 * gen(sp, -1, -1)
    assert lhs == rhs


def test_noncanonical_generator_lookup():
    sp = make_spec("sp", 1)
    assert gen(sp, 1, 1) == -gen(sp, -1, -1)
    o3 = make_spec("o_odd", 1)
    assert gen(o3, 1, -1).is_zero()
    assert gen(o3, 1, 0) == -gen(o3, 0, -1)


def test_pbw_normalize_words():
    gl2 = make_spec("gl", 2)
    got = pbw_normalize(gl2, [(1, 2), (2, 1)])
    assert got == gen(gl2, 1, 2) * gen(gl2, 2, 1)
    got2 = pbw_normalize(gl2, [(F(2), [(1, 2), (2, 1)]), (F(-1), [(1, 1)])])
    assert got2 == 2 * gen(gl2, 1, 2) * gen(gl2, 2, 1) - gen(gl2, 1, 1)
    assert pbw_normalize(gl2, got) is got
    with pytest.raises(ValueError):
        pbw_normalize(gl2, [(0, 3)])


def test_commutators_match_bracket_table():
    for name, n in [("gl", 2), ("sp", 1), ("o_odd", 1), ("o_even", 2)]:
        spec = make_spec(name, n)
        for a, pa in enumerate(spec.gens):
            for b, pb in enumerate(spec.gens):
                direct = gen(spec, *pa).commutator(gen(spec, *pb))
                table = UElement.zero(spec)
                for g, c in spec.bracket(a, b):
                    table = table + c * UElement(spec, {(g,): F(1)})
                assert direct == table


def random_element(rng, spec, max_terms=3, max_len=3):
    out = UElement.zero(spec)
    for _ in range(rng.randrange(1, max_terms + 1)):
        word = [spec.gens[rng.randrange(len(spec.gens))]
                for _ in range(rng.randrange(0, max_len + 1))]
        coeff = F(rng.randrange(-3, 4), rng.randrange(1, 3))
        if coeff:
            out = out + pbw_normalize(spec, [(coeff, word)])
    return out


@pytest.mark.parametrize("name,n", [("gl", 2), ("gl", 3), ("sp", 1), ("o_odd", 1), ("o_even", 2)])
def test_associativity_random(name, n):
    spec = make_spec(name, n)
    rng = random.Random(f"assoc-{name}-{n}")
    for _ in range(25):
        a = random_element(rng, spec)
        b = random_element(rng, spec)
        c = random_element(rng, spec)
        assert (a * b) * c == a * (b * c)


def test_projection_hc():
    gl2 = make_spec("gl", 2)
    x = gen(gl2, 1, 2) * gen(gl2, 2, 1)
    assert project_hc(x) == gen(gl2, 1, 1) - gen(gl2, 2, 2)
    h = gen(gl2, 1, 1) * gen(gl2, 2, 2)
    assert project_hc(h) == h
    assert project_hc(gen(gl2, 2, 1) * gen(gl2, 1, 1)).is_zero()
    assert project_hc(gen(gl2, 1, 1) * gen(gl2, 1, 2)).is_zero()


def test_projection_relative_gl2():
    gl2 = make_spec("gl", 2)
    p = parabolic(gl2, 1)
    x = gen(gl2, 2, 1) * gen(gl2, 1, 2) + gen(gl2, 1, 1) - gen(gl2, 2, 2)
    assert project_relative(x, p) == gen(gl2, 1, 1) - gen(gl2, 2, 2)


def test_projection_relative_keeps_inner_block():
    gl3 = make_spec("gl", 3)
    p = parabolic(gl3, 2)
    x = gen(gl3, 2, 1) * gen(gl3, 1, 2)
    assert project_relative(x, p) == x
    y = gen(gl3, 3, 1) * gen(gl3, 1, 3)
    assert project_relative(y, p).is_zero()


def test_relative_projection_composes():
    gl3 = make_spec("gl", 3)
    rng = random.Random("compose")
    p1, p2 = parabolic(gl3, 1), parabolic(gl3, 2)
    for _ in range(20):
        a = random_element(rng, gl3)
        assert project_relative(project_relative(a, p2), p1) == project_relative(a, p1)
        assert project_hc(project_relative(a, p2)) == project_hc(a)


def test_evaluate_at_weight():
    gl2 = make_spec("gl", 2)
    a = gen(gl2, 1, 1) * gen(gl2, 1, 1) + gen(gl2, 1, 1) - gen(gl2, 2, 2)
    assert evaluate_at_weight(a, (1, 0)) == 2
    assert evaluate_at_weight(a, (F(1, 2), 3)) == F(1, 4) + F(1, 2) - 3
    with pytest.raises(ValueError):
        evaluate_at_weight(gen(gl2, 1, 2), (0, 0))
    assert evaluate_at_weight(project_hc(gen(gl2, 1, 2) * gen(gl2, 2, 1)),
                              (1, 0)) == 1


def test_weight_structure():
    sp = make_spec("sp", 1)
    e = gen(sp, -1, 1)
    assert weight(e) == (2,)
    f = gen(sp, 1, -1)
    assert weight(e * f) == (0,)
    mixed = e + f
    comps = weight_components(mixed)
    assert set(comps) == {(2,), (-2,)}
    with pytest.raises(ValueError):
        weight(mixed)
    gl3 = make_spec("gl", 3)
    assert weight(gen(gl3, 1, 3)) == (1, 0, -1)


def test_restrict_corank_one_gl():
    gl2 = make_spec("gl", 2)
    gl1 = make_spec("gl", 1)
    x = (gen(gl2, 1, 1) * gen(gl2, 1, 1) + gen(gl2, 1, 1)
         - gen(gl2, 2, 2) + gen(gl2, 1, 1) * gen(gl2, 2, 2))
    got = restrict_corank_one(x, F(5))
    h = UElement.generator(gl1, 1, 1)
    assert got == h * h + h - 5 + 5 * h
    with pytest.raises(ValueError):
        restrict_corank_one(gen(gl2, 2, 1), F(0))


def test_restrict_corank_one_rank0():
    sp = make_spec("sp", 1)
    sp0 = make_spec("sp", 0)
    a = gen(sp, -1, -1) * gen(sp, -1, -1)
    got = restrict_corank_one(a, F(3))
    assert got == UElement.scalar(sp0, 9)


def test_scalar_mixing_and_equality():
    gl2 = make_spec("gl", 2)
    a = gen(gl2, 1, 1)
    assert a + 0 == a
    assert (a - a) == 0
    assert 2 * a == a + a
    assert UElement.scalar(gl2, F(1, 2)) * 2 == UElement.one(gl2)


def _u_generators():
    return gen(make_spec("gl", 2), 1, 2), gen(make_spec("gl", 3), 1, 2)


def _weyl_positions():
    return WeylAlgebra(1, 1).x(1, 1), WeylAlgebra(1, 2).x(1, 1)


@pytest.mark.parametrize("elements", [_u_generators, _weyl_positions],
                         ids=["UElement", "WeylElement"])
def test_coefficient_rule_and_foreign_algebras(elements):
    # U(g) and the Weyl algebra share one ring: a coefficient is an int
    # while it is integral, and elements of two algebras never mix
    x, foreign = elements()
    for doubled in (x * F(4, 2), F(4, 2) * x):
        assert [(c, type(c)) for c in doubled.terms.values()] == [(2, int)]
    half = x * F(1, 2)
    assert [type(c) for c in half.terms.values()] == [Fraction]
    back = half * 2
    assert back == x
    assert [type(c) for c in back.terms.values()] == [int]
    assert [type(c) for c in (half + half).terms.values()] == [int]
    for op in (lambda a, b: a + b, lambda a, b: a - b,
               lambda a, b: a * b, lambda a, b: a.commutator(b)):
        with pytest.raises(ValueError):
            op(x, foreign)


@pytest.mark.parametrize("cls,algebra,normalize,word", [
    (UElement, lambda: make_spec("gl", 2), pbw_normalize, [(1, 2)]),
    (WeylElement, lambda: WeylAlgebra(1, 1), weyl_normalize, [("x", 1, 1)]),
], ids=["UElement", "WeylElement"])
def test_float_coefficients_are_rejected(cls, algebra, normalize, word):
    # a float scalar was once stored as its binary expansion, 0.1 as
    # 3602879701896397/36028797018963968
    alg = algebra()
    with pytest.raises(TypeError):
        cls.scalar(alg, 0.1)
    with pytest.raises(TypeError):
        normalize(alg, [(0.5, word)])
    assert normalize(alg, [(F(1, 2), word)]) * 2 == normalize(alg, word)
