from fractions import Fraction

import pytest

from helpers import generator_weights
from hwpoly.algebra import (NEG, POS, AlgebraSpec, Family, as_weight,
                            inner_spec, make_spec, parabolic)
from hwpoly.shuffle import minpoly_from_weight

F = Fraction


def mat_mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
            for row in a]


def mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def defining_matrices(spec):
    """Test-local oracle: N x N matrices built straight from the span
    formula E[i,j] - theta(i,j) E[-j,-i], independent of the bracket
    table under test."""
    pos = {v: p for p, v in enumerate(spec.matrix_indices)}
    mats = {}
    for g, (i, j) in enumerate(spec.gens):
        m = [[F(0)] * spec.N for _ in range(spec.N)]
        m[pos[i]][pos[j]] += 1
        if spec.family is not Family.GL:
            m[pos[-j]][pos[-i]] -= spec.theta(i, j)
        mats[g] = m
    return mats


ALL_SPECS = [
    ("gl", 1), ("gl", 2), ("gl", 3),
    ("sp", 1), ("sp", 2),
    ("o_even", 1), ("o_even", 2),
    ("o_odd", 1), ("o_odd", 2),
]


def test_dimensions_and_shapes():
    assert len(make_spec("gl", 4).gens) == 16
    assert len(make_spec("sp", 2).gens) == 10      # dim sp_4
    assert len(make_spec("o_odd", 2).gens) == 10   # dim so_5
    assert len(make_spec("o_even", 2).gens) == 6   # dim so_4
    assert len(make_spec("o_even", 1).gens) == 1   # so_2 is abelian
    assert make_spec("o_odd", 1).N == 3
    assert make_spec("sp", 1).N == 2
    assert make_spec("gl", 3).matrix_indices == (1, 2, 3)
    assert make_spec("o_odd", 2).matrix_indices == (-2, -1, 0, 1, 2)
    assert make_spec("sp", 2).matrix_indices == (-2, -1, 1, 2)


def test_rho_and_epsilon():
    assert make_spec("gl", 3).rho == (2, 1, 0)
    assert make_spec("sp", 2).rho == (2, 1)
    assert make_spec("o_odd", 2).rho == (F(3, 2), F(1, 2))
    assert make_spec("o_even", 2).rho == (1, 0)
    assert make_spec("gl", 2).epsilon is None
    assert make_spec("o_odd", 1).epsilon == F(1, 2)
    assert make_spec("sp", 1).epsilon == 1


def test_global_order_frozen():
    assert make_spec("gl", 3).gens == (
        (3, 1), (3, 2), (2, 1), (1, 1), (2, 2), (1, 2), (3, 3), (1, 3), (2, 3))
    assert make_spec("o_even", 2).gens == (
        (-1, -2), (1, -2), (-1, -1), (-2, -2), (-2, -1), (-2, 1))
    assert make_spec("sp", 1).gens == ((1, -1), (-1, -1), (-1, 1))
    assert make_spec("o_odd", 1).gens == ((0, -1), (-1, -1), (-1, 0))
    assert make_spec("sp", 2).gens == (
        (-1, -2), (1, -2), (2, -2), (1, -1), (-1, -1), (-1, 1),
        (-2, -2), (-2, -1), (-2, 1), (-2, 2))


def test_resolve_signs_and_zeros():
    sp = make_spec("sp", 1)
    c, idx = sp.resolve(1, 1)
    assert c == -1 and sp.gens[idx] == (-1, -1)
    c, idx = sp.resolve(1, -1)
    assert c == 1 and sp.gens[idx] == (1, -1)
    o3 = make_spec("o_odd", 1)
    c, idx = o3.resolve(1, -1)
    assert c == 0 and idx is None
    c, idx = o3.resolve(0, 0)
    assert c == 0 and idx is None
    c, idx = o3.resolve(1, 0)
    assert c == -1 and o3.gens[idx] == (0, -1)
    with pytest.raises(ValueError):
        o3.resolve(2, 0)
    gl = make_spec("gl", 2)
    with pytest.raises(ValueError):
        gl.resolve(0, 1)


@pytest.mark.parametrize("family,n", ALL_SPECS)
def test_brackets_match_defining_matrices(family, n):
    spec = make_spec(family, n)
    mats = defining_matrices(spec)
    ngen = len(spec.gens)
    for a in range(ngen):
        for b in range(ngen):
            lhs = mat_sub(mat_mul(mats[a], mats[b]), mat_mul(mats[b], mats[a]))
            for g, c in spec.bracket(a, b):
                lhs = mat_sub(lhs, [[c * x for x in row] for row in mats[g]])
            assert all(not x for row in lhs for x in row), (spec.gens[a],
                                                            spec.gens[b])


@pytest.mark.parametrize("family,n", ALL_SPECS)
def test_bracket_antisymmetry(family, n):
    spec = make_spec(family, n)
    for a in range(len(spec.gens)):
        for b in range(len(spec.gens)):
            ab = dict(spec.bracket(a, b))
            ba = dict(spec.bracket(b, a))
            assert ab == {g: -c for g, c in ba.items()}


@pytest.mark.parametrize("family,n", ALL_SPECS)
def test_weights_agree_with_cartan_brackets(family, n):
    spec = make_spec(family, n)
    weights = generator_weights(spec)
    for k in range(n):
        h = spec.cartan_by_coord[k]
        for g in range(len(spec.gens)):
            expect = weights[g][k]
            got = dict(spec.bracket(h, g))
            if expect:
                assert got == {g: expect}
            else:
                assert got == {}


def test_sp2_bracket_value():
    # [F(-1,1), F(1,-1)] = 4 F(-1,-1)
    sp = make_spec("sp", 1)
    e = sp.gen_index[(-1, 1)]
    f = sp.gen_index[(1, -1)]
    h = sp.gen_index[(-1, -1)]
    assert spec_bracket_as_dict(sp, e, f) == {h: 4}


def test_brackets_are_lazy_ints():
    # fast mode never reads a bracket, so building a spec computes none
    spec = AlgebraSpec("o_odd", 4)
    minpoly_from_weight(spec, (3, 2, 1, 0))
    assert spec._brackets == {}
    e = spec.gen_index[(-4, -3)]
    f = spec.gen_index[(-3, -4)]
    got = spec.bracket(e, f)
    assert list(spec._brackets) == [(e, f)]
    assert spec.bracket(e, f) is got
    assert all(type(c) is int for _, c in got)
    c, idx = spec.resolve(4, 3)
    assert type(c) is int and c == -1 and spec.gens[idx] == (-3, -4)


def spec_bracket_as_dict(spec, a, b):
    return dict(spec.bracket(a, b))


def _nilradical(p, kind):
    # the generators outside the Levi factor of the given triangular kind
    spec = p.spec
    return {spec.gens[g] for g in range(len(spec.gens))
            if g not in p.levi and spec.triangular[g] == kind}


def test_parabolic_sets():
    gl2 = make_spec("gl", 2)
    p = parabolic(gl2, 1)
    assert {gl2.gens[g] for g in p.levi} == {(1, 1), (2, 2)}
    assert _nilradical(p, POS) == {(1, 2)}
    assert _nilradical(p, NEG) == {(2, 1)}
    gl3 = make_spec("gl", 3)
    p2 = parabolic(gl3, 2)
    assert _nilradical(p2, POS) == {(1, 3), (2, 3)}
    assert _nilradical(p2, NEG) == {(3, 1), (3, 2)}
    assert {gl3.gens[g] for g in p2.levi} == {
        (1, 1), (2, 2), (3, 3), (1, 2), (2, 1)}
    sp2 = make_spec("sp", 2)
    p1 = parabolic(sp2, 1)
    assert {sp2.gens[g] for g in p1.levi} == {
        (1, -1), (-1, -1), (-1, 1), (-2, -2)}
    with pytest.raises(ValueError):
        parabolic(gl2, 3)
    with pytest.raises(ValueError):
        parabolic(gl2, 0)


def test_inner_spec_and_label():
    assert make_spec("sp", 2).label == "sp_4"
    assert make_spec("o_odd", 1).label == "o_3"
    assert make_spec("gl", 3).label == "gl_3"
    assert inner_spec(make_spec("sp", 2)) is make_spec("sp", 1)
    assert inner_spec(make_spec("o_odd", 1)) is make_spec("o_odd", 0)
    assert make_spec("o_odd", 0).N == 1
    assert make_spec("sp", 0).N == 0
    with pytest.raises(ValueError):
        inner_spec(make_spec("gl", 0))


def test_as_weight():
    gl2 = make_spec("gl", 2)
    assert as_weight(gl2, [1, "3/2"]) == (1, F(3, 2))
    with pytest.raises(ValueError):
        as_weight(gl2, [1])
    with pytest.raises(TypeError):
        as_weight(gl2, [0.5, 1])
