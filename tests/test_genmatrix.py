from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import entry_weight, trace, trace_prime, weight
from hwpoly.algebra import AlgebraSpec, make_spec
from hwpoly.enveloping import Terms, UElement, pbw_normalize, project_hc
from hwpoly.genmatrix import (
    MatrixU,
    generator_matrix,
    generator_power,
    projected_diagonal,
)
from hwpoly.howe import WeylAlgebra, WeylElement, dual_pair


def gen(spec, i, j):
    return UElement.generator(spec, i, j)


def test_generator_matrix_entries():
    gl2 = make_spec("gl", 2)
    m = generator_matrix(gl2)
    assert m[1, 2] == gen(gl2, 1, 2)
    sp = make_spec("sp", 1)
    ms = generator_matrix(sp)
    assert ms[1, 1] == -gen(sp, -1, -1)
    assert ms[-1, 1] == gen(sp, -1, 1)
    o3 = make_spec("o_odd", 1)
    mo = generator_matrix(o3)
    assert mo[1, -1].is_zero()
    assert mo[0, 0].is_zero()
    assert generator_matrix(gl2) is m  # shared instance backs the caches


def test_square_entry_frozen_gl2():
    gl2 = make_spec("gl", 2)
    m2 = generator_power(gl2, 2)
    expect = (gen(gl2, 1, 1) * gen(gl2, 1, 1) + gen(gl2, 2, 1) * gen(gl2, 1, 2)
              + gen(gl2, 1, 1) - gen(gl2, 2, 2))
    assert m2[1, 1] == expect


def test_trace_vanishes_for_osp():
    for name, n in [("sp", 1), ("sp", 2), ("o_odd", 1), ("o_even", 2)]:
        spec = make_spec(name, n)
        assert trace(generator_matrix(spec)).is_zero()
    gl2 = make_spec("gl", 2)
    assert trace(generator_matrix(gl2)) == gen(gl2, 1, 1) + gen(gl2, 2, 2)


def test_trace_prime():
    sp2 = make_spec("sp", 2)
    assert trace_prime(generator_matrix(sp2)).is_zero()
    m2 = generator_power(sp2, 2)
    got = trace_prime(m2)
    manual = m2[-1, -1] + m2[1, 1]
    assert got == manual
    with pytest.raises(ValueError):
        trace_prime(generator_matrix(make_spec("gl", 2)))
    sp1 = make_spec("sp", 1)
    assert trace_prime(generator_matrix(sp1)).is_zero()


@pytest.mark.parametrize("name,n", [("gl", 2), ("gl", 3), ("sp", 1), ("o_odd", 1), ("o_even", 2)])
def test_entries_are_weight_homogeneous(name, n):
    spec = make_spec(name, n)
    for k in range(4):
        mk = generator_power(spec, k)
        for i in spec.matrix_indices:
            for j in spec.matrix_indices:
                e = mk[i, j]
                if e.is_zero():
                    continue
                assert weight(e) == (entry_weight(spec, i, j) if k
                                     else (0,) * spec.n)


@pytest.mark.parametrize("name,n", [("gl", 2), ("sp", 1), ("o_odd", 1), ("o_even", 2)])
def test_offdiagonal_cartan_projection_vanishes(name, n):
    spec = make_spec(name, n)
    for k in range(4):
        mk = generator_power(spec, k)
        for i in spec.matrix_indices:
            for j in spec.matrix_indices:
                if i != j:
                    assert project_hc(mk[i, j]).is_zero()


@pytest.mark.parametrize("name,n", [("gl", 2), ("gl", 3)])
def test_resolvent_equivariance_gl(name, n):
    spec = make_spec(name, n)
    for k in range(1, 4):
        mk = generator_power(spec, k)
        for (a, b) in spec.gens:
            g = gen(spec, a, b)
            for i in spec.matrix_indices:
                for j in spec.matrix_indices:
                    lhs = g.commutator(mk[i, j])
                    rhs = UElement.zero(spec)
                    if b == i:
                        rhs = rhs + mk[a, j]
                    if j == a:
                        rhs = rhs - mk[i, b]
                    assert lhs == rhs


@pytest.mark.parametrize("name,n", [("sp", 1), ("o_odd", 1), ("o_even", 2), ("sp", 2)])
def test_resolvent_equivariance_osp(name, n):
    spec = make_spec(name, n)
    for k in range(1, 3):
        mk = generator_power(spec, k)
        for (a, b) in spec.gens:
            g = gen(spec, a, b)
            for i in spec.matrix_indices:
                for j in spec.matrix_indices:
                    lhs = g.commutator(mk[i, j])
                    rhs = UElement.zero(spec)
                    if b == i:
                        rhs = rhs + mk[a, j]
                    if j == a:
                        rhs = rhs - mk[i, b]
                    if a == -i:
                        rhs = rhs - spec.theta(i, -b) * mk[-b, j]
                    if -j == b:
                        rhs = rhs + spec.theta(a, -j) * mk[i, -a]
                    assert lhs == rhs, ((a, b), (i, j), k)


@pytest.mark.parametrize("name,n", [("gl", 2), ("sp", 1), ("o_odd", 1)])
def test_trace_is_invariant(name, n):
    spec = make_spec(name, n)
    for k in range(1, 4):
        t = trace(generator_power(spec, k))
        for (a, b) in spec.gens:
            assert gen(spec, a, b).commutator(t).is_zero()


def test_projected_diagonal_cache():
    gl2 = make_spec("gl", 2)
    d = projected_diagonal(gl2, 2)
    assert d[0] == project_hc(generator_power(gl2, 2)[1, 1])
    assert projected_diagonal(gl2, 2) is d


@pytest.mark.parametrize("name,n", [("gl", 3), ("sp", 2), ("o_odd", 2)])
def test_powers_and_memos_hold_ints_only(name, n):
    # the bracket constants are ints, so PBW powering never needs a Fraction
    spec = make_spec(name, n)
    k = 5
    generator_power(spec, k)
    coeffs = [c for p in range(k + 1)
              for row in generator_power(spec, p).rows
              for e in row for c in e.terms.values()]
    for memo in (spec._cache_gtm, spec._cache_mm):
        assert memo
        coeffs += [c for nf in memo.values() for c in nf.values()]
    assert coeffs and {type(c) for c in coeffs} == {int}


_COEFFS = st.one_of(st.integers(-3, 3).filter(bool),
                    st.builds(Fraction, st.integers(-3, 3).filter(bool),
                              st.integers(2, 3)))


@st.composite
def _u_entries(draw, spec):
    """A UElement of up to three words of length up to two, or zero."""
    words = draw(st.lists(st.tuples(_COEFFS, st.lists(
        st.sampled_from(spec.gens), max_size=2)), max_size=3))
    return pbw_normalize(spec, words) if words else UElement.zero(spec)


@st.composite
def _weyl_entries(draw, alg):
    """A WeylElement of up to three monomials, exponents 0..2, or zero."""
    exps = st.lists(st.integers(0, 2), min_size=alg.nvars,
                    max_size=alg.nvars)
    terms = draw(st.dictionaries(st.tuples(exps, exps).map(
        lambda m: alg.monomial(*m)), _COEFFS, max_size=3))
    return WeylElement(alg, terms)


def _matrix(data, elem, spec, labels, entries):
    return MatrixU(elem, spec, labels, [[data.draw(entries)
                                         for _ in labels] for _ in labels])


def _assert_reference_product(a, b):
    # each entry against its sum over the inner label, built element by
    # element; coefficients obey the coefficient rule
    got = a * b
    zero = a.elem.zero(a.spec)
    for i in a.labels:
        for j in a.labels:
            want = sum((a[i, p] * b[p, j] for p in a.labels), zero)
            assert got[i, j] == want, (i, j)
            assert all(type(c) is int or c.denominator != 1
                       for c in got[i, j].terms.values())


_PROPERTY = settings(max_examples=40, deadline=None, derandomize=True,
                     database=None)


@_PROPERTY
@given(st.data(), st.sampled_from([("gl", 2), ("sp", 2), ("o_odd", 2)]))
def test_u_matrix_product_matches_entry_sums(data, name_rank):
    spec = make_spec(*name_rank)
    labels = spec.matrix_indices
    a, b = (_matrix(data, UElement, spec, labels, _u_entries(spec))
            for _ in range(2))
    _assert_reference_product(a, b)


@_PROPERTY
@given(st.data(), st.integers(1, 2), st.integers(1, 2), st.integers(1, 3))
def test_weyl_matrix_product_matches_entry_sums(data, n, k, size):
    alg = WeylAlgebra(n, k)
    labels = range(1, size + 1)
    a, b = (_matrix(data, WeylElement, alg, labels, _weyl_entries(alg))
            for _ in range(2))
    _assert_reference_product(a, b)


def test_matrix_products_build_no_partial_sums(monkeypatch):
    # a product adds each entry's terms into one dict through the
    # entry class's kernel; summing elements would copy the growing
    # entry once per addend
    calls = []
    add = Terms.__add__

    def spy(self, other):
        calls.append(other)
        return add(self, other)

    right = dual_pair(3, 3).right
    monkeypatch.setattr(Terms, "__add__", spy)
    assert generator_power(AlgebraSpec("o_odd", 2), 4)[1, 1].terms
    assert right.powers(3)[3][1, 1].terms
    assert calls == []
    UElement.one(make_spec("gl", 1)) + 1
    assert len(calls) == 1
