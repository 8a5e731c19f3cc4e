import pytest

from hwpoly.algebra import make_spec
from hwpoly.enveloping import UElement, project_hc
from hwpoly.genmatrix import (
    generator_matrix,
    generator_power,
    projected_diagonal,
    trace,
    trace_prime,
)


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
                assert e.weight() == (spec.entry_weight(i, j) if k else (0,) * spec.n)


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
