"""Finite dimensional module cross-check.

It realises concrete modules as explicit matrices (polynomial
gl irreducibles on the Gelfand-Tsetlin basis, whose vectors are the
patterns with top row lambda and whose generators act by rational
matrix entries, plus the trivial and defining modules of every family)
and extracts the minimal polynomial of the generator matrix by exact
Krylov iteration on C^N tensor V, with the operator held as sparse
rows; it shares no code path with the certifier.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod
from typing import NamedTuple

from .algebra import AlgebraSpec, Family, make_spec
from .linalg import ONE, ZERO, Echelon
from .polyrat import InvariantError, UniPoly, monic_lcm

__all__ = [
    "RepMatrices",
    "build_catalog_rep",
    "build_irrep_gl",
    "oracle_minpoly",
]


class RepMatrices(NamedTuple):
    """A module given by one matrix per canonical generator."""

    spec: AlgebraSpec
    name: str
    dim: int
    mats: tuple   # mats[gen index] = tuple of row tuples


def build_catalog_rep(spec: AlgebraSpec, name: str) -> RepMatrices:
    """The trivial or defining module of any family."""
    ngen = len(spec.gens)
    if name == "trivial":
        mats = tuple((((ZERO,),),) * ngen)
        return RepMatrices(spec, name, 1, mats)
    if name != "defining":
        raise ValueError(f"unknown catalog module {name!r}")
    mi = spec.matrix_indices
    pos = {v: k for k, v in enumerate(mi)}
    dim = len(mi)
    mats = []
    for i, j in spec.gens:
        m = [[ZERO] * dim for _ in range(dim)]
        m[pos[i]][pos[j]] += ONE
        if spec.family is not Family.GL:
            m[pos[-j]][pos[-i]] -= Fraction(spec.theta(i, j))
        mats.append(tuple(tuple(row) for row in m))
    return RepMatrices(spec, name, dim, tuple(mats))


def weyl_dimension_gl(lam):
    """Dimension of the gl irreducible with the given highest weight."""
    n = len(lam)
    num = den = 1
    for i in range(n):
        for j in range(i + 1, n):
            num *= lam[i] - lam[j] + j - i
            den *= j - i
    d, r = divmod(num, den)
    if r:
        raise ValueError(f"the Weyl dimension formula is not integral at {lam}")
    return d


# Largest |lambda| that build_irrep_gl accepts.
_BOUND = 4


def _rows_below(row):
    """Every row interlacing row from below: row[i] >= x[i] >= row[i+1]."""
    out = [()]
    for i in range(len(row) - 1):
        out = [r + (x,) for r in out for x in range(row[i + 1], row[i] + 1)]
    return out


def _moved(pat, k, i, step):
    """The pattern pat with entry i of its row pat[k] moved by step."""
    row = list(pat[k])
    row[i] += step
    return pat[:k] + (tuple(row),) + pat[k + 1:]


def _product(a, b):
    """Product of two matrices held as lists of sparse columns."""
    out = []
    for col in b:
        acc = {}
        for k, c in col.items():
            for r, x in a[k].items():
                acc[r] = acc.get(r, ZERO) + c * x
        out.append(acc)
    return out


def _commutator(a, b):
    """[a, b] of two matrices held as lists of sparse columns."""
    out = []
    for ab, ba in zip(_product(a, b), _product(b, a)):
        for r, x in ba.items():
            ab[r] = ab.get(r, ZERO) - x
        out.append({r: x for r, x in ab.items() if x})
    return out


def build_irrep_gl(lam, n) -> RepMatrices:
    """Polynomial gl_n irreducible in its Gelfand-Tsetlin basis.

    The basis vectors are the patterns with top row lam, each row
    interlacing the one above it.  E_kk, E_(k,k+1) and E_(k+1,k) act by
    the rational formulas of Gelfand and Tsetlin (Molev, "Gelfand-Tsetlin
    bases for classical Lie algebras", math/0211289, section 2) in
    l_ki = lam_ki - i + 1; the other E_ij are iterated commutators of
    these.  The number of patterns is checked against the
    Weyl dimension formula before any matrix is built.
    """
    lam = tuple(int(x) for x in lam)
    if len(lam) != n:
        raise ValueError("weight length must equal the rank")
    spec = make_spec("gl", n)
    if list(lam) != sorted(lam, reverse=True) or min(lam, default=0) < 0:
        raise ValueError("weight must be dominant with nonnegative entries")
    d = sum(lam)
    if d > _BOUND:
        raise ValueError(f"|lambda| = {d} exceeds the oracle bound {_BOUND}")
    if d == 0:
        return build_catalog_rep(spec, "trivial")

    # pat[k - 1] is row k, of length k; the top row n is lam
    pats = [(lam,)]
    for _ in range(n - 1):
        pats = [(row,) + pat for pat in pats for row in _rows_below(pat[0])]
    dim = len(pats)
    if dim != weyl_dimension_gl(lam):
        raise RuntimeError(
            f"{dim} Gelfand-Tsetlin patterns, not the Weyl dimension")
    pos = {pat: b for b, pat in enumerate(pats)}

    # e[i, j][b] maps a to the coefficient of basis vector a in E_ij b;
    # ls[k] is row k + 1 of a pattern shifted to l_ki = lam_ki - i + 1
    e = {}
    for k in range(n):
        e[k + 1, k + 1] = [
            {b: Fraction(sum(pat[k]) - (sum(pat[k - 1]) if k else 0))}
            for b, pat in enumerate(pats)]
    for k in range(n - 1):
        up, down = [], []
        for pat in pats:
            ls = [[x - i for i, x in enumerate(row)] for row in pat]
            lk, above, below = ls[k], ls[k + 1], ls[k - 1] if k else ()
            ucol, dcol = {}, {}
            for i, li in enumerate(lk):
                den = prod(li - la for a, la in enumerate(lk) if a != i)
                b = pos.get(_moved(pat, k, i, 1))
                if b is not None:
                    ucol[b] = Fraction(-prod(li - x for x in above), den)
                b = pos.get(_moved(pat, k, i, -1))
                if b is not None:
                    dcol[b] = Fraction(prod(li - x for x in below), den)
            up.append(ucol)
            down.append(dcol)
        e[k + 1, k + 2], e[k + 2, k + 1] = up, down
    for gap in range(2, n):
        for i in range(1, n - gap + 1):
            j = i + gap
            e[i, j] = _commutator(e[i, j - 1], e[j - 1, j])
            e[j, i] = _commutator(e[j, j - 1], e[j - 1, i])
    mats = tuple(tuple(tuple(e[g][b].get(a, ZERO) for b in range(dim))
                       for a in range(dim)) for g in spec.gens)
    return RepMatrices(spec, f"irrep{lam}", dim, mats)


def _row_apply(rows, v):
    """The sparse operator rows applied to the dense vector v."""
    live = {j for j, x in enumerate(v) if x}
    return [sum((c * v[j] for j, c in row if j in live), ZERO) for row in rows]


def _krylov_annihilator(op, start, maxdeg):
    ech = Echelon(len(start))
    w = list(start)
    for k in range(maxdeg + 1):
        augv = [ZERO] * (maxdeg + 1)
        augv[k] = ONE
        if ech.insert(w + augv) is None:
            res = ech.last_residual
            return UniPoly(res[len(start):len(start) + k + 1])
        w = _row_apply(op, w)
    raise InvariantError("no dependence within the space dimension")


def oracle_minpoly(rep: RepMatrices) -> UniPoly:
    """Minimal polynomial of the generator matrix acting on C^N tensor V.

    The operator is held as sparse rows, one list of (column,
    coefficient) pairs per row built from the nonzero block entries, so
    each product costs the nonzero entries only.  Runs a Krylov
    iteration from every coordinate vector, skipping those already
    killed by the least common multiple found so far.
    """
    spec = rep.spec
    mi = spec.matrix_indices
    dim = rep.dim
    size = len(mi) * dim
    op = [[] for _ in range(size)]
    for ii, i in enumerate(mi):
        for jj, j in enumerate(mi):
            c, idx = spec.resolve(i, j)
            if idx is None or not c:
                continue
            for a, brow in enumerate(rep.mats[idx]):
                op[ii * dim + a] += ((jj * dim + b, c * x)
                                     for b, x in enumerate(brow) if x)
    q = UniPoly.one()
    for s in range(size):
        # q(op) e_s by Horner's rule; e_s is the s-th coordinate vector
        w = [ZERO] * size
        w[s] = q.coeffs[-1]
        for c in reversed(q.coeffs[:-1]):
            w = _row_apply(op, w)
            w[s] += c
        if not any(w):
            continue
        start = [ZERO] * size
        start[s] = ONE
        q = monic_lcm([q, _krylov_annihilator(op, start, size)])
    return q

