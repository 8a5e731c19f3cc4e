"""Finite dimensional module cross-check.

It realises concrete modules as sparse matrices (polynomial gl
irreducibles on the Gelfand-Tsetlin basis, whose vectors are the
patterns with top row lambda and whose generators act by rational
matrix entries, plus the trivial and defining modules of every family)
and extracts the minimal polynomial of the generator matrix
M = sum e_ij (x) F_ij on C^N (x) V by exact Krylov iteration; it shares
no code path with the certifier.

Each module records a set S of basis vectors that generates it under
U(g): one basis vector of a Gelfand-Tsetlin irreducible, as any nonzero
vector generates a simple module; the one vector of the trivial module;
every basis vector of a defining module, as that of o_2, which is
abelian, is the sum of two lines, so one vector does not generate it.

M commutes with the diagonal action of g on (C^N)* (x) V, so the kernel
of q(M) is a submodule.  And the vectors e_i (x) s, i over the N
coordinates and s in S, generate (C^N)* (x) V, because
x (e_i (x) s) - (x e_i) (x) s = e_i (x) x s.  So q(M) = 0 exactly when
q(M) kills those N |S| vectors, and the minimal polynomial is the least
common multiple of their Krylov annihilators.

One bound guards every module, N^2 dim(V) <= 10^6, checked before its
spec is built or any pattern is enumerated (ValueError past it).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod
from typing import NamedTuple

from .algebra import AlgebraSpec, Family, make_spec, matrix_size
from .polyrat import InvariantError, UniPoly, monic_lcm, rat


class RepMatrices(NamedTuple):
    """A module given by one sparse matrix per canonical generator.

    columns[g] maps b to the image of basis vector b under generator g,
    itself a map from a to the coefficient of basis vector a; only the
    nonzero columns and entries are kept.  generating lists basis
    vectors that generate the module under U(g).
    """

    spec: AlgebraSpec
    name: str
    dim: int
    columns: tuple
    generating: tuple


def build_catalog_rep(family, n: int, name: str) -> RepMatrices:
    """The trivial or defining module of a family's rank n algebra."""
    if name not in ("trivial", "defining"):
        raise ValueError(f"unknown catalog module {name!r}")
    N = matrix_size(family, n)
    _check_work(N, 1 if name == "trivial" else N)
    spec = make_spec(family, n)
    if name == "trivial":
        return RepMatrices(spec, name, 1, ({},) * len(spec.gens), (0,))
    pos = {v: k for k, v in enumerate(spec.matrix_indices)}
    columns = []
    for i, j in spec.gens:
        cols = {pos[j]: {pos[i]: 1}}
        if spec.family is not Family.GL:
            col = cols.setdefault(pos[-i], {})
            col[pos[-j]] = col.get(pos[-j], 0) - spec.theta(i, j)
        columns.append(cols)
    return RepMatrices(spec, name, N, tuple(columns), tuple(range(N)))


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


# Largest N^2 dim(V) that the oracle accepts.  M is an N x N array of
# dim x dim blocks, and building the module and M touches every column
# of every block, so the time grows with N^2 dim.  Within the bound the
# slowest module, gl_14 (2,2,0,...), takes about 3 s on a 2-CPU Xeon.
_WORK_BOUND = 10 ** 6


def _check_work(N, dim):
    """Raise ValueError when N^2 dim exceeds the oracle's bound."""
    if N * N * dim > _WORK_BOUND:
        raise ValueError(f"N^2 dim(V) = {N}^2 * {dim} exceeds the oracle "
                         f"bound {_WORK_BOUND}")


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


def _shifted(row):
    """l_i = x_i - i + 1 of a pattern row, i counted from 1."""
    return [x - i for i, x in enumerate(row)]


def _product(a, b):
    """Product of two matrices held as maps of nonzero sparse columns."""
    out = {}
    for j, col in b.items():
        acc = {}
        for k, c in col.items():
            for r, x in a.get(k, {}).items():
                acc[r] = acc.get(r, 0) + c * x
        out[j] = acc
    return out


def _commutator(a, b):
    """[a, b] of two matrices held as maps of nonzero sparse columns."""
    ab, ba = _product(a, b), _product(b, a)
    for j, col in ba.items():
        acc = ab.setdefault(j, {})
        for r, x in col.items():
            acc[r] = acc.get(r, 0) - x
    out = {j: {r: x for r, x in col.items() if x} for j, col in ab.items()}
    return {j: col for j, col in out.items() if col}


def build_irrep_gl(lam, n) -> RepMatrices:
    """Polynomial gl_n irreducible in its Gelfand-Tsetlin basis.

    The basis vectors are the patterns with top row lam, each row
    interlacing the one above it.  E_kk, E_(k,k+1) and E_(k+1,k) act by
    the rational formulas of Gelfand and Tsetlin (Molev, "Gelfand-Tsetlin
    bases for classical Lie algebras", math/0211289, section 2) in
    l_ki = lam_ki - i + 1; the other E_ij are iterated commutators of
    these.  The number of patterns is checked against the
    Weyl dimension formula before any matrix is built, and a mismatch
    raises InvariantError.  A float coordinate raises TypeError and a
    non-integral one ValueError.
    """
    lam = tuple(map(rat, lam))
    if any(x.denominator != 1 for x in lam):
        raise ValueError("gl oracle weights must be integers")
    lam = tuple(x.numerator for x in lam)
    if len(lam) != n:
        raise ValueError("weight length must equal the rank")
    if list(lam) != sorted(lam, reverse=True) or min(lam, default=0) < 0:
        raise ValueError("weight must be dominant with nonnegative entries")
    if not any(lam):
        return build_catalog_rep("gl", n, "trivial")
    dim = weyl_dimension_gl(lam)
    _check_work(n, dim)
    spec = make_spec("gl", n)

    # pat[k - 1] is row k, of length k; the top row n is lam
    pats = [(lam,)]
    for _ in range(n - 1):
        pats = [(row,) + pat for pat in pats for row in _rows_below(pat[0])]
    if len(pats) != dim:
        raise InvariantError(
            f"{len(pats)} Gelfand-Tsetlin patterns, not the Weyl dimension")
    pos = {pat: b for b, pat in enumerate(pats)}

    # e[i, j][b] maps a to the coefficient of basis vector a in E_ij b,
    # nonzero columns only.  Entry i of row k can move up only when it is
    # below entry i of row k + 1, and down only when it is above entry i
    # of row k - 1 (or has none): elsewhere the coefficient vanishes
    e = {}
    for k in range(n):
        wts = (sum(pat[k]) - (sum(pat[k - 1]) if k else 0) for pat in pats)
        e[k + 1, k + 1] = {b: {b: x} for b, x in enumerate(wts) if x}
    for k in range(n - 1):
        up, down = {}, {}
        for b, pat in enumerate(pats):
            row, above = pat[k], pat[k + 1]
            below = pat[k - 1] if k else ()
            lk, la, lb = _shifted(row), _shifted(above), _shifted(below)
            for i, li in enumerate(lk):
                moves = []
                if row[i] < above[i]:
                    moves.append((1, up, -prod(li - x for x in la)))
                if i == len(below) or row[i] > below[i]:
                    moves.append((-1, down, prod(li - x for x in lb)))
                for step, mat, num in moves:
                    a = pos.get(_moved(pat, k, i, step))
                    if a is not None:
                        den = prod(li - y for y in lk if y != li)
                        mat.setdefault(b, {})[a] = Fraction(num, den)
        e[k + 1, k + 2], e[k + 2, k + 1] = up, down
    for gap in range(2, n):
        for i in range(1, n - gap + 1):
            j = i + gap
            e[i, j] = _commutator(e[i, j - 1], e[j - 1, j])
            e[j, i] = _commutator(e[j, j - 1], e[j - 1, i])
    columns = tuple(e[g] for g in spec.gens)
    return RepMatrices(spec, f"irrep{lam}", dim, columns, (0,))


def _scaled_columns(rep):
    """(D, columns of D M) with D the least common denominator of M.

    M = sum over (i, j) of e_ij (x) F_ij on C^N (x) V; coordinate
    ii * dim + a is basis vector a of V in block ii.  D M is an int
    matrix, and each of its columns holds only its nonzero entries.
    """
    spec = rep.spec
    mi = spec.matrix_indices
    dim = rep.dim
    # entries are ints or Fractions, and both carry a denominator
    D = lcm(*(x.denominator for gen in rep.columns
              for col in gen.values() for x in col.values()))
    gens = [{b: {a: x.numerator * (D // x.denominator)
                 for a, x in col.items()} for b, col in gen.items()}
            for gen in rep.columns]
    cols = [{} for _ in range(len(mi) * dim)]
    for ii, i in enumerate(mi):
        for jj, j in enumerate(mi):
            c, idx = spec.resolve(i, j)
            if idx is None:
                continue
            for b, col in gens[idx].items():
                out = cols[jj * dim + b]
                for a, x in col.items():
                    out[ii * dim + a] = c * x
    return D, cols


def _apply(cols, w):
    """The int matrix given by its sparse columns applied to w."""
    out = {}
    for c, v in w.items():
        for r, x in cols[c].items():
            out[r] = out.get(r, 0) + v * x
    return {r: x for r, x in out.items() if x}


def _krylov_annihilator(cols, start):
    """Coefficients, lowest first, of the least p with p(A) e_start = 0.

    The vectors A^k e_start are reduced in ints, fraction free, against
    the earlier ones in order; each reduced vector carries the
    combination of powers that gives it, so the first that reduces to
    zero carries p.
    """
    basis = []   # (pivot, reduced vector, its combination of powers)
    w = {start: 1}
    while True:
        v, comb = dict(w), [0] * len(basis) + [1]
        for p, row, rcomb in basis:
            c = v.get(p)
            if not c:
                continue
            r = row[p]
            for k, x in v.items():
                v[k] = r * x
            for k, x in row.items():
                v[k] = v.get(k, 0) - c * x
            v = {k: x for k, x in v.items() if x}
            comb = [r * x for x in comb]
            for k, x in enumerate(rcomb):
                comb[k] -= c * x
            g = gcd(*v.values(), *comb)
            if g > 1:
                v = {k: x // g for k, x in v.items()}
                comb = [x // g for x in comb]
        if not v:
            return comb
        basis.append((next(iter(v)), v, comb))
        w = _apply(cols, w)


def oracle_minpoly(rep: RepMatrices) -> UniPoly:
    """Minimal polynomial of the generator matrix M on C^N tensor V.

    It is the least common multiple of the Krylov annihilators of the
    N |S| vectors e_i (x) s, s in rep.generating (see the module
    docstring).  The Krylov steps run in ints on D M, D the least common
    denominator of M's entries: an annihilator p(v) of D M gives p(D u)
    for M.
    """
    D, cols = _scaled_columns(rep)
    dim = rep.dim
    starts = [ii * dim + s for ii in range(rep.spec.N) for s in rep.generating]
    anns = {tuple(_krylov_annihilator(cols, s)) for s in starts}
    return monic_lcm(UniPoly(c * D ** k for k, c in enumerate(p)) for p in anns)
