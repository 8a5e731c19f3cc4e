"""Finite dimensional and Verma module cross-checks.

The first realises concrete modules as explicit matrices (polynomial
gl irreducibles through the Young symmetrizer, plus the trivial and
defining modules of every family) and extracts the minimal polynomial
of the generator matrix by exact Krylov iteration on C^N tensor V, with
the operator held as sparse rows; it shares no code path with the
certifier.  The second, hw_coefficient, applies a word of generators
to the highest weight vector of the Verma module (enveloping.VermaModule)
factor by factor, giving the coefficient of the highest weight vector
without invoking PBW normal ordering.  That generator action is the one
the certifier runs on, so it checks that action against PBW normal
form rather than standing apart from the certifier.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .algebra import AlgebraSpec, Family, make_spec
from .enveloping import VermaModule
from .linalg import ONE, ZERO, Echelon
from .polyrat import InvariantError, UniPoly, monic_lcm

__all__ = [
    "RepMatrices",
    "build_catalog_rep",
    "build_irrep_gl",
    "hw_coefficient",
    "oracle_minpoly",
]


@dataclass(frozen=True)
class RepMatrices:
    """A module given by one matrix per canonical generator."""

    spec: AlgebraSpec
    name: str
    dim: int
    mats: tuple   # mats[gen index] = tuple of row tuples

    def generator_matrix(self, i, j):
        """Dense matrix of F[i,j] (gl E[i,j]), sign folded in."""
        c, idx = self.spec.resolve(i, j)
        if idx is None:
            return [[ZERO] * self.dim for _ in range(self.dim)]
        return [[c * x for x in row] for row in self.mats[idx]]


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


def _apply_place_perm(t, perm):
    out = [None] * len(t)
    for k, v in enumerate(t):
        out[perm[k]] = v
    return tuple(out)


def _perm_group(cells_by_group, d):
    """All permutations of 0..d-1 moving places only inside each group."""
    perms = [tuple(range(d))]
    for cells in cells_by_group:
        new = []
        for assign in itertools.permutations(cells):
            for base in perms:
                p = list(base)
                for src, dst in zip(cells, assign):
                    p[src] = base[dst]
                new.append(tuple(p))
        perms = new
    return perms


def _perm_sign(perm):
    sign = 1
    seen = [False] * len(perm)
    for s in range(len(perm)):
        if seen[s]:
            continue
        length = 0
        k = s
        while not seen[k]:
            seen[k] = True
            k = perm[k]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


@lru_cache(maxsize=None)
def _build_irrep_gl(lam, n, bound):
    spec = make_spec("gl", n)
    if list(lam) != sorted(lam, reverse=True) or min(lam, default=0) < 0:
        raise ValueError("weight must be dominant with nonnegative entries")
    d = sum(lam)
    if d > bound:
        raise ValueError(f"|lambda| = {d} exceeds the oracle bound {bound}")
    if d == 0:
        return build_catalog_rep(spec, "trivial")

    rows = [list(range(sum(lam[:i]), sum(lam[:i + 1])))
            for i in range(n) if lam[i]]
    ncols = lam[0]
    cols = [[row[c] for row in rows if c < len(row)] for c in range(ncols)]
    row_perms = _perm_group(rows, d)
    col_perms = [(p, _perm_sign(p)) for p in _perm_group(cols, d)]

    basis = list(itertools.product(range(n), repeat=d))
    pos = {t: k for k, t in enumerate(basis)}
    ech = Echelon(len(basis))
    for t in basis:
        sym = {}
        for p in row_perms:
            u = _apply_place_perm(t, p)
            sym[u] = sym.get(u, ZERO) + ONE
        img = {}
        for q, sgn in col_perms:
            for u, c in sym.items():
                w = _apply_place_perm(u, q)
                img[w] = img.get(w, ZERO) + sgn * c
        dense = [ZERO] * len(basis)
        for u, c in img.items():
            dense[pos[u]] = c
        ech.insert(dense)
    module = [list(r) for r in ech.rows]
    dim = len(module)
    if dim != weyl_dimension_gl(lam):
        raise RuntimeError(
            f"Young symmetrizer image has rank {dim}, not the Weyl dimension")

    mats = []
    for i, j in spec.gens:
        cols_out = []
        for vec in module:
            out = [ZERO] * len(basis)
            for k, c in enumerate(vec):
                if not c:
                    continue
                t = basis[k]
                for p_idx, v in enumerate(t):
                    if v == j - 1:
                        s = t[:p_idx] + (i - 1,) + t[p_idx + 1:]
                        out[pos[s]] += c
            coords = ech.coordinates(out)
            if coords is None:
                raise RuntimeError("generator action left the module")
            cols_out.append(coords)
        mats.append(tuple(tuple(cols_out[b][a] for b in range(dim))
                          for a in range(dim)))
    return RepMatrices(spec, f"irrep{lam}", dim, tuple(mats))


def build_irrep_gl(lam, n, bound: int = 4) -> RepMatrices:
    """Polynomial gl_n irreducible via the Young symmetrizer.

    The filling is row major; row symmetrization is applied first and
    the signed column sum second.  The rank of the image is checked
    against the Weyl dimension formula before any matrix is extracted.
    """
    lam = tuple(int(x) for x in lam)
    if len(lam) != n:
        raise ValueError("weight length must equal the rank")
    return _build_irrep_gl(lam, n, bound)


def _row_apply(rows, v):
    """The sparse operator rows applied to the dense vector v."""
    live = {j for j, x in enumerate(v) if x}
    return [sum((c * v[j] for j, c in row if j in live), ZERO) for row in rows]


def _krylov_annihilator(op, start, maxdeg):
    ech = Echelon(len(start), aug=maxdeg + 1)
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


def hw_coefficient(spec: AlgebraSpec, word, lam) -> Fraction:
    """Coefficient of the highest weight vector in word . v_lambda.

    The word's matrix index pairs act right to left on v_lambda through
    the Verma module action, with no PBW normal ordering.  That action
    runs in ints on the basis rescaled by the module's scale d, so the
    int coefficient it leaves is divided by d to the word's length.
    """
    word = list(word)
    verma = VermaModule(spec, lam)
    state = {(): 1}
    for i, j in reversed(word):
        c, idx = spec.resolve(i, j)
        if idx is None:
            return ZERO
        state = verma.apply(idx, state, c)
    return Fraction(state.get((), 0), verma.scale ** len(word))
