"""Matrices over the enveloping algebra, and the generator matrix.

The object of study is the N x N matrix M whose (i, j) entry is the
spanning element F[i,j] (E[i,j] for gl), viewed as a matrix over U(g).
Its powers expand the resolvent (u - M)^{-1} = sum_k M^k u^{-k-1};
after Harish-Chandra projection and evaluation the diagonal of those
powers carries all minimal polynomial data.  The certifier in the
verify module reads those values off a Verma module recurrence
instead; the PBW powers here serve the corank one identities and the
trace diagnostic, whose entries keep Cartan or Levi coordinates
symbolic, and stand as an independent check of that recurrence.

Rows and columns are addressed by the spec's matrix index labels
(1..n for gl, otherwise -n..n without or with 0), not by positions,
so call sites read like the formulas they implement.

Powers of the generator matrix are the single most expensive objects
in the package, each with several times the PBW terms of the one
before, all with int coefficients; they are therefore computed once
per spec and cached on it, as are their projected diagonals.
"""

from __future__ import annotations

from .algebra import AlgebraSpec, Family
from .enveloping import UElement, project_hc


class MatrixU:
    """Square matrix of UElements addressed by matrix index labels."""

    __slots__ = ("spec", "rows")

    def __init__(self, spec: AlgebraSpec, rows):
        self.spec = spec
        self.rows = rows
        if len(rows) != spec.N or any(len(r) != spec.N for r in rows):
            raise ValueError("matrix shape must match the spec size")

    @classmethod
    def identity(cls, spec):
        z = UElement.zero(spec)
        e = UElement.one(spec)
        return cls(spec, [[e if i == j else z for j in range(spec.N)]
                          for i in range(spec.N)])

    def _pos(self, label):
        pos = self.spec._cache_misc.get("mpos")
        if pos is None:
            pos = {v: p for p, v in enumerate(self.spec.matrix_indices)}
            self.spec._cache_misc["mpos"] = pos
        return pos[label]

    def __getitem__(self, key):
        i, j = key
        return self.rows[self._pos(i)][self._pos(j)]

    def __mul__(self, other):
        if not isinstance(other, MatrixU):
            return NotImplemented
        if other.spec is not self.spec:
            raise ValueError("matrices live over different specs")
        n = self.spec.N
        out = []
        for i in range(n):
            row = []
            for j in range(n):
                acc = UElement.zero(self.spec)
                for p in range(n):
                    a = self.rows[i][p]
                    b = other.rows[p][j]
                    if not a.is_zero() and not b.is_zero():
                        acc = acc + a * b
                row.append(acc)
            out.append(row)
        return MatrixU(self.spec, out)

    def diagonal(self):
        """Pairs (label, entry) down the diagonal."""
        return [(lbl, self.rows[p][p])
                for p, lbl in enumerate(self.spec.matrix_indices)]

    def __repr__(self):
        return f"<MatrixU {self.spec.label} {self.spec.N}x{self.spec.N}>"


def generator_matrix(spec: AlgebraSpec) -> MatrixU:
    """The matrix of spanning elements; one shared instance per spec."""
    m = spec._cache_misc.get("genmat")
    if m is None:
        rows = [[UElement.generator(spec, i, j) for j in spec.matrix_indices]
                for i in spec.matrix_indices]
        m = MatrixU(spec, rows)
        spec._cache_misc["genmat"] = m
    return m


def generator_power(spec: AlgebraSpec, k: int) -> MatrixU:
    """M^k for the generator matrix, cached per spec."""
    table = spec._cache_misc.setdefault("powers", [MatrixU.identity(spec)])
    while len(table) <= k:
        table.append(table[-1] * generator_matrix(spec))
    return table[k]


def projected_diagonal(spec: AlgebraSpec, k: int):
    """Cartan projections of the diagonal of M^k, cached per spec.

    Returns a tuple of UElements in U(h), one per matrix index, in
    matrix index order.  These are weight independent; every residual
    evaluation at a weight reuses them.
    """
    cache = spec._cache_misc.setdefault("pdiag", {})
    got = cache.get(k)
    if got is None:
        mk = generator_power(spec, k)
        got = tuple(project_hc(e) for _, e in mk.diagonal())
        cache[k] = got
    return got


def trace(m: MatrixU) -> UElement:
    acc = UElement.zero(m.spec)
    for _, e in m.diagonal():
        acc = acc + e
    return acc


def trace_prime(m: MatrixU) -> UElement:
    """Trace omitting the outermost rows (labels n and -n).

    Only meaningful for the orthogonal and symplectic families, where
    the corank-one formulas refer to it; gl input is rejected.
    """
    spec = m.spec
    if spec.family is Family.GL:
        raise ValueError("trace_prime is defined for the o/sp families only")
    if spec.n == 0:
        return trace(m)
    acc = UElement.zero(spec)
    for lbl, e in m.diagonal():
        if abs(lbl) != spec.n:
            acc = acc + e
    return acc
