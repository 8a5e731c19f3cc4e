"""Matrices over a term algebra, and the generator matrix.

MatrixU is the one matrix type, over any Terms algebra: U(g) here, the
Weyl algebra in the howe module.  A product fills each entry as one
dict through the entry class's product kernel, so it builds no element
for a single product or a partial sum.  The object of study is the N x N
matrix M whose (i, j) entry is the spanning element F[i,j] (E[i,j]
for gl), viewed as a matrix over U(g).  Its powers expand the
resolvent (u - M)^{-1} = sum_k M^k u^{-k-1}; after Harish-Chandra
projection and evaluation the diagonal of those powers carries all
minimal polynomial data.  The certifier in the verify module reads
those values off a Verma module recurrence instead; the PBW powers
here serve the corank one identities and the trace diagnostic, whose
entries keep Cartan or Levi coordinates symbolic, and stand as an
independent check of that recurrence.

Rows and columns are addressed by labels, not by positions (for M the
spec's matrix index labels, 1..n for gl, otherwise -n..n without or
with 0), so call sites read like the formulas they implement.

Powers of the generator matrix are the single most expensive objects
in the package, each with several times the PBW terms of the one
before, all with int coefficients; they are therefore computed once
per spec and cached on it, as are their projected diagonals.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import AlgebraSpec, Family
from .enveloping import UElement, project_hc


class MatrixU:
    """Square matrix of Terms entries addressed by labels.

    elem is the entry class, spec the algebra all entries live over and
    labels the row (and column) labels in order.  A matrix carries all
    three itself, since an N = 0 matrix has no entry to read them off.
    """

    __slots__ = ("elem", "spec", "labels", "rows", "_pos")

    def __init__(self, elem, spec, labels, rows):
        self.elem = elem
        self.spec = spec
        self.labels = tuple(labels)
        self.rows = rows
        self._pos = {v: p for p, v in enumerate(self.labels)}
        n = len(self.labels)
        if len(rows) != n or any(len(r) != n for r in rows):
            raise ValueError("matrix shape must match its labels")

    @classmethod
    def scalar(cls, elem, spec, labels, c=1):
        """c times the identity matrix."""
        z, e = elem.zero(spec), elem.scalar(spec, c)
        return cls(elem, spec, labels,
                   [[e if i == j else z for j in labels] for i in labels])

    def __getitem__(self, key):
        i, j = key
        return self.rows[self._pos[i]][self._pos[j]]

    def _check(self, other):
        if other.spec is not self.spec or other.labels != self.labels:
            raise ValueError("matrices live over different algebras or labels")

    def __add__(self, other):
        """Entrywise sum; a scalar c stands for c times the identity."""
        if isinstance(other, (int, Fraction)):
            other = MatrixU.scalar(self.elem, self.spec, self.labels, other)
        if not isinstance(other, MatrixU):
            return NotImplemented
        self._check(other)
        return MatrixU(self.elem, self.spec, self.labels,
                       [[a + b for a, b in zip(r, s)]
                        for r, s in zip(self.rows, other.rows)])

    def __mul__(self, other):
        if not isinstance(other, MatrixU):
            return NotImplemented
        self._check(other)
        elem, spec = self.elem, self.spec
        cols = [[b.terms for b in col] for col in zip(*other.rows)]
        out = []
        for row in self.rows:
            left = [a.terms for a in row]
            new = []
            for col in cols:
                acc = {}
                for a, b in zip(left, col):
                    if a and b:
                        elem._add_product(spec, acc, a, b)
                new.append(elem._element(spec, acc))
            out.append(new)
        return MatrixU(elem, spec, self.labels, out)

    def powers(self, top):
        """[M^0, M^1, ..., M^top]."""
        out = [MatrixU.scalar(self.elem, self.spec, self.labels)]
        for _ in range(top):
            out.append(out[-1] * self)
        return out

    def diagonal(self):
        """Pairs (label, entry) down the diagonal."""
        return [(lbl, self.rows[p][p]) for p, lbl in enumerate(self.labels)]

    def __repr__(self):
        n = len(self.labels)
        return f"<MatrixU {self.elem.__name__} {n}x{n}>"


def generator_matrix(spec: AlgebraSpec) -> MatrixU:
    """The matrix of spanning elements; one shared instance per spec."""
    m = spec._cache_misc.get("genmat")
    if m is None:
        mi = spec.matrix_indices
        rows = [[UElement.generator(spec, i, j) for j in mi] for i in mi]
        m = MatrixU(UElement, spec, mi, rows)
        spec._cache_misc["genmat"] = m
    return m


def generator_power(spec: AlgebraSpec, k: int) -> MatrixU:
    """M^k for the generator matrix, cached per spec."""
    table = spec._cache_misc.setdefault(
        "powers", [MatrixU.scalar(UElement, spec, spec.matrix_indices)])
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


def trace_prime(m: MatrixU) -> UElement:
    """Trace omitting the outermost rows (labels n and -n).

    Only meaningful for the orthogonal and symplectic families, where
    the corank-one formulas refer to it; gl input is rejected.
    """
    spec = m.spec
    if spec.family is Family.GL:
        raise ValueError("trace_prime is defined for the o/sp families only")
    acc = {}
    for lbl, e in m.diagonal():
        if abs(lbl) != spec.n:
            for mono, c in e.terms.items():
                acc[mono] = acc.get(mono, 0) + c
    return UElement._element(spec, acc)
