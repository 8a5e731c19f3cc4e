"""Matrices over a term algebra, and the generator matrix.

MatrixU is the one matrix type, over any Terms algebra: U(g) here, the
Weyl algebra in the howe module.  A product fills each entry as one
dict through the entry class's product kernel, so it builds no element
for a single product or a partial sum.  The object of study is the N x N
matrix M whose (i, j) entry is the spanning element F[i,j] (E[i,j]
for gl), viewed as a matrix over U(g).  Its powers expand the
resolvent (u - M)^{-1} = sum_k M^k u^{-k-1}; after Harish-Chandra
projection and evaluation the diagonal of those powers carries all
minimal polynomial data.  The certifier reads those values off the
rank recursion or a Verma module recurrence instead; the PBW powers
here serve the corank one identities and the trace diagnostic, whose
entries keep Cartan or Levi coordinates symbolic, and stand as an
independent check of that recurrence.  check_relative_formulas checks
the corank one restriction formulas for the resolvent, and
pp_diagnostic reports the Perelomov Popov style trace generating
function (never asserted, since it disagrees with the exact trace
facts beyond first order).

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
from math import comb
from typing import NamedTuple

from .algebra import AlgebraSpec, Family, as_weight, inner_spec, parabolic
from .enveloping import (UElement, evaluate_at_weight, project_hc,
                         project_relative, restrict_corank_one)
from .linalg import ONE, ZERO
from .polyrat import UniPoly, series_of_rational
from .shuffle import shifted_weight


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


class DiagnosticReport(NamedTuple):
    """Residual magnitudes of one identity, checked order by order."""

    name: str
    residuals: tuple

    @property
    def exact(self) -> bool:
        return all(not r for r in self.residuals)


def _magnitude(a) -> Fraction:
    if isinstance(a, UElement):
        return sum((abs(c) for c in a.terms.values()), ZERO)
    return abs(a)


def _corank_projection(spec):
    if spec.n >= 2:
        par = parabolic(spec, spec.n - 1)
        return lambda a: project_relative(a, par)
    return project_hc


def check_relative_formulas(spec: AlgebraSpec, lam, K: int = 6):
    """Corank one restriction formulas for the resolvent, order by order.

    Compares the restricted projection of the resolvent series of M
    against closed forms in the resolvent of the inner algebra, keeping
    the inner Cartan coordinates symbolic; only the outermost
    coordinate of lam enters.  Returns one DiagnosticReport per
    identity: the removed corner, the inner block, and (orthogonal and
    symplectic only) the opposite corner.
    """
    lam = as_weight(spec, lam)
    if spec.n < 1:
        raise ValueError("rank must be at least 1")
    gl = spec.family is Family.GL
    proj = _corank_projection(spec)
    inner = inner_spec(spec)
    outer = lam[-1] if gl else lam[0]
    # 1/(u - outer) for gl, 1/(u + outer) otherwise
    geom = [outer ** t if gl else (-outer) ** t for t in range(K)]
    corner_label = spec.n

    def restricted(entry_i, entry_j, k):
        ent = generator_power(spec, k)[entry_i, entry_j]
        return restrict_corank_one(proj(ent), outer)

    reports = []
    corner = []
    for m in range(1, K + 1):
        lhs = restricted(corner_label, corner_label, m - 1)
        corner.append(_magnitude(lhs - geom[m - 1]))
    reports.append(DiagnosticReport("corner", tuple(corner)))

    inner_labels = inner.matrix_indices
    inner_pow = [generator_power(inner, s) for s in range(K)]
    block = []
    for m in range(1, K + 1):
        worst = ZERO
        for i in inner_labels:
            for j in inner_labels:
                # A_s: coefficient of u^-s in the inner resolvent at u - 1
                a = [None] + [
                    sum((Fraction(comb(s - 1, r)) * inner_pow[r][i, j]
                         for r in range(s)), UElement.zero(inner))
                    for s in range(1, m + 1)]
                rhs = a[m]
                for t in range(1, m):
                    rhs = rhs - geom[t - 1] * a[m - t]
                worst = max(worst, _magnitude(restricted(i, j, m - 1) - rhs))
        block.append(worst)
    reports.append(DiagnosticReport("inner-block", tuple(block)))

    if not gl:
        c = lam[0] + 2 * spec.rho[0]
        s_series = [restricted(-spec.n, -spec.n, k) for k in range(K)]
        tr_series = [
            restrict_corank_one(proj(trace_prime(generator_power(spec, k))),
                                outer)
            for k in range(K - 1)]
        opp = [_magnitude(s_series[0] - ONE)]
        for m in range(1, K):
            lhs = s_series[m] - c * s_series[m - 1]
            if spec.family is Family.SP:
                rhs = -2 * geom[m - 1] - tr_series[m - 1]
            else:
                rhs = -tr_series[m - 1]
            opp.append(_magnitude(lhs - rhs))
        reports.append(DiagnosticReport("opposite-corner", tuple(opp)))
    return reports


def pp_diagnostic(spec: AlgebraSpec, lam, K: int = 6) -> DiagnosticReport:
    """Residuals of the closed trace generating function against the engine.

    The closed form is the Perelomov Popov style expression in the
    shifted weight; it reproduces neither of the exact low order trace
    facts beyond u^-1 in general, which is why this is a report rather
    than a certification step.  residuals[0] is the magnitude of the
    closed form's polynomial part (the engine series has none) and
    residuals[m] compares the u^-m coefficients for m = 1..K.
    """
    lam = as_weight(spec, lam)
    if spec.family is Family.GL:
        raise ValueError("trace diagnostic applies to o and sp only")
    if spec.n < 1:
        raise ValueError("rank must be at least 1")
    engine = []
    for m in range(1, K + 1):
        total = ZERO
        for pos in range(len(spec.matrix_indices)):
            total += evaluate_at_weight(
                projected_diagonal(spec, m - 1)[pos], lam)
        engine.append(total)

    rho1 = spec.rho[0]
    shifted = shifted_weight(spec, lam)
    p2 = UniPoly.one()
    p1 = UniPoly.one()
    vsq = UniPoly.x() * UniPoly.x()
    vshift = UniPoly.x().shift(-1)
    for li in shifted:
        p2 = p2 * (vsq - UniPoly((li * li,)))
        p1 = p1 * (vshift * vshift - UniPoly((li * li,)))
    v = UniPoly.x()
    half = UniPoly((Fraction(-1, 2), ONE))
    if spec.family is Family.O_ODD:
        num = v * p2 - vshift * (p2 - p1)
    else:
        eps2 = UniPoly((-2 * spec.epsilon, ONE))
        num = eps2 * (p2 - p1)
    den = half * p2
    poly, closed = series_of_rational(num.shift(-rho1), den.shift(-rho1), K)
    # residual 0 is the polynomial part, which the engine series lacks
    head = sum((abs(c) for c in poly.coeffs), ZERO)
    return DiagnosticReport(
        "trace-generating-function",
        (head,) + tuple(e - f for e, f in zip(engine, closed)))
