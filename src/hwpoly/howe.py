"""Weyl algebra on matrix variables and the dual pair transfer checks.

The algebra acts on polynomials on k x n matrices: position variables
x[a, i] and derivatives d[a, i] with a running over the k rows and i
over the n columns.  A monomial is kept in normal order, every
position factor to the left of every derivative factor, and the
product of two normal monomials is expanded in closed form

    (x^g d^b)(x^G d^B)
        = sum over mu <= min(b, G) of
          C(b, mu) C(G, mu) mu! x^(g + G - mu) d^(b + B - mu),

with all operations taken componentwise; this is the two-block
analogue of repeatedly commuting a derivative past a position factor.
When no variable carries both a derivative of the left factor and a
position of the right one, the sum has the single term mu = 0 and the
product is the monomial with the exponent tuples added.

WeylElement is a Terms of the enveloping module and follows its
coefficient rule: the generators, the entries of L and R, the shift
n - k and every product coefficient above are integers, so the dual
pair checks never leave int.

Two commuting copies of general linear Lie algebras embed here: the
k x k matrix L = X D^t acting by left multiplication on the matrix
space and the n x n matrix R = X^t D acting on the right, labelled
1..k and 1..n.  Both are genmatrix.MatrixU, the one matrix type over
Terms, which also holds the generator matrix over U(g).  The checks
below confirm, symbolically, the power convolution identity relating
R-powers applied to a position row with shifted L-powers, its
resolvent form

    u T(u) = I + (T'(u + k - n) X)^t D

order by order, and minimal polynomial divisibility across the pair
on the Euler family of modules (n = 1, homogeneous polynomials of
degree d against the k-sided symmetric power).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product as iproduct
from math import comb, factorial
from operator import add
from typing import NamedTuple

from .algebra import make_spec
from .enveloping import Terms, _coeff
from .genmatrix import MatrixU
from .polyrat import UniPoly
from .shuffle import minpoly_from_weight


class WeylAlgebra:
    """Index bookkeeping for the Weyl algebra on a k x n matrix."""

    __slots__ = ("n", "k", "nvars")

    def __init__(self, n: int, k: int):
        if n < 1 or k < 1:
            raise ValueError("matrix dimensions must be positive")
        self.n = n
        self.k = k
        self.nvars = n * k

    def slot(self, a: int, i: int) -> int:
        if not (1 <= a <= self.k and 1 <= i <= self.n):
            raise ValueError(f"variable ({a}, {i}) out of range")
        return (a - 1) * self.n + (i - 1)

    def x(self, a: int, i: int) -> "WeylElement":
        e = [0] * self.nvars
        e[self.slot(a, i)] = 1
        z = (0,) * self.nvars
        return WeylElement(self, {(tuple(e), z): 1})

    def d(self, a: int, i: int) -> "WeylElement":
        e = [0] * self.nvars
        e[self.slot(a, i)] = 1
        z = (0,) * self.nvars
        return WeylElement(self, {(z, tuple(e)): 1})


def _mono_mul(alg, m1, m2):
    """Normal form of the product of two normal monomials, as a dict."""
    (g1, b1), (g2, b2) = m1, m2
    active = [v for v in range(alg.nvars) if b1[v] and g2[v]]
    xs, ds = tuple(map(add, g1, g2)), tuple(map(add, b1, b2))
    if not active:
        return {(xs, ds): 1}
    out = {}
    for mu in iproduct(*(range(min(b1[v], g2[v]) + 1) for v in active)):
        coeff = 1
        xe, de = list(xs), list(ds)
        for v, m in zip(active, mu):
            coeff *= comb(b1[v], m) * comb(g2[v], m) * factorial(m)
            xe[v] -= m
            de[v] -= m
        out[(tuple(xe), tuple(de))] = coeff
    return out


class WeylElement(Terms):
    """Polynomial coefficient differential operator.

    ``spec`` is the WeylAlgebra; a monomial is the pair (position
    exponents, derivative exponents) of a normal-ordered product.
    """

    __slots__ = ()

    @staticmethod
    def _unit(alg):
        z = (0,) * alg.nvars
        return (z, z)

    @classmethod
    def _atom(cls, alg, atom):
        kind, a, i = atom
        if kind == "x":
            return alg.x(a, i)
        if kind == "d":
            return alg.d(a, i)
        raise ValueError(f"unknown atom kind {kind!r}")

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._scale(other)
        if not isinstance(other, WeylElement):
            return NotImplemented
        self._check(other)
        out = {}
        get = out.get
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                c = c1 * c2
                for m, cc in _mono_mul(self.spec, m1, m2).items():
                    out[m] = get(m, 0) + c * cc
        return WeylElement(self.spec,
                           {m: _coeff(v) for m, v in out.items() if v})


def weyl_normalize(alg: WeylAlgebra, expr) -> WeylElement:
    """Normal form of an expression in positions and derivatives.

    Accepts either a bare word, an iterable of atoms ("x", a, i) or
    ("d", a, i), or a list of (coefficient, word) pairs.
    """
    return WeylElement._parse(alg, expr)


class DualPairEmbedding(NamedTuple):
    """The commuting matrices L = X D^t (k x k) and R = X^t D (n x n)."""

    alg: WeylAlgebra
    left: MatrixU
    right: MatrixU


def dual_pair(n: int, k: int) -> DualPairEmbedding:
    alg = WeylAlgebra(n, k)
    rows, cols = range(1, k + 1), range(1, n + 1)
    zero = WeylElement.zero(alg)
    left = [[sum((alg.x(a, l) * alg.d(b, l) for l in cols), zero)
             for b in rows] for a in rows]
    right = [[sum((alg.x(b, i) * alg.d(b, j) for b in rows), zero)
              for j in cols] for i in cols]
    return DualPairEmbedding(alg, MatrixU(WeylElement, alg, rows, left),
                             MatrixU(WeylElement, alg, cols, right))


class CheckReport(NamedTuple):
    """Outcome of one identity suite: labels of the failed instances."""

    name: str
    checks: int
    failures: tuple

    @property
    def passed(self) -> bool:
        return not self.failures


def check_conv_powers(n: int, k: int, r_max: int) -> CheckReport:
    """Power convolution: sum_l (R^r)_il x_al = sum_b ((L+(n-k)I)^r)_ab x_bi.

    Checked for r = 0 .. r_max; a negative r_max raises ValueError.
    """
    if r_max < 0:
        raise ValueError(f"r_max must be nonnegative, got {r_max}")
    emb = dual_pair(n, k)
    alg = emb.alg
    rpow = emb.right.powers(r_max)
    lpow = (emb.left + (n - k)).powers(r_max)
    failures = []
    checks = 0
    for r in range(r_max + 1):
        for i in range(1, n + 1):
            for a in range(1, k + 1):
                lhs = sum((rpow[r][i, l] * alg.x(a, l)
                           for l in range(1, n + 1)
                           if not rpow[r][i, l].is_zero()),
                          WeylElement.zero(alg))
                rhs = sum((lpow[r][a, b] * alg.x(b, i)
                           for b in range(1, k + 1)
                           if not lpow[r][a, b].is_zero()),
                          WeylElement.zero(alg))
                checks += 1
                if lhs != rhs:
                    failures.append((r, i, a))
    return CheckReport(f"conv_powers(n={n}, k={k})", checks, tuple(failures))


def check_resolvent_transfer(n: int, k: int, K: int) -> CheckReport:
    """Order-by-order form of u T(u) = I + (T'(u + k - n) X)^t D.

    The coefficient of u^-r on the left is R^r; on the right it is the
    matrix with entries sum_ab (S_(r-1))_ab x_bi d_aj, where
    S_m = (L - (k - n) I)^m collects the shifted resolvent expansion.
    The r = 0 order is the identity matrix on both sides.  Checked for
    r = 1 .. K; K below 1 would check nothing, so it raises ValueError.
    """
    if K < 1:
        raise ValueError(f"K must be at least 1, got {K}")
    emb = dual_pair(n, k)
    alg = emb.alg
    rpow = emb.right.powers(K)
    spow = (emb.left + (n - k)).powers(K - 1)
    failures = []
    checks = n * n   # the trivially equal zeroth order
    for r in range(1, K + 1):
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                rhs = WeylElement.zero(alg)
                for a in range(1, k + 1):
                    for b in range(1, k + 1):
                        s = spow[r - 1][a, b]
                        if not s.is_zero():
                            rhs = rhs + s * alg.x(b, i) * alg.d(a, j)
                checks += 1
                if rpow[r][i, j] != rhs:
                    failures.append((r, i, j))
    return CheckReport(f"resolvent_transfer(n={n}, k={k})", checks,
                       tuple(failures))


class DivisibilityReport(NamedTuple):
    """One Euler-family divisibility instance q(u) | u q'(u + k - n)."""

    n: int
    k: int
    d: int
    q: UniPoly
    q_prime: UniPoly
    product: UniPoly
    divisible: bool


def check_divisibility_instance(n: int, k: int, d: int) -> DivisibilityReport:
    """Minimal polynomial divisibility across the pair, Euler family.

    The degree-d homogeneous polynomials on the k-row column realize
    the duality between the rank-one Euler operator module, with
    minimal polynomial u - d, and the k-sided symmetric power of
    highest weight (d, 0, ..., 0).
    """
    if n != 1:
        raise ValueError("only the rank-one Euler family is constructible")
    if d < 0:
        raise ValueError("degree must be nonnegative")
    q = UniPoly.from_roots([Fraction(d)])
    spec = make_spec("gl", k)
    q_prime = minpoly_from_weight(spec, (d,) + (0,) * (k - 1))
    product = UniPoly.x() * q_prime.shift(Fraction(k - n))
    return DivisibilityReport(n, k, d, q, q_prime, product,
                              q.divides(product))
