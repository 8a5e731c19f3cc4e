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

A monomial is one Python int of 16-bit exponent fields.  Variable v =
(a - 1) n + (i - 1) keeps its position exponent in field v, bits
16 v .. 16 v + 15, and its derivative exponent in field n k + v, so
the empty monomial is 0 and the exponent addition above is one integer
addition.  Taking mu from both exponents of v subtracts mu times the
int with a 1 in each of the two fields of v.  The contraction sum runs
only over the variables where the factors meet: each monomial of the
factor with fewer terms lists the variables it could contract (the
derivative fields of a left monomial, the position fields of a right
one), and each monomial of the other factor is read on those fields
alone.  When they meet nowhere the sum has the single term mu = 0 and
the product is the sum of the two ints.  A product whose factors hold
a field of 2^15 or more raises ValueError before it adds anything;
fields below 2^15 sum to at most 2^16 - 2, so no field ever carries
into its neighbour and no answer is ever approximate.

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
degree d against the k-sided symmetric power).  Sums of products are
formed in place: each entry of a matrix product, and each side of each
identity, is one dict that every product of its sum adds into through
_add_product, rather than a new element per product and per addition.
"""

from __future__ import annotations

from functools import reduce
from math import comb, factorial
from operator import or_
from typing import NamedTuple

from .algebra import make_spec
from .enveloping import Terms
from .genmatrix import MatrixU
from .polyrat import UniPoly, root_multiset

_FIELD = 16
_MASK = (1 << _FIELD) - 1
_LIMIT = 1 << (_FIELD - 1)


class WeylAlgebra:
    """Index bookkeeping and monomial packing for a k x n matrix."""

    __slots__ = ("n", "k", "nvars", "_dshift", "_fields", "_high",
                 "_contractions")

    def __init__(self, n: int, k: int):
        if n < 1 or k < 1:
            raise ValueError("matrix dimensions must be positive")
        self.n = n
        self.k = k
        self.nvars = n * k
        self._dshift = _FIELD * self.nvars
        # per variable: the shift of its position field and the int that
        # takes one from both of its exponents
        self._fields = tuple(
            (_FIELD * v, (1 << _FIELD * v) + (1 << _FIELD * v + self._dshift))
            for v in range(self.nvars))
        self._high = sum(_LIMIT << _FIELD * f for f in range(2 * self.nvars))
        # (e, f, unit) -> the terms (mu * unit, C(e, mu) C(f, mu) mu!) of
        # one variable's contraction sum
        self._contractions = {}

    def slot(self, a: int, i: int) -> int:
        if not (1 <= a <= self.k and 1 <= i <= self.n):
            raise ValueError(f"variable ({a}, {i}) out of range")
        return (a - 1) * self.n + (i - 1)

    def monomial(self, xe, de) -> int:
        """The packed int of x^xe d^de, each a sequence of nvars exponents."""
        fields = [*xe, *de]
        if len(fields) != 2 * self.nvars:
            raise ValueError(f"a monomial has {self.nvars} position and "
                             f"{self.nvars} derivative exponents")
        m = 0
        for e in reversed(fields):
            if not 0 <= e < _LIMIT:
                raise ValueError(f"exponent {e} outside 0 .. 2**15 - 1")
            m = m << _FIELD | e
        return m

    def x(self, a: int, i: int) -> "WeylElement":
        e = [0] * self.nvars
        e[self.slot(a, i)] = 1
        return WeylElement(self, {self.monomial(e, [0] * self.nvars): 1})

    def d(self, a: int, i: int) -> "WeylElement":
        e = [0] * self.nvars
        e[self.slot(a, i)] = 1
        return WeylElement(self, {self.monomial([0] * self.nvars, e): 1})


def _add_product(alg, acc, left, right):
    """Add the product of the term dicts left and right into acc.

    Zero sums stay in acc; Terms._element drops them.
    """
    if (reduce(or_, left, 0) | reduce(or_, right, 0)) & alg._high:
        raise ValueError("a Weyl exponent reached 2**15, past the range "
                         "of a packed monomial")
    # the outer loop runs over the factor with fewer terms: own is the
    # shift of the fields it contracts on, other that of its partner's
    if len(left) <= len(right):
        small, large, own, other = left, right, alg._dshift, 0
    else:
        small, large, own, other = right, left, 0, alg._dshift
    get = acc.get
    table = alg._contractions
    for ms, cs in small.items():
        meet = [(s + other, e, unit) for s, unit in alg._fields
                if (e := (ms >> (s + own)) & _MASK)]
        if not meet:
            for ml, cl in large.items():
                m = ms + ml
                acc[m] = get(m, 0) + cs * cl
            continue
        for ml, cl in large.items():
            m, c = ms + ml, cs * cl
            # the contraction sum as (amount taken off m, weight) pairs,
            # a product over the variables where ml meets ms
            steps = None
            for s, e, unit in meet:
                f = (ml >> s) & _MASK
                if f:
                    var = table.get((e, f, unit))
                    if var is None:
                        var = table[e, f, unit] = tuple(
                            (mu * unit,
                             comb(e, mu) * comb(f, mu) * factorial(mu))
                            for mu in range(min(e, f) + 1))
                    steps = var if steps is None else [
                        (d1 + d2, w1 * w2)
                        for d1, w1 in steps for d2, w2 in var]
            if steps is None:
                acc[m] = get(m, 0) + c
                continue
            for drop, w in steps:
                mm = m - drop
                acc[mm] = get(mm, 0) + c * w


class WeylElement(Terms):
    """Polynomial coefficient differential operator.

    ``spec`` is the WeylAlgebra; a monomial is the packed int of a
    normal-ordered product, built by ``WeylAlgebra.monomial``.
    """

    __slots__ = ()

    @staticmethod
    def _unit(alg):
        return 0

    @classmethod
    def _atom(cls, alg, atom):
        kind, a, i = atom
        if kind == "x":
            return alg.x(a, i)
        if kind == "d":
            return alg.d(a, i)
        raise ValueError(f"unknown atom kind {kind!r}")

    _add_product = staticmethod(_add_product)
    # a class-body binding, so that a tracer can find and wrap it here
    __mul__ = Terms.__mul__


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
    alg, element = emb.alg, WeylElement._element
    rpow = emb.right.powers(r_max)
    lpow = (emb.left + (n - k)).powers(r_max)
    rows, cols = range(1, k + 1), range(1, n + 1)
    x = {(a, i): alg.x(a, i).terms for a in rows for i in cols}
    failures = []
    checks = 0
    for r in range(r_max + 1):
        for i in cols:
            for a in rows:
                lhs, rhs = {}, {}
                for l in cols:
                    _add_product(alg, lhs, rpow[r][i, l].terms, x[a, l])
                for b in rows:
                    _add_product(alg, rhs, lpow[r][a, b].terms, x[b, i])
                checks += 1
                if element(alg, lhs) != element(alg, rhs):
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
    alg, element = emb.alg, WeylElement._element
    rpow = emb.right.powers(K)
    spow = (emb.left + (n - k)).powers(K - 1)
    rows, cols = range(1, k + 1), range(1, n + 1)
    xd = {(b, i, a, j): (alg.x(b, i) * alg.d(a, j)).terms
          for b in rows for i in cols for a in rows for j in cols}
    failures = []
    checks = n * n   # the trivially equal zeroth order
    for r in range(1, K + 1):
        for i in cols:
            for j in cols:
                rhs = {}
                for a in rows:
                    for b in rows:
                        _add_product(alg, rhs, spow[r - 1][a, b].terms,
                                     xd[b, i, a, j])
                checks += 1
                if rpow[r][i, j] != element(alg, rhs):
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
    highest weight (d, 0, ..., 0), whose minimal polynomial q' is the
    certified one (verify.certified_minimal_polynomial), not the fast
    shuffle answer.  Both sides split over Q, so divisible is inclusion
    of their root multisets.
    """
    # the certifier loads only for the one family that reads it
    from .verify import certified_minimal_polynomial

    if n != 1:
        raise ValueError("only the rank-one Euler family is constructible")
    if d < 0:
        raise ValueError("degree must be nonnegative")
    q = UniPoly.from_roots([d])
    spec = make_spec("gl", k)
    q_prime = certified_minimal_polynomial(spec, (d,) + (0,) * (k - 1))[0]
    # u q'(u + k - n): the root 0 and each root of q' less k - n
    product = UniPoly.from_roots([0] + [r - k + n for r, m in
                                        q_prime.rational_roots()
                                        for _ in range(m)])
    return DivisibilityReport(n, k, d, q, q_prime, product,
                              root_multiset(q) <= root_multiset(product))
