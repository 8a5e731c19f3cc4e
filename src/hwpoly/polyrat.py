"""Exact univariate polynomials and truncated expansions at infinity.

All coefficients are fractions.Fraction.  Nothing in the package uses
floating point: certification of minimal polynomials rests on exact
zero tests, so approximate arithmetic would prove nothing.

UniPoly stores coefficients in ascending degree order with trailing
zeros stripped, hence equal values have equal representations.  Its
root form is its rational root multiset as ints a over one denominator
D (scaled_roots).  A UniPoly built from its roots keeps that form and
the roots multiplied out in ints, the product P of (v - a) in v = D u
(root_product), from which its coefficients P_k / D^(m-k) were made;
so reporting or certifying it never searches for roots, and certifying
it clears no Fraction.  The certifier takes only such a polynomial.
Split polynomials are built only by from_roots and from_scaled_roots.
Roots are multiplied out by scaled_product, in ints, and tested and
divided out by one synthetic-division kernel, scaled_quotient: its
single pass ends at the remainder, so it returns the quotient for a
root and None for any other value.  No polynomial is evaluated or
divided anywhere else in the package.

A split polynomial is its root multiset, so polynomials are combined
through their roots and never by division: root_multiset reads them
as a Counter, the lcm (monic_lcm) is the multiset max and divisibility
is multiset inclusion.  No polynomial division or gcd is defined.  The
divisor search runs at most once per polynomial and serves only input
known by its coefficients alone, such as the oracle's Krylov
annihilators: it makes the polynomial monic, slices off the zero roots,
clears denominators, and deflates that list by scaled_quotient with
each candidate in ascending order, for as long as the kernel finds the
candidate a root; after the first division the list holds Fractions.

A series in powers of 1/u around u = infinity is known through its
tail of coefficients of u^-1 .. u^-K; orders beyond u^-K are unknown.
pade_reconstruct recovers a strictly proper rational function from such
a tail by trying denominator degrees in ascending order and solving the
linear system given by the whole available tail, so a successful fit is
automatically the reduced form and a short or corrupted tail is
detected instead of silently misread.

The certifier's single verdict, CertificationError (the candidate does
not annihilate), is defined here beside InvariantError, so a caller can
catch it without loading the certifier.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import accumulate, groupby, repeat
from math import lcm
from operator import mul
from typing import Iterable, Sequence

ZERO = Fraction(0)
ONE = Fraction(1)


def rat(x) -> Fraction:
    """Coerce ints, strings like '3/2', and Fractions to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        raise TypeError("floating point values are not accepted")
    return Fraction(x)


def clear_denominators(values: Sequence[Fraction]):
    """(D, [D x for x in values]) in ints, D the least common denominator."""
    D = lcm(*(x.denominator for x in values))
    return D, [x.numerator * (D // x.denominator) for x in values]


def scaled_product(roots: Iterable[int]) -> "list[int]":
    """Ascending int coefficients of the product of (v - a) over the roots."""
    cs = [1]
    for a in roots:
        # multiply by (v - a) in place, highest degree first
        cs.append(1)
        for k in range(len(cs) - 2, 0, -1):
            cs[k] = cs[k - 1] - a * cs[k]
        cs[0] = -a * cs[0]
    return cs


def scaled_quotient(cs: Sequence[int], a: int) -> "list[int] | None":
    """Ascending coefficients of cs(v) / (v - a) when a is a root of the
    nonzero cs, else None: ints from ints, and Fractions from Fractions.

    One pass of synthetic division both tests and divides: its running
    sum ends at the remainder cs(a), which is zero exactly for a root.
    """
    out, acc = [0] * (len(cs) - 1), 0
    for k in range(len(cs) - 1, 0, -1):
        acc = out[k - 1] = cs[k] + a * acc
    return None if cs[0] + a * acc else out


class ScaledSeries:
    """A family of series held as ints n(k) over powers of one int d.

    A subclass provides ``numerators(K)``: d with, per series, the ints
    n(0), n(1), ... of the terms s(k) = n(k) / d^k, at least K of them.
    """

    def values(self, K: int):
        """Per series s(0), ..., s(K-1) as Fractions."""
        d, cols = self.numerators(K)
        return [[Fraction(n, d ** k) for k, n in zip(range(K), col)]
                for col in cols]


class TruncationError(ValueError):
    """The truncated tail is too short to determine the answer."""


class ReconstructionError(ValueError):
    """No rational function within the degree bound matches the tail."""


class InvariantError(RuntimeError):
    """An exact computation reached a state its mathematics rules out."""


class CertificationError(Exception):
    """The candidate polynomial does not annihilate the module."""

    def __init__(self, message, residuals=()):
        super().__init__(message)
        self.residuals = tuple(residuals)


class UniPoly:
    """Univariate polynomial over Q, coefficients ascending in degree.

    A polynomial built by from_roots also keeps its root multiset and
    their int product, and any other keeps the roots its first search
    found, so scaled_roots and rational_roots search at most once.
    Equality and hashing look at the coefficients only.
    """

    __slots__ = ("coeffs", "_scaled", "_product")

    def __init__(self, coeffs: Iterable = ()):
        cs = [rat(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)
        self._scaled = self._product = None

    @classmethod
    def from_roots(cls, roots: Iterable) -> "UniPoly":
        """The monic product of (u - r) over the roots, with repetition."""
        return cls.from_scaled_roots(
            *clear_denominators([rat(r) for r in roots]))

    @classmethod
    def from_scaled_roots(cls, D: int, scaled: Iterable[int],
                          product=None) -> "UniPoly":
        """from_roots of the roots a / D, multiplied out in ints.

        With P_k the coefficients of scaled_product (or product, when
        the caller holds it), v = D u makes coefficient k equal
        P_k / D^(m-k), made without __init__'s coercion: from the top
        coefficient down, over a running power of D, and as
        Fraction(P_k) when D = 1.  The result keeps (D, the sorted
        ints) as scaled_roots and P as root_product.
        """
        scaled = tuple(sorted(scaled))
        p = cls.__new__(cls)
        p._product = P = tuple(
            scaled_product(scaled) if product is None else product)
        p.coeffs = tuple(map(Fraction, P)) if D == 1 else tuple(map(
            Fraction, reversed(P), accumulate(repeat(D), mul, initial=1)))[::-1]
        p._scaled = (D, scaled)
        return p

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial given degree -1."""
        return len(self.coeffs) - 1

    def __eq__(self, other):
        if isinstance(other, UniPoly):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __mul__(self, other):
        if not isinstance(other, UniPoly):
            return NotImplemented
        out = [ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        out[i + j] += a * b
        return UniPoly(out)

    def scaled_roots(self) -> "tuple[int, tuple[int, ...]]":
        """(D, ascending ints a): the rational roots a / D, with repetition.

        A polynomial built by from_roots returns the roots it was built
        from.  Any other polynomial is searched once, and keeps what was
        found: every divisor of the constant term over every divisor of
        the leading one, after making it monic and clearing
        denominators, which grows quickly with both.  The roots fall
        short of the degree exactly when the polynomial does not split
        over Q (root_multiset raises then).
        """
        if self._scaled is None:
            D, ints = clear_denominators(self._search_roots())
            self._scaled = (D, tuple(ints))
        return self._scaled

    def root_product(self) -> "tuple[int, ...] | None":
        """The ints P_k of the roots multiplied out in v = D u, D that of
        scaled_roots, so coefficient k is P_k / D^(m-k); None unless the
        polynomial was built from its roots.  It never searches."""
        return self._product

    def rational_roots(self) -> "list[tuple[Fraction, int]]":
        """All rational roots with multiplicities, ascending, as Fractions:
        one per run of equal ints of the ascending scaled_roots."""
        D, ints = self.scaled_roots()
        return [(Fraction(a, D), len(list(run))) for a, run in groupby(ints)]

    def _search_roots(self) -> "list[Fraction]":
        if not self.coeffs:
            raise ValueError("zero polynomial")
        zeros = next(k for k, c in enumerate(self.coeffs) if c)
        # monic first, so the leading int cleared below stays small
        lead = self.coeffs[-1]
        _, cs = clear_denominators([c / lead for c in self.coeffs[zeros:]])
        found = [ZERO] * zeros
        cands = {Fraction(sign * pn, qn) for pn in _divisors(cs[0])
                 for qn in _divisors(cs[-1]) for sign in (1, -1)}
        # a constant left over is nonzero, so the kernel refuses it
        for r in sorted(cands):
            while (rest := scaled_quotient(cs, r)) is not None:
                cs = rest
                found.append(r)
        return sorted(found)

    def __repr__(self):
        return f"UniPoly({list(self.coeffs)!r})"

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
            if not c:
                continue
            if k == 0:
                term = str(abs(c))
            else:
                mag = "" if abs(c) == 1 else f"{abs(c)}*"
                term = f"{mag}u" + (f"^{k}" if k > 1 else "")
            if not parts:
                parts.append(term if c > 0 else "-" + term)
            else:
                parts.append(("+ " if c > 0 else "- ") + term)
        return " ".join(parts)


def _divisors(n):
    n = abs(n)
    if n == 0:
        return [1]
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


def pade_reconstruct(tail: Sequence, dmax: int) -> "tuple[UniPoly, UniPoly]":
    """Recover a strictly proper num/den, den monic, from its tail.

    The tail holds the coefficients of u^-1 .. u^-K, and den gets the
    least degree <= dmax that fits it.  Denominator degrees are tried in ascending order; for each degree
    the whole tail is used, so the first consistent fit is the reduced
    answer.  Raises TruncationError when the tail is too short to pin a
    degree down and ReconstructionError when nothing fits within dmax
    or a fit is not unique.
    """
    from .linalg import solve_with_rank

    c = tuple(rat(x) for x in tail)
    k = len(c)
    for d in range(dmax + 1):
        if k - d < d:
            raise TruncationError(
                f"tail of length {k} cannot determine a degree {d} denominator")
        rows = [[c[j + m] for j in range(d)] for m in range(k - d)]
        rhs = [-c[d + m] for m in range(k - d)]
        sol, nfree = solve_with_rank(rows, rhs)
        if sol is None:
            continue
        # Distinct rational functions with denominator degree <= d cannot
        # agree on 2d tail orders, so a consistent system is determined.
        if nfree and d:
            raise ReconstructionError(
                f"tail fits more than one degree {d} denominator")
        den = UniPoly(list(sol) + [ONE])
        rem = [ZERO] * d
        for e in range(d):
            acc = ZERO
            for j in range(e + 1, d + 1):
                b = ONE if j == d else sol[j]
                acc += b * c[j - e - 1]
            rem[e] = acc
        num = UniPoly(rem)
        return num, den
    raise ReconstructionError(
        f"no rational function with denominator degree <= {dmax} matches the tail")


def root_multiset(p: UniPoly) -> Counter:
    """The rational roots of p as a Counter of Fractions, with
    multiplicity.  Raises ValueError when p is zero or the roots fall
    short of its degree, that is, when p does not split over Q."""
    D, ints = p.scaled_roots()
    if len(ints) < p.degree:
        raise ValueError(f"{p} does not split over Q")
    return Counter(Fraction(a, D) for a in ints)


def monic_lcm(polys: Iterable[UniPoly]) -> UniPoly:
    """Monic least common multiple of split polynomials, with lcm() of
    nothing being 1: built from the multiset max of their roots.  Raises
    ValueError for the zero polynomial or one that does not split."""
    roots = Counter()
    for p in polys:
        roots |= root_multiset(p)
    return UniPoly.from_roots(roots.elements())
