"""PBW arithmetic in the universal enveloping algebra.

Terms is the ring of finite combinations of normal-ordered monomials
that both U(g) here and the Weyl algebra of the howe module build on;
its docstring states the one coefficient rule and the one product
protocol of both.

A monomial of U(g) is a tuple of generator indices, weakly increasing
in the spec's global order, and a UElement is a Terms over such
monomials.  Products are straightened by the usual rewriting

    x y = y x + [x, y]        (x > y),

applied through two memoised primitives: multiplication of a monomial
by one generator on the left, and monomial times monomial.  The
straightening of a word only ever creates the sorted word of the same
multiset (coefficient 1) plus terms of strictly smaller degree, which
is what the recursion below leans on for termination.  The bracket
constants are ints, so the memoised normal forms, and every product
of elements with integral coefficients, hold ints only.

Why the projection is a monomial filter.  In the nested order every
lowering generator precedes every Cartan and raising one.  A sorted
monomial containing a lowering generator therefore begins with one,
so it lies in the left ideal picture n^- U(g); a sorted monomial with
a raising generator but none lowering ends with Cartan and raising
factors only, and its rightmost raising factor commutes past the
higher Cartans to its right, so the monomial lies in U(g) n^+.  Hence
the projection along

    U(g) = U(h) (+) (n^- U(g) + U(g) n^+)

keeps exactly the monomials all of whose factors are Cartan
(project_hc).
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import CARTAN, AlgebraSpec, as_weight
from .polyrat import rat


def _coeff(c):
    """c as an int when it is integral, as a Fraction otherwise.  The int
    test comes first, as _acc calls this on every accumulation; rat rejects
    floats."""
    if type(c) is int:
        return c
    c = rat(c)
    return c.numerator if c.denominator == 1 else c


def _acc(d, key, c):
    """Add c to d[key] under the coefficient rule, dropping a zero sum."""
    v = d.get(key, 0) + c
    if v:
        d[key] = _coeff(v)
    elif key in d:
        del d[key]


def _gen_times_mono(spec, g, m):
    """Normal form of generator g times sorted monomial m, as a dict."""
    cache = spec._cache_gtm
    out = cache.get((g, m))
    if out is not None:
        return out
    if not m or g <= m[0]:
        out = {(g,) + m: 1}
    else:
        b, rest = m[0], m[1:]
        acc = {}
        for mu, c in _gen_times_mono(spec, g, rest).items():
            for nu, c2 in _gen_times_mono(spec, b, mu).items():
                _acc(acc, nu, c * c2)
        for h, c in spec.bracket(g, b):
            for mu, c2 in _gen_times_mono(spec, h, rest).items():
                _acc(acc, mu, c * c2)
        out = acc
    cache[(g, m)] = out
    return out


def _mono_mul(spec, m1, m2):
    """Normal form of the product of two sorted monomials, as a dict."""
    if not m1:
        return {m2: 1}
    if not m2:
        return {m1: 1}
    if m1[-1] <= m2[0]:
        return {m1 + m2: 1}
    cache = spec._cache_mm
    out = cache.get((m1, m2))
    if out is not None:
        return out
    cur = {m2: 1}
    for g in reversed(m1):
        nxt = {}
        for m, c in cur.items():
            for mu, c2 in _gen_times_mono(spec, g, m).items():
                _acc(nxt, mu, c * c2)
        cur = nxt
    cache[(m1, m2)] = cur
    return cur


class Terms:
    """Finite combination of normal-ordered monomials.  Treat as immutable.

    ``spec`` is the algebra and ``terms`` maps monomials to nonzero
    coefficients.  The coefficient rule: a coefficient is a Python int
    while it is integral and a Fraction only once a caller brings in a
    non-integral scalar; a float scalar or coefficient is a TypeError.
    A subclass supplies the unit monomial (``_unit``), the generator of
    one word atom (``_atom``) and the product kernel ``_add_product(spec,
    acc, left, right)``, which adds the normal-ordered product of two
    term dicts into the dict acc and may leave zero sums there;
    ``_element`` turns such a dict into an element.  ``__mul__`` is
    defined here once.
    """

    __slots__ = ("spec", "terms")

    def __init__(self, spec, terms=None):
        self.spec = spec
        self.terms = dict(terms) if terms else {}

    # -- constructors --------------------------------------------------

    @classmethod
    def zero(cls, spec):
        return cls(spec)

    @classmethod
    def scalar(cls, spec, c):
        c = _coeff(c)
        return cls(spec, {cls._unit(spec): c} if c else {})

    @classmethod
    def _parse(cls, spec, expr):
        """Normal form of a bare word or of (coefficient, word) pairs.

        A word is an iterable of atoms, each mapped to its generator by
        ``_atom``; the empty word is the unit.  The last item of the
        first entry tells the forms apart: an atom ends in an index, a
        pair in a word.
        """
        expr = list(expr)
        if not expr or isinstance(expr[0][-1], (int, Fraction)):
            expr = [(1, expr)]
        total = cls.zero(spec)
        for coeff, word in expr:
            term = cls.scalar(spec, coeff)
            for atom in word:
                term = term * cls._atom(spec, atom)
            total = total + term
        return total

    # -- ring structure ------------------------------------------------

    def _check(self, other):
        if other.spec is not self.spec:
            raise ValueError("elements live over different algebras")

    def _scale(self, c):
        """self times the scalar c."""
        c = _coeff(c)
        if not c:
            return self.zero(self.spec)
        return type(self)(self.spec, {m: _coeff(c * v)
                                      for m, v in self.terms.items()})

    @classmethod
    def _element(cls, spec, acc):
        """The element of a dict filled by _add_product: zero sums go, and
        the other coefficients follow the coefficient rule."""
        return cls(spec, {m: c if type(c) is int else _coeff(c)
                          for m, c in acc.items() if c})

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.scalar(self.spec, other)
        if not isinstance(other, type(self)):
            return NotImplemented
        self._check(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            _acc(out, m, c)
        return type(self)(self.spec, out)

    __radd__ = __add__

    def __neg__(self):
        return type(self)(self.spec, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.scalar(self.spec, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._scale(other)
        if not isinstance(other, type(self)):
            return NotImplemented
        self._check(other)
        acc = {}
        self._add_product(self.spec, acc, self.terms, other.terms)
        return self._element(self.spec, acc)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def __eq__(self, other):
        if isinstance(other, type(self)):
            return self.spec is other.spec and self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self == self.scalar(self.spec, other)
        return NotImplemented

    def __hash__(self):
        return hash((id(self.spec), tuple(sorted(self.terms.items()))))

    def is_zero(self) -> bool:
        return not self.terms

    def commutator(self, other):
        return self * other - other * self


class UElement(Terms):
    """Element of U(g) in PBW normal form over the AlgebraSpec ``spec``."""

    __slots__ = ()

    @staticmethod
    def _unit(spec):
        return ()

    @classmethod
    def _atom(cls, spec, pair):
        i, j = pair
        return cls.generator(spec, i, j)

    @classmethod
    def generator(cls, spec, i, j):
        """The element F[i,j] (gl: E[i,j]) for any valid index pair."""
        c, idx = spec.resolve(i, j)
        if idx is None or not c:
            return cls.zero(spec)
        return cls(spec, {(idx,): c})

    @staticmethod
    def _add_product(spec, acc, left, right):
        """Add the PBW normal form of left times right into acc."""
        get = acc.get
        for m1, c1 in left.items():
            for m2, c2 in right.items():
                c = c1 * c2
                for m, cc in _mono_mul(spec, m1, m2).items():
                    acc[m] = get(m, 0) + c * cc

    # a class-body binding, so that a tracer can find and wrap it here
    __mul__ = Terms.__mul__


def pbw_normalize(spec: AlgebraSpec, expr) -> UElement:
    """Normalise a formal expression in the generators.

    Accepts an UElement (returned unchanged), a single word (an
    iterable of index pairs), or an iterable of (coefficient, word)
    terms.  Unknown index pairs raise ValueError.
    """
    if isinstance(expr, UElement):
        if expr.spec is not spec:
            raise ValueError("element belongs to a different spec")
        return expr
    return UElement._parse(spec, expr)


def project_hc(a: UElement) -> UElement:
    """Projection onto U(h) along n^- U(g) + U(g) n^+."""
    tri = a.spec.triangular
    kept = {m: c for m, c in a.terms.items()
            if all(tri[g] == CARTAN for g in m)}
    return UElement(a.spec, kept)


def evaluate_at_weight(a: UElement, lam) -> Fraction:
    """Evaluate a Cartan element by H_k -> lam_k.

    Raises ValueError when a has a factor outside the Cartan
    subalgebra; project first.
    """
    spec = a.spec
    lam = as_weight(spec, lam)
    coord = spec.cartan_coord
    total = Fraction(0)
    for m, c in a.terms.items():
        v = c
        for g in m:
            k = coord.get(g)
            if k is None:
                raise ValueError("element does not lie in the Cartan subalgebra")
            v *= lam[k]
        total += v
    return total
