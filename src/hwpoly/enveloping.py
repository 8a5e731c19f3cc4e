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

Why projections are monomial filters.  In the nested order every
lowering generator of an outer level precedes the whole inner block,
and every raising generator follows it.  A sorted monomial containing
a lowering generator therefore begins with one, so it lies in the left
ideal picture n^- U(g); a sorted monomial with a raising generator but
none lowering ends with Cartan and raising factors only, and its
rightmost raising factor commutes past the higher Cartans to its
right, so the monomial lies in U(g) n^+.  The same argument applies
verbatim at every level of the Levi chain, with "lowering/raising"
read relative to that level.  Hence the projection along

    U(g) = U(m) (+) (n^- U(g) + U(g) n^+)

keeps exactly the monomials all of whose factors lie in the Levi set,
both for the Cartan subalgebra (project_hc) and for the corank
parabolics (project_relative).

VermaModule is the other half: the action of single generators on the
Verma module M(lambda), which evaluates the Harish-Chandra image at one
weight without normal ordering any product.  It computes in ints alone,
on the generators scaled by the least common denominator d of lambda,
so callers divide by d once per generator in the word.  Each image is
affine in the weight, so a VermaTable holds it once per (spec, d) for
every weight of that scale, and a module evaluates it at its lambda.
The certifier and the Verma oracle both run on it.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul
from weakref import proxy

from .algebra import (CARTAN, NEG, POS, AlgebraSpec, Family, ParabolicData,
                      as_weight, inner_spec)
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
    def one(cls, spec):
        return cls.scalar(spec, 1)

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

    # -- display -------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        items = sorted(self.terms.items())
        bits = []
        for m, c in items:
            names = []
            k = 0
            while k < len(m):
                e = 1
                while k + e < len(m) and m[k + e] == m[k]:
                    e += 1
                nm = self.spec.gen_name(m[k])
                names.append(nm if e == 1 else f"{nm}^{e}")
                k += e
            body = "*".join(names) if names else "1"
            if c == 1 and names:
                term = body
            elif c == -1 and names:
                term = "-" + body
            else:
                term = f"{c}*{body}" if names else str(c)
            bits.append(term)
        out = bits[0]
        for b in bits[1:]:
            out += " + " + b if not b.startswith("-") else " - " + b[1:]
        return out

    def __repr__(self):
        return f"<UElement {self}>"


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


def project_relative(a: UElement, p: ParabolicData) -> UElement:
    """Projection onto U(levi) along lower U(g) + U(g) upper."""
    if p.spec is not a.spec:
        raise ValueError("parabolic data belongs to a different spec")
    levi = p.levi
    kept = {m: c for m, c in a.terms.items() if all(g in levi for g in m)}
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


# bits per exponent field of a packed Verma monomial
_FIELD = 16
# the one zero image, shared by every table; no image is ever mutated
_ZERO_IMAGE = {}


class VermaTable:
    """The generators acting on every Verma module of one scale d.

    Let Lambda_k = d lambda(H_k), an int at each weight of scale d.  On
    a lowering monomial nu, x'_g = d x_g acts affinely in the Lambda_k:
    a lowering x' only reorders lowering generators, a Cartan h' gives
    (Lambda_h + d wt(nu)(h)) nu, and a raising x' moved right through nu
    meets at most one Cartan element along each term, which ends the
    term there: the coroot [x_g, x_b] = sum f_k H_k of a raising g met
    by the lowering b of the opposite root.  So x'_g nu v_lambda =
    sum_s Lambda_s V_s, with int vectors V_s of the spec and d alone:
    Lambda_0 = 1, slot k + 1 holds Lambda_k, and each raising generator
    has a slot holding sum f_k Lambda_k (``coroots`` lists the f of
    slots n + 1, n + 2, ...).  ``images[g][nu]`` is one int dict keyed by
    (tau << slot_bits) | s per monomial tau of V_s, Cartan images
    included.  The table of (spec, d) is ``spec._cache_misc["verma",
    d]``; every module and DiagonalSeries of that scale shares it and
    the certifier's ``rows``, for as long as the spec lives.  The table
    refers to its spec through a weak proxy, so the two form no
    reference cycle and a spec no one holds is freed with its tables
    at once.

    A lowering monomial is one int of 16-bit exponent fields, one per
    lowering generator in global order, the smallest lowest; v_lambda is
    0.  Prepending x'_g to a monomial that starts at g or later adds g's
    ``unit`` int, the lowest set bit names the smallest generator, and
    a prepend that would bring a field to 2^15 raises ValueError, so no
    field carries into the next.  The rest act by the recursion g b m =
    b (g m) + [g, b] m on the structure constants, never PBW products.
    """

    def __init__(self, spec: AlgebraSpec, d: int):
        self.spec, self.scale = proxy(spec), d
        self._kind = kind = spec.triangular
        lowering = [g for g, k in enumerate(kind) if k == NEG]
        self.unit = unit = [0] * len(kind)
        for f, g in enumerate(lowering):
            unit[g] = 1 << (_FIELD * f)
        # low[b] is the generator whose field holds bit b - 1, so the
        # bit_length of a monomial's lowest bit names its smallest one
        self._low = [None] + [g for g in lowering for _ in range(_FIELD)]
        n = spec.n
        # raising g: (the lowering b of the opposite root, slot, f)
        self.coroots, self._coroot = [], {}
        for g, (i, j) in enumerate(spec.gens):
            if kind[g] == POS:
                b = spec.resolve(j, i)[1]
                f = dict(spec.bracket(g, b))
                f = tuple(f.get(h, 0) for h in spec.cartan_by_coord)
                self.coroots.append(f)
                self._coroot[g] = b, n + len(self.coroots), f
        self.slot_bits = (n + len(self.coroots)).bit_length()
        # the top bit of every field, in the packed keys of an image
        self._top = sum(unit) << (_FIELD - 1 + self.slot_bits)
        # the int weight of each monomial at H_1 .. H_n, memoised; a
        # lowering generator's from [H, x] for H = E_cc - E_-c,-c (gl: E_cc)
        cartan = [spec.gens[h][0] for h in spec.cartan_by_coord]
        self._weights = {0: (0,) * n}
        for g in lowering:
            i, j = spec.gens[g]
            self._weights[unit[g]] = tuple(
                (i == c) - (j == c) - (i == -c) + (j == -c) for c in cartan)
        self.images, self.rows = [{} for _ in kind], {}

    def _weight(self, nu):
        """The int weight of the lowering monomial nu."""
        wt = self._weights.get(nu)
        if wt is None:
            unit = self.unit[self._low[(nu & -nu).bit_length()]]
            wt = self._weights[nu] = tuple(
                x + y for x, y in zip(self._weight(nu - unit),
                                      self._weights[unit]))
        return wt

    def image(self, g, nu):
        """x'_g applied to nu v_lambda, packed as the class docstring says."""
        memo = self.images[g]
        out = memo.get(nu)
        if out is not None:
            return out
        kind, sb, d = self._kind[g], self.slot_bits, self.scale
        if kind == CARTAN:
            k = self.spec.cartan_coord[g]
            out = {nu << sb | k + 1: 1}
            _acc(out, nu << sb, d * self._weight(nu)[k])
        elif kind == NEG and not nu & (self.unit[g] - 1):
            out = self._prepend(g, {nu << sb: 1})
        elif not nu:
            out = _ZERO_IMAGE
        else:
            b = self._low[(nu & -nu).bit_length()]
            rest = nu - self.unit[b]
            out = memo.get(rest)
            if out is None:
                out = self.image(g, rest)
            out = self._prepend(b, out) if out else {}
            partner, slot, f = self._coroot.get(g, (None, 0, ()))
            if b == partner:
                # d sum f_k (Lambda_k + d wt(rest)_k) rest
                _acc(out, rest << sb | slot, d)
                _acc(out, rest << sb,
                     d * d * sum(map(mul, f, self._weight(rest))))
            else:
                for h, c in self.spec.bracket(g, b):
                    self._add(h, rest, d * c, out)
            out = out or _ZERO_IMAGE
        memo[nu] = out
        return out

    def _add(self, g, nu, c, out):
        """Add c times the image of (g, nu) into out, dropping zero sums."""
        get = out.get
        for key, ct in self.image(g, nu).items():
            v = get(key, 0) + c * ct
            if v:
                out[key] = v
            else:
                del out[key]

    def _prepend(self, b, vec):
        """x'_b applied to the packed affine vec for a lowering b, a direct
        shift on every monomial that starts at b or later."""
        sb = self.slot_bits
        unit, top = self.unit[b] << sb, self._top
        out, later = {}, []
        for key, c in vec.items():
            # a field of a generator before b; never in a term with a
            # slot, whose monomial is part of one that starts at b or later
            if key & (unit - (1 << sb)):
                later.append((key, c))
            elif (key + unit) & top:
                raise ValueError("a Verma exponent reached 2**15, past the "
                                 "range of a packed monomial")
            else:
                out[key + unit] = c
        for key, c in later:
            self._add(b, key >> sb, c, out)
        return out


class VermaModule:
    """The Verma module M(lambda): its scale, table and slot values.

    Arithmetic is in Python ints only.  Let d (``scale``) be the least
    common denominator of lambda.  The module acts by the rescaled
    basis x' = d x of the Lie algebra: a lowering x' creates its
    monomial with coefficient 1, a Cartan h' multiplies v_lambda by the
    integer d lambda(h), and [x'_a, x'_b] = sum d c_h x'_h has integer
    constants because every c_h is.  A word of k generators therefore
    acts as d^-k times the same word in the x', so the coefficient of
    v_lambda in x_1 ... x_k v_lambda is the int found here divided by
    d^k.  For a weight zero element a, the coefficient of v_lambda in a
    v_lambda is the Harish-Chandra image of a evaluated at lambda.

    A vector maps packed lowering monomials (see VermaTable) to ints.
    The module holds no image: x'_g acts on a monomial nu by the image
    ``table.image(g, nu)`` of the VermaTable of (spec, d), each of its
    keys weighed by the value at lambda of its slot in ``slots``.
    A test that corrupts an action on purpose must use a fresh
    AlgebraSpec, never one of make_spec, whose tables later modules read.
    """

    def __init__(self, spec: AlgebraSpec, lam):
        lam = as_weight(spec, lam)
        # the table holds its spec weakly; the module keeps it alive
        self.spec = spec
        self.scale = d = lcm(*(x.denominator for x in lam))
        self.table = spec._cache_misc.get(("verma", d))
        if self.table is None:
            self.table = spec._cache_misc["verma", d] = VermaTable(spec, d)
        cartan = [x.numerator * (d // x.denominator) for x in lam]
        self.slots = (1, *cartan, *(sum(map(mul, f, cartan))
                                    for f in self.table.coroots))


def restrict_corank_one(a: UElement, outer_value) -> UElement:
    """Map a Levi element at level n-1 into the inner spec's U.

    The level n-1 Levi is U(inner algebra) tensor the polynomial ring
    on the outer Cartan generator; the outer generator is evaluated at
    outer_value (gl: H_n -> lambda_n, others: H_1 -> lambda_1).  Terms
    with factors outside that Levi are rejected.
    """
    spec = a.spec
    sub = inner_spec(spec)
    outer_value = Fraction(outer_value)
    outer_cartan = spec.cartan_by_coord[spec.n - 1] \
        if spec.family is Family.GL else spec.cartan_by_coord[0]
    level = spec.n - 1
    remap = {}
    for g, pair in enumerate(spec.gens):
        if spec.gen_level[g] <= level:
            remap[g] = sub.gen_index[pair]
    out = {}
    for m, c in a.terms.items():
        coeff = c
        mono = []
        for g in m:
            if g == outer_cartan:
                coeff *= outer_value
            elif g in remap:
                mono.append(remap[g])
            else:
                raise ValueError("element is not supported on the corank-one Levi")
        _acc(out, tuple(mono), coeff)
    return UElement(sub, out)
