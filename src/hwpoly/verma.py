"""The Verma engine: generators acting on M(lambda), and the diagonal series.

VermaTable and VermaModule give the action of single generators on the
Verma module M(lambda), which evaluates the Harish-Chandra image at one
weight without normal ordering any product.  They compute in ints
alone, on the generators scaled by the least common denominator d of
lambda, so callers divide by d once per generator in the word.  Each
image is affine in the weight, so a VermaTable holds it once per
(spec, d) for every weight of that scale, and a module evaluates it at
its lambda.  The tests' Verma oracle runs on them too.

DiagonalSeries walks the columns of M^k through M(lambda) one power at
a time; the image of a weight zero element at lambda is the coefficient
of v_lambda when it acts on v_lambda.  Each column stays inside fixed
weight spaces, so its state does not grow with k.  Every Verma image
and row is affine in lambda and held once per (spec, d), so all series
of one algebra and scale share them.  It is the independent engine
that prove_recursion compares the rank recursion against, on a lattice
simplex; the recursion, proven at every rank for every family in its
module, certifies, and this walk only cross-checks it.  Nothing here
builds a PBW normal form.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from operator import mul
from weakref import proxy

from .algebra import CARTAN, NEG, POS, AlgebraSpec, as_weight
from .polyrat import ScaledSeries, clear_denominators
from .recursion import scaled_numerators

# bits per exponent field of a packed Verma monomial
_FIELD = 16
# the one zero image, shared by every table; no image is ever mutated
_ZERO_IMAGE = {}


def _acc(d, key, c):
    """Add the int c to d[key], dropping a zero sum."""
    v = d.get(key, 0) + c
    if v:
        d[key] = v
    elif key in d:
        del d[key]


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
    the walk's ``rows``, for as long as the spec lives.  The table
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
        d, cartan = clear_denominators(as_weight(spec, lam))
        # the table holds its spec weakly; the module keeps it alive
        self.spec, self.scale = spec, d
        self.table = spec._cache_misc.get(("verma", d))
        if self.table is None:
            self.table = spec._cache_misc["verma", d] = VermaTable(spec, d)
        self.slots = (1, *cartan, *(sum(map(mul, f, cartan))
                                    for f in self.table.coroots))


def _entry_table(spec: AlgebraSpec):
    """Per column q of M, {p: (c, g)} for each M_pq = c times generator g.

    Only the nonzero entries are listed; p and q are positions in
    matrix index order.  Built once per spec and kept on it.
    """
    table = spec._cache_misc.get("entries")
    if table is None:
        mi = spec.matrix_indices
        table = spec._cache_misc["entries"] = tuple(
            {p: (c, g) for p, (c, g) in enumerate(spec.resolve(i, j)
                                                  for i in mi)
             if g is not None}
            for j in mi)
    return table


class DiagonalSeries(ScaledSeries):
    """s_i(k) = pi((M^k)_ii)(lambda) for every diagonal entry, grown on demand.

    Column i of M^k applied to v_lambda in the Verma module M(lambda)
    obeys u_p^(k) = sum_q M_pq u_q^(k-1) from u_p^(0) = delta_pi v_lambda,
    and s_i(k) is the coefficient of v_lambda in u_i^(k).  Each u_p stays
    in the weight space lambda + wt(p) - wt(i), so the state never grows
    with k and needs no truncation.  One instance serves every request
    at one weight and holds the only state that depends on lambda,
    validated once.

    The columns are int vectors in the rescaled basis of the
    VermaModule: with d its scale, M_pq = c x_g = (c/d) x'_g for the
    int sign c, so the recurrence steps with c alone, the stored column
    is d^k u^(k), and each step stores the int n_i(k), the coefficient
    of v_lambda, with s_i(k) = n_i(k) / d^k.  A column is one dict
    keyed by the packed pair (nu << shift) | p of a Verma monomial nu
    and a position p, so v_lambda in u_i is the key i.  A step reads
    one row per key (nu, q), sum_p M_pq x nu over M's column q, from the
    VermaTable's ``rows``: it is affine in lambda, and the step weighs
    each term by the value of its slot at lambda.  The columns are
    stepped to the last power a request needs; a later request steps on.

    The certifier reads exactly four things of a series: ``spec``,
    ``lam``, ``values(K)`` (the s_i(k) as Fractions) and
    ``numerators(K)`` (d with the ints n_i(k)); a certificate also
    records its ``engine``.  RecursionSeries provides the same, and
    the certifier runs on it.  This walk is the reference that
    prove_recursion compares the recursion against.
    """

    engine = "verma"

    def __init__(self, spec: AlgebraSpec, lam):
        self.spec = spec
        self.lam = as_weight(spec, lam)
        self._module = VermaModule(spec, self.lam)
        self._entries = _entry_table(spec)
        self._shift = len(self._entries).bit_length()
        # the columns hold u^(K - 1); n(0) .. n(K - 1) are known
        self._columns = [{p: 1} for p in range(len(self._entries))]
        self._numerators = [[1] for _ in self._entries]
        self._K = 1

    def numerators(self, K: int):
        """(d, per diagonal position the ints n(0), ..., n(K-1)).

        Positions are in matrix index order and s(k) = n(k) / d^k.
        """
        K = max(K, 0)
        while self._K < K:
            self._step()
        return self._module.scale, [n[:K] for n in self._numerators]

    def _step(self):
        """Columns u^(K - 1) -> u^(K), recording n(K)."""
        rows, slots = self._module.table.rows, self._module.slots
        for i, column in enumerate(self._columns):
            new = {}
            get = new.get
            for key, cv in column.items():
                row = rows.get(key)
                if row is None:
                    row = rows[key] = self._row(key)
                pairs = iter(row[0])
                for out, c in zip(pairs, pairs):
                    new[out] = get(out, 0) + cv * c
                triples = iter(row[1])
                for out, s, c in zip(triples, triples, triples):
                    new[out] = get(out, 0) + cv * c * slots[s]
            self._columns[i] = {key: c for key, c in new.items() if c}
            self._numerators[i].append(new.get(i, 0))
        self._K += 1

    def _row(self, key):
        """The row of key = (nu, q): M_pq nu over M's column q.

        A term Lambda_s coef tau of c x'_g nu, for M_pq = c x_g, keys
        (tau << shift) | p with the int c * coef: flat (key, int) pairs
        for slot 0, flat (key, s, int) triples for the others.
        """
        table, shift = self._module.table, self._shift
        sb = table.slot_bits
        mask = (1 << sb) - 1
        nu, q = key >> shift, key & ((1 << shift) - 1)
        const, linear = [], []
        for p, (c, g) in self._entries[q].items():
            for tau, ct in table.image(g, nu).items():
                s = tau & mask
                if s:
                    linear += ((tau >> sb << shift) | p, s, c * ct)
                else:
                    const += ((tau >> sb << shift) | p, c * ct)
        return tuple(const), tuple(linear)


def _simplex(n: int, D: int):
    """Every (L, d) with L >= 0 in Z^n, d >= 1 and |L| + d - 1 <= D."""
    for d in range(1, D + 2):
        for L in product(range(D + 2 - d), repeat=n):
            if sum(L) <= D + 1 - d:
                yield L, d


def prove_recursion(spec: AlgebraSpec, D: int):
    """Compare the recursion with the Verma engine through degree D.

    Returns (points, mismatches): the number of pairs (L, d) of the
    set T(n, D) = {L >= 0 in Z^n, d >= 1, |L| + d - 1 <= D}, and one
    (L, d, label, k) for each k <= D where the recursion's
    scaled_numerators(spec, L, d, D + 1) differs from d^k times
    DiagonalSeries(spec, L/d).values.  No mismatch proves the two
    engines equal, for k <= D, at every weight and every scale d:

    * Degree.  s_i(k)(lambda) = pi((M^k)_ii)(lambda) is a polynomial of
      total degree at most k in lambda, the Harish-Chandra image of an
      element of filtration degree k; so d^k s_i(k)(L/d) is a
      polynomial in (L, d), homogeneous of degree k.
    * Homogeneity.  The recursion's int for k is a polynomial in (L, d)
      homogeneous of degree k, by induction on the rank.  Every pole E
      it divides by is linear in (L, d).  Division by v - E sends a
      series whose order j term has degree j + 1 (d times a series of
      the induction, or the constant 1 at order -1) to one whose order
      k term has degree k, so 1/(v - E), p (1 - d/(v - E)) and
      (1 - X)/(v - E) all keep the degree equal to the order.  The code
      has no branch on (L, d), so it computes that one polynomial at
      every pair.  With d a variable of the proof, a wrong power of d
      changes that polynomial; integral points alone (d = 1) would not
      see it.
    * Unisolvence.  T(n, D) is the simplex S(n + 1, D) = {x >= 0 in
      Z^(n+1), |x| <= D} moved by d = x_(n+1) + 1, and a polynomial of
      total degree at most D that vanishes on S(n + 1, D) is zero: in
      the binomial basis prod_j C(x_j, a_j), |a| <= D, its values there
      form a unitriangular system.  So two polynomials of degree at
      most D that agree on T(n, D) agree everywhere.

    The proof shows that the engines agree, not that either is right;
    the recursion module proves the recursion itself, so this check
    guards the code that runs it.
    """
    points, mismatches = 0, []
    for L, d in _simplex(spec.n, D):
        points += 1
        mine = scaled_numerators(spec, L, d, D + 1)
        ref = DiagonalSeries(spec, [Fraction(x, d) for x in L]).values(D + 1)
        for label, col, want in zip(spec.matrix_indices, mine, ref):
            mismatches += [(L, d, label, k) for k, (n, s)
                           in enumerate(zip(col, want)) if n != s * d ** k]
    return points, mismatches
