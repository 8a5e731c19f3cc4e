"""The Verma engine: generators acting on M(lambda), and the diagonal series.

VermaModule gives the action of single generators on the Verma module
M(lambda), which evaluates the Harish-Chandra image at one weight
without normal ordering any product.  It computes in ints alone, on
the generators scaled by the least common denominator d of lambda, so
callers divide by d once per generator in the word, and it memoises
each image at its own weight.  The tests' Verma oracle runs on it too.

walk_numerators walks each column of M^k through M(lambda) one power at
a time; the image of a weight zero element at lambda is the coefficient
of v_lambda when it acts on v_lambda.  Each column stays inside fixed
weight spaces, so its state does not grow with k.  It is the
independent engine that prove_recursion compares the rank recursion
against, at the integral points of a lattice simplex, after checking
on the recursion alone that its ints are homogeneous in (L, d); the
recursion, proven at every rank for every family in its module,
certifies, and this walk only cross-checks it.
check_relative_formulas, the relcheck command, reads the corank-one
identities off the same comparison at one weight: per identity and
order, the largest difference between the two engines over the
diagonal labels that identity builds.  Nothing here builds a PBW
normal form.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from typing import NamedTuple

from .algebra import CARTAN, NEG, AlgebraSpec, Family, as_weight
from .polyrat import clear_denominators
from .recursion import scaled_numerators

# bits per exponent field of a packed Verma monomial
_FIELD = 16


class VermaModule:
    """The Verma module M(lambda): generators acting in ints at its weight.

    Let d (``scale``) be the least common denominator of lambda.  The
    module acts by the rescaled basis x' = d x of the Lie algebra: a
    lowering x' creates its monomial with coefficient 1, a Cartan h'
    multiplies nu v_lambda by the int d lambda(h) + d wt(nu)(h), and
    [x'_a, x'_b] = sum d c_h x'_h has int constants because every c_h
    is.  A word of k generators therefore acts as d^-k times the same
    word in the x', so the coefficient of v_lambda in
    x_1 ... x_k v_lambda is the int found here divided by d^k.  For a
    weight zero element a, the coefficient of v_lambda in a v_lambda is
    the Harish-Chandra image of a evaluated at lambda.

    A lowering monomial is one int of 16-bit exponent fields, one per
    lowering generator in global order, the smallest lowest; v_lambda is
    0.  ``image(g, nu)`` is x'_g nu v_lambda, one {monomial: int} dict,
    memoised on the module.  Prepending x'_g to a monomial that starts
    at g or later adds g's ``unit`` int, the lowest set bit names the
    smallest generator, and a prepend that would bring a field to 2^15
    raises ValueError, so no field carries into the next.  The rest act
    by the recursion g b m = b (g m) + [g, b] m on the structure
    constants, never PBW products.
    """

    def __init__(self, spec: AlgebraSpec, lam):
        self.scale, self._cartan = clear_denominators(as_weight(spec, lam))
        self.spec = spec
        self._kind = kind = spec.triangular
        lowering = [g for g, k in enumerate(kind) if k == NEG]
        self.unit = unit = [0] * len(kind)
        for f, g in enumerate(lowering):
            unit[g] = 1 << (_FIELD * f)
        # low[b] is the generator whose field holds bit b - 1, so the
        # bit_length of a monomial's lowest bit names its smallest one
        self._low = [None] + [g for g in lowering for _ in range(_FIELD)]
        # the top bit of every field
        self._top = sum(unit) << (_FIELD - 1)
        # the int weight of each monomial at H_1 .. H_n, memoised; a
        # lowering generator's from [H, x] for H = E_cc - E_-c,-c (gl: E_cc)
        cartan = [spec.gens[h][0] for h in spec.cartan_by_coord]
        self._weights = {0: (0,) * spec.n}
        for g in lowering:
            i, j = spec.gens[g]
            self._weights[unit[g]] = tuple(
                (i == c) - (j == c) - (i == -c) + (j == -c) for c in cartan)
        self._images = [{} for _ in kind]

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
        """x'_g applied to nu v_lambda, as {monomial: int}; never mutate it."""
        memo = self._images[g]
        out = memo.get(nu)
        if out is not None:
            return out
        kind, d = self._kind[g], self.scale
        if kind == CARTAN:
            k = self.spec.cartan_coord[g]
            value = self._cartan[k] + d * self._weight(nu)[k]
            out = {nu: value} if value else {}
        elif kind == NEG and not nu & (self.unit[g] - 1):
            out = self._prepend(g, {nu: 1})
        elif not nu:
            out = {}
        else:
            b = self._low[(nu & -nu).bit_length()]
            rest = nu - self.unit[b]
            out = self._prepend(b, self.image(g, rest))
            for h, c in self.spec.bracket(g, b):
                self._add(h, rest, d * c, out)
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
        """x'_b applied to vec for a lowering b, a direct shift on every
        monomial that starts at b or later."""
        unit, top = self.unit[b], self._top
        out, later = {}, []
        for key, c in vec.items():
            # a field of a generator before b
            if key & (unit - 1):
                later.append((key, c))
            elif (key + unit) & top:
                raise ValueError("a Verma exponent reached 2**15, past the "
                                 "range of a packed monomial")
            else:
                out[key + unit] = c
        for key, c in later:
            self._add(b, key, c, out)
        return out


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


def walk_numerators(spec: AlgebraSpec, lam, K: int):
    """(d, per diagonal position the ints n(0), ..., n(K-1)) from the
    Verma walk, with s_i(k) = pi((M^k)_ii)(lambda) = n_i(k) / d^k.

    Positions are in matrix index order.  Column i of M^k applied to
    v_lambda in the Verma module M(lambda) obeys
    u_p^(k) = sum_q M_pq u_q^(k-1) from u_p^(0) = delta_pi v_lambda,
    and s_i(k) is the coefficient of v_lambda in u_i^(k).  Each u_p
    stays in the weight space lambda + wt(p) - wt(i), so the state never
    grows with k and needs no truncation.

    The columns are int vectors in the rescaled basis of the
    VermaModule: with d its scale, M_pq = c x_g = (c/d) x'_g for the
    int sign c, so the recurrence steps with c alone, the stored column
    is d^k u^(k), and each step records the int n_i(k), the coefficient
    of v_lambda.  A column is one dict keyed by the packed pair
    (nu << shift) | p of a Verma monomial nu and a position p, so
    v_lambda in u_i is the key i.  A step reads one row per key (nu, q),
    sum_p M_pq x nu over M's column q: each term coef tau of c x'_g nu,
    for M_pq = c x_g, is one flat pair of the key (tau << shift) | p and
    the int c * coef.  The rows are built once per call, from the
    module's images, and each column steps K - 1 times.
    """
    module = VermaModule(spec, lam)
    entries, image, rows = _entry_table(spec), module.image, {}
    shift = len(entries).bit_length()
    mask = (1 << shift) - 1

    def row(key):
        out = []
        for p, (c, g) in entries[key & mask].items():
            for tau, ct in image(g, key >> shift).items():
                out += ((tau << shift) | p, c * ct)
        return tuple(out)

    numerators = []
    for i in range(len(entries)):
        column, n = {i: 1}, [1]
        for _ in range(K - 1):
            new = {}
            get = new.get
            for key, cv in column.items():
                pairs = rows.get(key)
                if pairs is None:
                    pairs = rows[key] = row(key)
                pairs = iter(pairs)
                for out, c in zip(pairs, pairs):
                    new[out] = get(out, 0) + cv * c
            column = {key: c for key, c in new.items() if c}
            n.append(new.get(i, 0))
        numerators.append(n[:K])
    return module.scale, numerators


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
    (L, d, label, k) for each k <= D where a check fails at (L, d).
    Write P_k(L, d) for the recursion's order k int,
    scaled_numerators(spec, L, d, D + 1)[i][k], at a label i.  There
    are two checks:

    * homogeneity, at every pair of T(n, D): P_k(2L, 2d) = 2^k P_k(L, d);
    * the walk, at the pairs with d = 1: P_k(L, 1) equals the int s_i(k)
      of walk_numerators(spec, L, D + 1).

    No mismatch proves the two engines equal, for k <= D, at every
    weight and every scale d:

    * Degree.  The recursion's int for k is a polynomial in (L, d) of
      total degree at most k, by induction on the rank.  Every pole E
      it divides by is linear in (L, d).  Division by v - E sends a
      series whose order j term has degree at most j + 1 (d times a
      series of the induction, or the constant 1 at order -1) to one
      whose order k term has degree at most k, so 1/(v - E),
      p (1 - d/(v - E)) and (1 - X)/(v - E) all keep the degree at most
      the order.  The code has no branch on (L, d), so it computes that
      one polynomial at every pair.  On the Verma side,
      s_i(k)(lambda) = pi((M^k)_ii)(lambda) is a polynomial of total
      degree at most k in lambda, the Harish-Chandra image of an
      element of filtration degree k.
    * Unisolvence.  T(n, D) is the simplex S(n + 1, D) = {x >= 0 in
      Z^(n+1), |x| <= D} moved by d = x_(n+1) + 1, and a polynomial of
      total degree at most D that vanishes on S(n + 1, D) is zero: in
      the binomial basis prod_j C(x_j, a_j), |a| <= D, its values there
      form a unitriangular system.  The same holds for S(n, D), the
      pairs of T(n, D) with d = 1.
    * Homogeneity.  Q(x) = P_k(2x) - 2^k P_k(x) has degree at most
      k <= D and vanishes on T(n, D), so it is zero.  Its part of
      degree j is (2^j - 2^k) times that of P_k, so P_k is homogeneous
      of degree k, and P_k(L, d) = d^k P_k(L/d, 1).  A wrong power of d
      breaks this, though the d = 1 points alone would not see it.
    * Agreement.  P_k(L, 1) and s_i(k)(L) have degree at most D in L
      and agree on S(n, D), so they agree at every L.  With
      homogeneity, P_k(L, d) = d^k s_i(k)(L/d) at every pair.

    The proof shows that the engines agree, not that either is right;
    the recursion module proves the recursion itself, so this check
    guards the code that runs it.
    """
    points, mismatches = 0, []
    K = D + 1
    for L, d in _simplex(spec.n, D):
        points += 1
        mine = scaled_numerators(spec, L, d, K)
        checks = [(scaled_numerators(spec, [2 * x for x in L], 2 * d, K),
                   [[x * 2 ** k for k, x in enumerate(col)] for col in mine])]
        if d == 1:
            checks.append((mine, walk_numerators(spec, L, K)[1]))
        for got, want in checks:
            for label, a, b in zip(spec.matrix_indices, got, want):
                mismatches += [(L, d, label, k)
                               for k, (x, y) in enumerate(zip(a, b)) if x != y]
    return points, mismatches


class DiagnosticReport(NamedTuple):
    """Residual magnitudes of one identity, checked order by order."""

    name: str
    residuals: tuple

    @property
    def exact(self) -> bool:
        return all(not r for r in self.residuals)


def check_relative_formulas(spec: AlgebraSpec, lam, K: int = 6):
    """The corank one identities at lambda, order by order.

    Each identity of the recursion module builds the series of some
    diagonal labels: the corner R_n = 1/(u - a), the inner block
    R_i = R'_i(u - 1) (u - a - 1)/(u - a) for |i| < n (o and sp: u + a
    for u - a in both; label 0 of o_odd included), and, for o and sp,
    the opposite corner (u - c) R_(-n) = 1 - T - [sp] 2 R_n.  The
    recursion runs them and the Verma walk computes every
    s_i(k) = pi((M^k)_ii)(lambda) without them, so at each order k < K
    a report holds the largest |recursion - walk| over its labels, and
    an exact report says that the identity holds there.  Returns the
    reports "corner", "inner-block" and (o and sp only)
    "opposite-corner".
    """
    if spec.n < 1:
        raise ValueError("rank must be at least 1")
    d, L = clear_denominators(as_weight(spec, lam))
    n, labels = spec.n, spec.matrix_indices
    # both engines give the ints d^k s_i(k), over the same d
    walk = walk_numerators(spec, lam, K)[1]
    diffs = {i: [x - y for x, y in zip(mine, ref)] for i, mine, ref
             in zip(labels, scaled_numerators(spec, L, d, K), walk)}
    blocks = [("corner", [n]),
              ("inner-block", [i for i in labels if abs(i) < n])]
    if spec.family is not Family.GL:
        blocks.append(("opposite-corner", [-n]))
    return [DiagnosticReport(name, tuple(
        Fraction(max((abs(diffs[i][k]) for i in block), default=0), d ** k)
        for k in range(K))) for name, block in blocks]
