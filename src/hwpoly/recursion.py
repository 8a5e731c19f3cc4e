"""The diagonal of the projected resolvent by the corank-one recursion.

Write R_i(u) = sum_k s_i(k) u^(-k-1) for the diagonal of the projected
resolvent of M at lambda, with s_i(k) = pi((M^k)_ii)(lambda).  The
corank-one identities (genmatrix.check_relative_formulas), projected
on to U(h), build every R_i from the diagonal R' of the inner algebra:

* gl, with a = lambda_n: R_n = 1/(u - a), and for i < n
  R_i(u) = R'_i(u - 1) (u - a - 1)/(u - a), R' at (lambda_1..lambda_(n-1));
* o and sp, with a = lambda_1 and c = a + 2 rho_1: R_n = 1/(u + a), the
  inner labels have R_i(u) = R'_i(u - 1) (u + a - 1)/(u + a), R' at
  (lambda_2..lambda_n), and with T the sum of these inner R_i,
  R_(-n) = (1 - T)/(u - c) for o and (1 - 2/(u + a) - T)/(u - c) for sp;
* rank 0: o_odd has R_0 = 1/u, the other families have no entries.

Unrolled, the shifts R'(u - 1) add up: the rank m algebra's series are
read at u - (n - m), so every factor above is a factor in u alone, with
its pole moved by n - m, and the series never needs shifting.  For gl
this gives R_i = 1/(u - l_i) prod_(j > i) (u - l_j - 1)/(u - l_j) in
the shifted weight l_j = lambda_j + n - j.

scaled_numerators runs the recursion in ints at an explicit pair (L, d),
the weight L/d: in v = d u the series d^-1 R_i(v/d) has the ints
d^k s_i(k) as its coefficients, and every pole is an int, d times the
pole in u.  Each term costs a few int operations per order.  The code
is straight-line ring arithmetic with no branch on L or d, so each int
it returns is one polynomial in (L, d), homogeneous of degree k;
prove_recursion compares those polynomials with the Verma engine's on
a lattice simplex, and PROVEN lists the (family, rank) and degree D at
which tier-1 does; only it imports the Verma engine.  RecursionSeries
serves up to D + 1 terms of a PROVEN entry, as the certifier reads a
DiagonalSeries, and refuses more.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from .algebra import AlgebraSpec, Family, as_weight
from .polyrat import ScaledSeries, clear_denominators

# the numerator of sp's term 2/(u + a) in R_(-n)
SP_CORNER = 2

# (family, rank): D, the largest degree at which tier-1 proves the
# recursion equal to the Verma engine; D = 2N + 1 covers the 2N + 2
# terms of the resolvent, D = N the deg q + 1 <= N + 1 that certify reads
PROVEN = {
    ("gl", 0): 1, ("gl", 1): 3, ("gl", 2): 5, ("gl", 3): 7,
    ("gl", 4): 4, ("gl", 5): 5,
    ("sp", 0): 1, ("sp", 1): 5, ("sp", 2): 9, ("sp", 3): 6,
    ("o_even", 0): 1, ("o_even", 1): 5, ("o_even", 2): 9, ("o_even", 3): 6,
    ("o_odd", 0): 3, ("o_odd", 1): 7, ("o_odd", 2): 11, ("o_odd", 3): 7,
}


def proven_terms(spec: AlgebraSpec) -> int:
    """How many terms PROVEN covers for spec: D + 1, or 0 past the table."""
    return PROVEN.get((spec.family.value, spec.n), -1) + 1


def _powers(e, K):
    """The coefficients e^k of 1/(v - e)."""
    out = [1] * K
    for k in range(1, K):
        out[k] = out[k - 1] * e
    return out


def _times(p, e, d):
    """The coefficients of p(v) (v - e - d)/(v - e) = p(v) (1 - d/(v - e)),
    for p = sum p_k v^(-k-1)."""
    out, acc = [], 0
    for x in p:
        # acc is the coefficient of v^(-k-1) in p(v)/(v - e)
        out.append(x - d * acc)
        acc = x + e * acc
    return out


def _one_minus_over(X, C):
    """The coefficients of (1 - X(v))/(v - C), for X = sum X_k v^(-k-1)."""
    out, acc, power = [], 0, 1
    for x in X:
        out.append(power - acc)
        acc, power = x + C * acc, power * C
    return out


def scaled_numerators(spec: AlgebraSpec, L, d: int, K: int):
    """Per diagonal position, in matrix index order, the ints d^k s_i(k)
    for k < K at the weight L/d, for ints L (one per coordinate) and d.

    The series are held in the variable v = d u of the whole algebra.
    Step m reads the rank m algebra's u - (n - m), so its R'(u - 1) is
    the step before as held.  Its factors 1/(u + a), (u + a - 1)/(u + a)
    (gl: u - a) are 1/(v - E) and 1 - d/(v - E) for the int pole
    E = d (n - m) - A (gl: + A), A the scaled coordinate, and R_(-m)
    divides by v - E' for the pole E' = d (n - m) + d c.
    """
    n, gl = spec.n, spec.family is Family.GL
    # rank 0 reads u - n: o_odd's R_0 = 1/u has its pole at v = d n
    series = {0: _powers(d * n, K)} if spec.family is Family.O_ODD else {}
    for m in range(1, n + 1):
        s = d * (n - m)
        E = s + L[m - 1] if gl else s - L[n - m]
        for label, p in series.items():
            series[label] = _times(p, E, d)
        inner = list(series.values())
        series[m] = corner = _powers(E, K)
        if gl:
            continue
        # the inner sum times d, with sp's SP_CORNER d/(v - E); the
        # pole is c = a + 2 rho_1, and 2 rho_1 = 2 epsilon + 2m - 2
        X = [d * sum(col) for col in zip(*inner)] or [0] * K
        if spec.family is Family.SP:
            X = [x + SP_CORNER * d * y for x, y in zip(X, corner)]
        series[-m] = _one_minus_over(
            X, s + L[n - m] + d * int(2 * spec.epsilon + 2 * m - 2))
    return [series[label] for label in spec.matrix_indices]


class RecursionSeries(ScaledSeries):
    """s_i(k) at one weight from the rank recursion, for PROVEN ranks.

    It provides what the certifier reads of a series, ``spec``, ``lam``,
    ``values(K)`` and ``numerators(K)``, with d the least common
    denominator of lambda, and names its engine.  It keeps only the
    columns of its longest request, and asking for more terms than
    proven_terms(spec) raises ValueError.
    """

    engine = "recursion"

    def __init__(self, spec: AlgebraSpec, lam):
        self.spec = spec
        self.lam = as_weight(spec, lam)
        self._d, self._L = clear_denominators(self.lam)
        self._K, self._columns = 0, [[] for _ in spec.matrix_indices]

    def numerators(self, K: int):
        """(d, per diagonal position the ints n(0), ..., n(K-1))."""
        K = max(K, 0)
        if K > proven_terms(self.spec):
            raise ValueError(
                f"the recursion is proven for {proven_terms(self.spec)} "
                f"terms of {self.spec.label}, not {K}")
        if K > self._K:
            self._K = K
            self._columns = scaled_numerators(self.spec, self._L, self._d, K)
        return self._d, [col[:K] for col in self._columns]


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
    (L, d, label, k) for each k <= D where scaled_numerators(spec, L,
    d, D + 1) differs from d^k times DiagonalSeries(spec, L/d).values.
    No mismatch proves the two engines equal, for k <= D, at every
    weight and every scale d:

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
    the Verma engine stays the reference.
    """
    from .verma import DiagonalSeries
    points, mismatches = 0, []
    for L, d in _simplex(spec.n, D):
        points += 1
        mine = scaled_numerators(spec, L, d, D + 1)
        ref = DiagonalSeries(spec, [Fraction(x, d) for x in L]).values(D + 1)
        for label, col, want in zip(spec.matrix_indices, mine, ref):
            mismatches += [(L, d, label, k) for k, (n, s)
                           in enumerate(zip(col, want)) if n != s * d ** k]
    return points, mismatches
