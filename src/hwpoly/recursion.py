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

The gl recursion holds at every rank and every order; it is the
corank-one step of the characteristic identities of Bracken and Green
and of Gould.  Proof.  M_pq = E_pq, the E_pq with p < q raise, and
s_i(k) is the coefficient of v_lambda in (M^k)_ii v_lambda in the Verma
module M(lambda), whose weight space of lambda is C v_lambda.  So R_i
is the v_lambda coefficient of ((u - M)^-1)_ii v_lambda, for
(u - M)^-1 = sum_k M^k u^(-k-1) over U(g)((u^-1)).  Split
M = [[M', B], [C, m]]: the column B_q = E_qn and the row C_r = E_nr
for q, r < n, and m = E_nn.  Let a = lambda_n, l = gl_(n-1) + gl_1
the Levi subalgebra of the split, and W = U(l) v_lambda.

1. Over any ring, so over U(g)((u^-1)), where u - X is invertible for
   every X over U(g)[[u^-1]], the top-left block of (u - M)^-1 is
   G = S^-1 for S = u - M' - B (u - m)^-1 C, and the corner is T^-1
   for T = u - m - C (u - M')^-1 B (Schur complements).
2. u+ = span{E_qn : q < n} is l-stable: [E_pr, E_qn] = delta_rq E_pn
   for p, r < n and [E_nn, E_qn] = -E_qn.  Each E_qn raises, so u+
   kills v_lambda, and by l-stability it kills W: B w = 0 for w in W.
3. [E_nn, E_nr] = E_nr, and E_nn, central in l, acts on W as a.  So
   C_r w has E_nn-eigenvalue a + 1, and (u - m)^-1 C_r w =
   C_r w / (u - a - 1), for w in W.
4. [E_qn, E_nr] = E_qr - delta_qr E_nn.
5. By 2-4, for w in W^(n-1): (B (u - m)^-1 C w)_q =
   sum_r E_qn E_nr w_r / (u - a - 1) = sum_r [E_qn, E_nr] w_r /
   (u - a - 1) = ((M' - a) w)_q / (u - a - 1).  M' keeps W^(n-1), so
   S acts on W^(n-1)((u^-1)) as u - M' - (M' - a)/(u - a - 1).
6. u and a are central, so u - M' - (M' - a)/(u - a - 1) =
   (u - a)(u - 1 - M')/(u - a - 1): times u - a - 1, both sides are
   (u - a)(u - 1) - (u - a) M'.
7. So y = (u - a - 1)/(u - a) (u - 1 - M')^-1 e_i v_lambda lies in
   W^(n-1)((u^-1)), S y = e_i v_lambda by 5 and 6, and for i < n
   ((u - M)^-1)_ii v_lambda = G_ii v_lambda = (G S y)_i = y_i.  As
   v_lambda is a highest weight vector of gl_(n-1), of weight
   (lambda_1..lambda_(n-1)), the v_lambda coefficient of
   (M'^k)_ii v_lambda is s'_i(k), and so
   R_i(u) = R'_i(u - 1) (u - a - 1)/(u - a).
8. The corner: B v_lambda = 0 by 2, so T v_lambda = (u - a) v_lambda,
   T^-1 v_lambda = v_lambda / (u - a) and R_n = 1/(u - a).

For o and sp the step to R_(-n) is not derived: there PROVEN lists per
(family, rank) the degree D through which tier-1 finds the recursion
equal to the Verma engine on a lattice simplex (verma.prove_recursion).
scaled_numerators runs the recursion in ints at an explicit pair (L, d),
the weight L/d: in v = d u the series d^-1 R_i(v/d) has the ints
d^k s_i(k) as its coefficients, and every pole is an int, d times the
pole in u.  Each term costs a few int operations per order.  The code
is straight-line ring arithmetic with no branch on L or d, so each int
it returns is one polynomial in (L, d), homogeneous of degree k, as the
simplex check needs.  RecursionSeries serves every term for gl and up
to D + 1 terms of a PROVEN entry, and refuses more.  Nothing here
imports the Verma engine.
"""

from __future__ import annotations

from math import inf

from .algebra import AlgebraSpec, Family, as_weight
from .polyrat import ScaledSeries, clear_denominators

# the numerator of sp's term 2/(u + a) in R_(-n)
SP_CORNER = 2

# o and sp (family, rank): D, the largest degree at which tier-1 proves
# the recursion equal to the Verma engine; D = 2N + 1 covers the 2N + 2
# terms of the resolvent, D = N the deg q + 1 <= N + 1 that certify reads
PROVEN = {
    ("sp", 0): 1, ("sp", 1): 5, ("sp", 2): 9, ("sp", 3): 6,
    ("o_even", 0): 1, ("o_even", 1): 5, ("o_even", 2): 9, ("o_even", 3): 6,
    ("o_odd", 0): 3, ("o_odd", 1): 7, ("o_odd", 2): 11, ("o_odd", 3): 7,
}


def proven_terms(spec: AlgebraSpec):
    """How many terms are proven: inf for gl, D + 1 in PROVEN, else 0."""
    return (inf if spec.family is Family.GL
            else PROVEN.get((spec.family.value, spec.n), -1) + 1)


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
    """s_i(k) at one weight from the rank recursion, where it is proven.

    It provides what the certifier reads of a series, ``spec``, ``lam``,
    ``values(K)`` and ``numerators(K)``, with d the least common
    denominator of lambda, and names its engine.  It keeps only the
    columns of its longest request, as tuples, and hands those out
    uncopied, so a shorter request reads a prefix; asking for more
    terms than proven_terms(spec) raises ValueError.
    """

    engine = "recursion"

    def __init__(self, spec: AlgebraSpec, lam):
        self.spec = spec
        self.lam = as_weight(spec, lam)
        self._d, self._L = clear_denominators(self.lam)
        self._K, self._columns = 0, ((),) * len(spec.matrix_indices)

    def numerators(self, K: int):
        """(d, per diagonal position the ints n(0), n(1), ..., K at least)."""
        K = max(K, 0)
        if K > proven_terms(self.spec):
            raise ValueError(
                f"the recursion is proven for {proven_terms(self.spec)} "
                f"terms of {self.spec.label}, not {K}")
        if K > self._K:
            self._K = K
            self._columns = tuple(map(tuple, scaled_numerators(
                self.spec, self._L, self._d, K)))
        return self._d, self._columns
