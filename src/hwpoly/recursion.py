"""The diagonal of the projected resolvent by the corank-one recursion.

Write R_i(u) = sum_k s_i(k) u^(-k-1) for the diagonal of the projected
resolvent of M at lambda, with s_i(k) = pi((M^k)_ii)(lambda).  The
corank-one identities, projected on to U(h), build every R_i from the
diagonal R' of the inner algebra (verma.check_relative_formulas checks
them at one weight against the Verma walk):

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

The o and sp recursion holds at every rank and every order as well,
by the same split.  Proof.  Now M_pq = F[p,q], the F[p,q] with p < q
raise or vanish, and a = lambda_1 is the eigenvalue of
H_1 = F[-n,-n] = -F[n,n] on v_lambda.  Order the labels -n, the N - 2
inner ones (-(n-1)..(n-1), with 0 for o_odd), n, and split off n:
M = [[M'', B], [C, m]] with B_q = F[q,n] and C_r = F[n,r] for q, r
not n, and m = F[n,n]; M' is the inner block of M''.  Let l = g' + C m
with g' the rank n - 1 algebra on the inner labels, W = U(l) v_lambda,
and u+ = span{F[-n,j] : j > -n}.  Step 1 holds with M'' for M'.

9.  u+ raises, and it is l-stable: [m, F[-n,j]] = -F[-n,j] -
    delta_jn F[-n,n], and for inner p, r, [F[p,r], F[-n,j]] =
    -delta_pj F[-n,r] + theta(p,r) delta_(r,-j) F[-n,-p].  So it kills
    W as in step 2.  F[q,n] = -theta(q,n) F[-n,-q] for inner q, and
    B_(-n) = F[-n,n], so B w = 0 for w in W.
10. m is central in l, so it acts on W as -a, and [m, F[n,r]] = F[n,r]
    for inner r: (u - m)^-1 C_r w = C_r w / (u + a - 1).
11. [F[q,n], F[n,r]] = F[q,r] - delta_qr m for inner q, r, and
    [F[-n,n], F[n,r]] is 0 in o, where F[-n,n] = 0, and 2 F[-n,r] in
    sp: in u+ either way.
12. Take y with y_(-n) = 0 and its inner entries in W.  By 9-11
    row q of S y = (u - M'' - B (u - m)^-1 C) y is, for inner q,
    ((u - M') y - (M' + a) y / (u + a - 1))_q, and row -n is
    -sum_r F[-n,r] y_r - sum_r [F[-n,n], F[n,r]] y_r / (u + a - 1) = 0,
    summed over inner r, as F[-n,r] and [F[-n,n], F[n,r]] lie in u+.
13. u - M' - (M' + a)/(u + a - 1) = (u + a)(u - 1 - M')/(u + a - 1):
    times u + a - 1, both sides are (u + a)(u - 1) - (u + a) M'.
14. M' has its entries in l, so y = (u + a - 1)/(u + a)
    (u - 1 - M')^-1 e_i v_lambda, with y_(-n) = 0, is such a y, and
    S y = e_i v_lambda for inner i by 12 and 13.  As in step 7
    R_i(u) = R'_i(u - 1) (u + a - 1)/(u + a): the inner Cartan basis
    is H_2..H_n, so v_lambda has weight (lambda_2..lambda_n) for g'.
15. The corner: B v_lambda = 0 by 9, so R_n = 1/(u + a) as in step 8.
16. For every p, [F_ab, M^p] = A M^p - M^p A with the scalar matrix
    A = e_ba - theta(a,b) e_(-a,-b): at p = 1 this is the bracket, and
    [F_ab, .] is a derivation.  In entries, [F_ab, (M^p)_cd] =
    delta_bc (M^p)_ad - delta_ad (M^p)_cb
    - theta(a,b) delta_(a,-c) (M^p)_(-b,d)
    + theta(a,b) delta_(b,-d) (M^p)_(c,-a).
17. The opposite corner: (M^k)_(-n,-n) = sum_j F[-n,j] P_(j,-n), with
    P = M^(k-1) and j over every label.  F[-n,-n] commutes with the
    weight zero P_(-n,-n) and acts as a.  Each F[-n,j] with j > -n
    raises or vanishes, so F[-n,j] P_(j,-n) v_lambda =
    [F[-n,j], P_(j,-n)] v_lambda, which by 16 is
    (P_(-n,-n) - P_jj) v_lambda for inner j, and for j = n is 0 in o
    and 2 (P_(-n,-n) - P_nn) v_lambda in sp, where theta(-n,n) = -1.
18. Taking v_lambda coefficients, s_(-n)(k) = c s_(-n)(k - 1) -
    sum_(i inner) s_i(k - 1) - [sp] 2 s_n(k - 1), with c = a + N - 2
    for o and a + N for sp, which is a + 2 rho_1 (2 rho_1 =
    2 epsilon + 2n - 2).  With s_(-n)(0) = 1 this says
    (u - c) R_(-n) = 1 - T - [sp] 2 R_n, the recursion above.
19. Rank 0: o_odd has M = [F[0,0]] = [0], so R_0 = 1/u.

Each R_i divides by a sub-multiset of the N poles the unrolled
recursion meets: one per step m for gl, at u = l_m, two for o and sp,
the poles of 1/(u + a) and 1/(u - c) read at u - (n - m), and o_odd's
rank 0 pole u = n.  With l = lambda + rho and c = n - 1 + epsilon,
their product is the characteristic identity of Bracken and Green and
of Gould, chi(u) = prod_k (u - l_k) for gl and
prod_k (u - c + l_k)(u - c - l_k) for o and sp, times u - n for o_odd.
So chi(u) R_i(u) is a polynomial, its u^-1 coefficient
pi(chi(M)_ii)(lambda) vanishes, and chi(M) annihilates L(lambda):
RecursionSeries.characteristic is a candidate that always certifies.

scaled_numerators runs the recursion in ints at an explicit pair
(L, d), the weight L/d: in v = d u the series d^-1 R_i(v/d) has the
ints d^k s_i(k) as its coefficients, and every pole is an int, d times
the pole in u.  Step m multiplies each entry it holds by
1 - d/(v - E), and every new diagonal entry is (1 - X)/(v - E) for one
int pole E, made by one kernel: X = 0 for the corner and for o_odd's
rank 0 entry, and for R_(-m) X is the inner sum times d, with sp's
corner term.  Each term costs a few int operations per order.  The
code is straight-line ring arithmetic with no branch on L or d, so
each int it returns is one polynomial in (L, d), homogeneous of degree
k, which is what lets verma.prove_recursion check the code against the
Verma walk on a lattice simplex.  RecursionSeries serves every term of
every family.  Nothing here imports the Verma engine.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import AlgebraSpec, Family, as_weight
from .polyrat import UniPoly, clear_denominators

# the numerator of sp's term 2/(u + a) in R_(-n)
SP_CORNER = 2


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


def scaled_poles(spec: AlgebraSpec, L, d: int):
    """The N int poles of the recursion at the weight L/d, d times the
    poles in u, in the order scaled_numerators divides by them.

    o_odd's rank 0 pole d n comes first; then step m gives E =
    d (n - m) - A (gl: + A), A the scaled coordinate, and for o and sp
    E' = d (n - m) + d c, the pole of R_(-m).
    """
    n = spec.n
    if spec.family is Family.GL:
        return [d * (n - m) + L[m - 1] for m in range(1, n + 1)]
    # rank 0 reads u - n: o_odd's R_0 = 1/u has its pole at v = d n
    poles = [d * n] if spec.family is Family.O_ODD else []
    # c = a + 2 rho_1, and 2 rho_1 = 2 epsilon + 2m - 2, with 2 epsilon
    # an int
    two_eps = int(2 * spec.epsilon)
    for m in range(1, n + 1):
        s = d * (n - m)
        poles += (s - L[n - m], s + L[n - m] + d * (two_eps + 2 * m - 2))
    return poles


def scaled_numerators(spec: AlgebraSpec, L, d: int, K: int):
    """Per diagonal position, in matrix index order, the ints d^k s_i(k)
    for k < K at the weight L/d, for ints L (one per coordinate) and d.

    The series are held in the variable v = d u of the whole algebra.
    Step m reads the rank m algebra's u - (n - m), so its R'(u - 1) is
    the step before as held, and its factor (u + a - 1)/(u + a)
    (gl: u - a) is 1 - d/(v - E).  Every new diagonal entry is
    (1 - X)/(v - E) for an int pole E of scaled_poles: the corner
    1/(u + a) and o_odd's rank 0 entry have X = 0, and R_(-m) has the
    pole E' and X the inner sum times d, with sp's 2 d/(v - E).
    """
    n, gl = spec.n, spec.family is Family.GL
    poles = iter(scaled_poles(spec, L, d))
    series = {0: _one_minus_over([0] * K, next(poles))} \
        if spec.family is Family.O_ODD else {}
    for m in range(1, n + 1):
        E = next(poles)
        for label, p in series.items():
            series[label] = _times(p, E, d)
        inner = list(series.values())
        series[m] = corner = _one_minus_over([0] * K, E)
        if gl:
            continue
        # the inner sum times d, with sp's SP_CORNER d/(v - E)
        X = [d * sum(col) for col in zip(*inner)] or [0] * K
        if spec.family is Family.SP:
            X = [x + SP_CORNER * d * y for x, y in zip(X, corner)]
        series[-m] = _one_minus_over(X, next(poles))
    return [series[label] for label in spec.matrix_indices]


class RecursionSeries:
    """s_i(k) at one weight from the rank recursion, the one series the
    certifier and the resolvent read.

    They read ``spec``, ``lam``, ``numerators(K)``, with d the least
    common denominator of lambda, ``values(K)`` and ``characteristic()``.
    It keeps only the columns of its longest request, as tuples, and
    hands those out uncopied, so a shorter request reads a prefix.
    """

    def __init__(self, spec: AlgebraSpec, lam):
        self.spec = spec
        self.lam = as_weight(spec, lam)
        self._d, self._L = clear_denominators(self.lam)
        self._K, self._columns = 0, ((),) * len(spec.matrix_indices)

    def numerators(self, K: int):
        """(d, per diagonal position the ints n(0), n(1), ..., K at least)."""
        K = max(K, 0)
        if K > self._K:
            self._K = K
            self._columns = tuple(map(tuple, scaled_numerators(
                self.spec, self._L, self._d, K)))
        return self._d, self._columns

    def values(self, K: int):
        """Per diagonal position s(0), ..., s(K-1) as Fractions."""
        d, cols = self.numerators(K)
        return [[Fraction(n, d ** k) for k, n in zip(range(K), col)]
                for col in cols]

    def characteristic(self) -> UniPoly:
        """The characteristic identity chi(u), the monic polynomial whose
        roots are the N poles of scaled_poles over d.  Every R_i divides
        by a sub-multiset of them, so chi annihilates; it carries its
        roots."""
        return UniPoly.from_scaled_roots(
            self._d, scaled_poles(self.spec, self._L, self._d))
