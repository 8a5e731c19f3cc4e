"""Certification of minimal polynomials and structural diagnostics.

The annihilation criterion drives everything here: a polynomial q kills
the simple highest weight module exactly when every diagonal entry of
q(M) has vanishing Harish-Chandra image at the highest weight.  Off
diagonal entries carry nonzero adjoint weight, so their projections
vanish identically and only the diagonal needs evaluating.  A series
holds those images s_i(k) = pi((M^k)_ii)(lambda) at one weight as int
numerators n_i(k) = d^k s_i(k) over the weight's least common
denominator d.  It is the handle of the certifier:
annihilation_residuals(series, q), certify_minimal(series, q) and
projected_resolvent(series) all read its spec and weight, and share
its terms.  Two engines provide one:

* RecursionSeries runs the paper's corank-one recursion in ints (see
  the recursion module).  prove_recursion compares it with the Verma
  walk on a lattice simplex, which proves the two equal through a
  degree D at every weight of a rank, and PROVEN lists the (family,
  rank, D) that tier-1 proves.
* DiagonalSeries walks the columns of M^k through the Verma module
  M(lambda) one power at a time; the image of a weight zero element at
  lambda is the coefficient of v_lambda when it acts on v_lambda.  Each
  column stays inside fixed weight spaces, so its state does not grow
  with k.  Every Verma image and row is affine in lambda and held once
  per (spec, d) (see VermaTable), so all series of one algebra and
  scale share them.  It is the reference the proof compares against,
  and the engine past the table.

series_for picks the engine by the number of terms asked for: the
recursion where PROVEN covers them, the Verma walk otherwise.
certified_minimal_polynomial and the resolvent command go through it.

The certifier's hot path is integer end to end.  A residual is one int
dot product per diagonal entry of q's cleared coefficients with the
series numerators.  certify_minimal holds the candidate's roots as ints
a over their common denominator D: dropping a root drops one int from
that multiset, and each divisor it tries is that multiset multiplied
out in ints (scaled_product).  Fractions are made only for the nonzero
residuals reported, as witnesses or with CertificationError, and for
the certified polynomial; each equals its Fraction-arithmetic
definition exactly.

certify_minimal takes one pass over a monic candidate q: it evaluates
q once, and its single verdict, CertificationError, means q does not
annihilate.  Otherwise it drops, in place, every root whose removal
still annihilates, and returns the certificate of the minimal
polynomial, a divisor of q: the zero residuals and, per distinct root,
a witness entry where dropping that root breaks annihilation.
certified_minimal_polynomial hands it the shuffle candidate, on a
series of deg q + 1 terms, and only when that fails, the lcm of the
projected resolvent denominators, recovered by rational function
reconstruction from 2N + 2 terms.

The remaining functions compare engine series against closed forms:
the corank one restriction formulas for the resolvent, the Perelomov
Popov style trace generating function (reported, never asserted, since
it disagrees with the exact trace facts beyond first order), and a
divisibility poset over a batch of weights.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import comb
from operator import mul
from typing import NamedTuple

from .algebra import AlgebraSpec, Family, as_weight, inner_spec, parabolic
from .enveloping import (
    UElement,
    VermaModule,
    evaluate_at_weight,
    project_hc,
    project_relative,
    restrict_corank_one,
)
from .genmatrix import generator_power, projected_diagonal, trace_prime
from .linalg import ONE, ZERO
from .polyrat import (CertificationError, ScaledSeries, UniPoly,
                      clear_denominators, monic_lcm, pade_reconstruct,
                      scaled_product, series_of_rational)
from .recursion import RecursionSeries, proven_terms, scaled_numerators
from .shuffle import decompose, shifted_weight


class Certificate(NamedTuple):
    """Annihilation residuals (all zero) plus per-root minimality witnesses.

    witnesses holds one (root, entry label, residual) triple for each
    distinct root of the polynomial: dropping that root leaves the
    recorded diagonal entry with the recorded nonzero residual.  engine
    names the series the residuals were read from, "recursion" or
    "verma".
    """

    weight: tuple
    polynomial: UniPoly
    residuals: tuple
    witnesses: tuple
    engine: str


class DiagnosticReport(NamedTuple):
    """Residual magnitudes of one identity, checked order by order."""

    name: str
    residuals: tuple

    @property
    def exact(self) -> bool:
        return all(not r for r in self.residuals)


def _magnitude(a) -> Fraction:
    if isinstance(a, UElement):
        return sum((abs(c) for c in a.terms.values()), ZERO)
    return abs(a)


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
    with k and needs no truncation.  One instance serves every
    certifier call at one weight and holds the only state that depends
    on lambda, validated once.

    The columns are int vectors in the rescaled basis of the
    VermaModule: with d its scale, M_pq = c x_g = (c/d) x'_g for the
    int sign c, so the recurrence steps with c alone, the stored column
    is d^k u^(k), and each step stores the int n_i(k), the coefficient
    of v_lambda, with s_i(k) = n_i(k) / d^k.  A column is one dict
    keyed by the packed pair (nu << shift) | p of a Verma monomial nu
    and a position p, so v_lambda in u_i is the key i.  A step reads
    one row per key (nu, q), sum_p M_pq x nu over M's column q, from the
    VermaTable's ``rows``: it is affine in lambda, and the step weighs
    each term by the value of its slot at lambda.  The last term a
    request needs is read off the columns one power below it, through
    the one row sum_q M_iq u_q of each column, so no column is stepped
    to a power no request has reached; a later request steps on.

    The certifier reads exactly four things of a series: ``spec``,
    ``lam``, ``values(K)`` (the s_i(k) as Fractions) and
    ``numerators(K)`` (d with the ints n_i(k)); a certificate also
    records its ``engine``.  RecursionSeries provides the same, and
    series_for certifies on it wherever PROVEN covers the order.  This
    walk is the reference that prove_recursion compares the recursion
    against, and the engine past the table.
    """

    engine = "verma"

    def __init__(self, spec: AlgebraSpec, lam):
        self.spec = spec
        self.lam = as_weight(spec, lam)
        self._module = VermaModule(spec, self.lam)
        self._entries = _entry_table(spec)
        self._shift = len(self._entries).bit_length()
        # the columns hold u^(depth); n(0) .. n(order - 1) are known
        self._columns = [{p: 1} for p in range(len(self._entries))]
        self._numerators = [[1] for _ in self._entries]
        self._depth, self._order = 0, 1

    def numerators(self, K: int):
        """(d, per diagonal position the ints n(0), ..., n(K-1)).

        Positions are in matrix index order and s(k) = n(k) / d^k.
        """
        K = max(K, 0)
        while self._order < K:
            # only the last requested term, with the columns just below it
            if self._order == K - 1 == self._depth + 1:
                self._last_term()
            else:
                self._step()
        return self._module.scale, [n[:K] for n in self._numerators]

    def _step(self):
        """Columns u^(depth) -> u^(depth + 1), recording n(depth + 1) once."""
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
        self._depth += 1
        if self._depth == self._order:
            self._record(column.get(i, 0)
                         for i, column in enumerate(self._columns))

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

    def _last_term(self):
        """n(depth + 1) from the columns u^(depth), leaving them there."""
        image, slots = self._module.table.image, self._module.slots
        shift, entries = self._shift, self._entries
        mask = (1 << shift) - 1
        terms = []
        for i, column in enumerate(self._columns):
            total = 0
            for key, cv in column.items():
                entry = entries[key & mask].get(i)
                if entry is not None:
                    c, g = entry
                    # x'_g takes u_q into the weight space of v_lambda,
                    # which holds v_lambda alone: every key is a slot
                    for s, ct in image(g, key >> shift).items():
                        total += c * cv * ct * slots[s]
            terms.append(total)
        self._record(terms)

    def _record(self, terms):
        for col, n in zip(self._numerators, terms):
            col.append(n)
        self._order += 1


def annihilation_residuals(series: DiagonalSeries, q: UniPoly):
    """Evaluated projection of each diagonal entry of q(M) at series.lam."""
    return tuple(_residuals(series, *clear_denominators(q.coeffs)))


def _residuals(series: DiagonalSeries, den: int, coeffs):
    """Yield (label, residual) per diagonal entry of q, each on demand.

    q = sum (coeffs[k] / den) u^k for ints den and coeffs.  With
    s(k) = n(k) / d^k and m = deg q, the residual sum coeffs[k] s(k) / den
    is (sum coeffs[k] d^(m-k) n(k)) / (den d^m): one int dot product per
    entry and one Fraction, or ZERO when the sum is 0.
    """
    d, cols = series.numerators(len(coeffs))
    top = max(len(coeffs) - 1, 0)
    weights = [a * d ** (top - k) for k, a in enumerate(coeffs)]
    den *= d ** top
    for label, col in zip(series.spec.matrix_indices, cols):
        total = sum(map(mul, weights, col))
        yield label, Fraction(total, den) if total else ZERO


def _witness(series: DiagonalSeries, D: int, roots, a):
    """First (label, residual) left nonzero without one root a / D, or None.

    roots holds the scaled roots of q, with repetition, and the divisor
    q / (u - a/D) is the product over the others: with the ints Q_k of
    that product in v = D u, its coefficient k is Q_k D^k / D^(m-1).
    """
    rest = list(roots)
    rest.remove(a)
    coeffs = [c * D ** k for k, c in enumerate(scaled_product(rest))]
    return next(((lab, r) for lab, r
                 in _residuals(series, D ** len(rest), coeffs) if r), None)


def certify_minimal(series: DiagonalSeries, q: UniPoly) -> Certificate:
    """Certificate of the minimal polynomial of M on L(lambda), a divisor of q.

    lambda is series.lam.  Raises CertificationError when q fails to
    annihilate, and ValueError when q is not monic or does not split
    over the rationals.  The roots of q are found once (read back, when
    q was built by UniPoly.from_roots) and q is evaluated once.  The
    roots are then held as ints a over their common denominator D, and
    each distinct root, in ascending order, is dropped from that
    multiset for as long as the product of what is left still
    annihilates; once it does not, the first entry it leaves nonzero is
    that root's witness.  A root that is not dropped stays so in every
    divisor of q, so the roots left are exactly those of the minimal
    polynomial.  After a drop the polynomial is built from the root
    multiset left, and the witnesses taken before the last drop are
    taken again against it.  Either way the certified polynomial
    carries its roots.
    """
    if not q.is_monic():
        raise ValueError("candidate polynomial must be monic")
    roots = q.linear_factorization()
    residuals = annihilation_residuals(series, q)
    if any(r for _, r in residuals):
        raise CertificationError(
            f"{q} does not annihilate at weight {series.lam}", residuals)
    D, scaled = clear_denominators([root for root, _ in roots])
    multiset = [a for a, (_, m) in zip(scaled, roots) for _ in range(m)]
    found, stale = [], None
    for a, (root, m) in zip(scaled, roots):
        while m and (hit := _witness(series, D, multiset, a)) is None:
            multiset.remove(a)
            m, stale = m - 1, len(found)
        if m:
            found.append((a, root, hit))
    if stale is not None:
        q = UniPoly.from_scaled_roots(D, multiset)
        found[:stale] = [(a, root, _witness(series, D, multiset, a))
                         for a, root, _ in found[:stale]]
    witnesses = tuple((root, *hit) for _, root, hit in found)
    return Certificate(series.lam, q, residuals, witnesses, series.engine)


def resolvent_order(spec: AlgebraSpec) -> int:
    """The series order projected_resolvent fits, 2N + 2."""
    return 2 * spec.N + 2


def projected_resolvent(series: DiagonalSeries):
    """Diagonal of the evaluated projected resolvent, as reduced fractions.

    Returns (label, numerator, denominator) per diagonal entry, each
    recovered from the first resolvent_order(series.spec) series
    coefficients with denominator degree at most N; off diagonal entries
    vanish identically and are not listed.  Two strictly proper
    fractions whose denominators have degree at most N and that agree on
    u^-1 .. u^-2N are equal, so any order from 2N on gives the same
    fractions.
    """
    spec = series.spec
    cols = series.values(resolvent_order(spec))
    out = []
    for label, tail in zip(spec.matrix_indices, cols):
        num, den = pade_reconstruct(tail, spec.N)
        out.append((label, num, den))
    return tuple(out)


def series_for(spec: AlgebraSpec, lam, K: int):
    """The series that certifies K terms at lam.

    A RecursionSeries where PROVEN covers K terms of the spec, and a
    DiagonalSeries otherwise: for more terms, or past the table.
    """
    if K <= proven_terms(spec):
        return RecursionSeries(spec, lam)
    return DiagonalSeries(spec, lam)


def certified_minimal_polynomial(spec: AlgebraSpec, lam):
    """Minimal polynomial with its certificate.

    The shuffle candidate q is certified directly when it annihilates,
    with any droppable roots trimmed in the same pass, on the series
    series_for picks for deg q + 1 terms.  Otherwise the least common
    multiple of the projected resolvent denominators is certified
    instead, on the series it picks for resolvent_order terms.  Returns
    (polynomial, Certificate).
    """
    lam = as_weight(spec, lam)
    q = UniPoly.from_roots(decompose(spec, lam).roots())
    try:
        cert = certify_minimal(series_for(spec, lam, q.degree + 1), q)
    except CertificationError:
        series = series_for(spec, lam, resolvent_order(spec))
        entries = projected_resolvent(series)
        cert = certify_minimal(series, monic_lcm(den for _, _, den in entries))
    return cert.polynomial, cert


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
    points, mismatches = 0, []
    for L, d in _simplex(spec.n, D):
        points += 1
        mine = scaled_numerators(spec, L, d, D + 1)
        ref = DiagonalSeries(spec, [Fraction(x, d) for x in L]).values(D + 1)
        for label, col, want in zip(spec.matrix_indices, mine, ref):
            mismatches += [(L, d, label, k) for k, (n, s)
                           in enumerate(zip(col, want)) if n != s * d ** k]
    return points, mismatches


def _corank_projection(spec):
    if spec.n >= 2:
        par = parabolic(spec, spec.n - 1)
        return lambda a: project_relative(a, par)
    return project_hc


def check_relative_formulas(spec: AlgebraSpec, lam, K: int = 6):
    """Corank one restriction formulas for the resolvent, order by order.

    Compares the restricted projection of the resolvent series of M
    against closed forms in the resolvent of the inner algebra, keeping
    the inner Cartan coordinates symbolic; only the outermost
    coordinate of lam enters.  Returns one DiagnosticReport per
    identity: the removed corner, the inner block, and (orthogonal and
    symplectic only) the opposite corner.
    """
    lam = as_weight(spec, lam)
    if spec.n < 1:
        raise ValueError("rank must be at least 1")
    gl = spec.family is Family.GL
    proj = _corank_projection(spec)
    inner = inner_spec(spec)
    outer = lam[-1] if gl else lam[0]
    # 1/(u - outer) for gl, 1/(u + outer) otherwise
    geom = [outer ** t if gl else (-outer) ** t for t in range(K)]
    corner_label = spec.n

    def restricted(entry_i, entry_j, k):
        ent = generator_power(spec, k)[entry_i, entry_j]
        return restrict_corank_one(proj(ent), outer)

    reports = []
    corner = []
    for m in range(1, K + 1):
        lhs = restricted(corner_label, corner_label, m - 1)
        corner.append(_magnitude(lhs - geom[m - 1]))
    reports.append(DiagnosticReport("corner", tuple(corner)))

    inner_labels = inner.matrix_indices
    inner_pow = [generator_power(inner, s) for s in range(K)]
    block = []
    for m in range(1, K + 1):
        worst = ZERO
        for i in inner_labels:
            for j in inner_labels:
                # A_s: coefficient of u^-s in the inner resolvent at u - 1
                a = [None] + [
                    sum((Fraction(comb(s - 1, r)) * inner_pow[r][i, j]
                         for r in range(s)), UElement.zero(inner))
                    for s in range(1, m + 1)]
                rhs = a[m]
                for t in range(1, m):
                    rhs = rhs - geom[t - 1] * a[m - t]
                worst = max(worst, _magnitude(restricted(i, j, m - 1) - rhs))
        block.append(worst)
    reports.append(DiagnosticReport("inner-block", tuple(block)))

    if not gl:
        c = lam[0] + 2 * spec.rho[0]
        s_series = [restricted(-spec.n, -spec.n, k) for k in range(K)]
        tr_series = [
            restrict_corank_one(proj(trace_prime(generator_power(spec, k))),
                                outer)
            for k in range(K - 1)]
        opp = [_magnitude(s_series[0] - ONE)]
        for m in range(1, K):
            lhs = s_series[m] - c * s_series[m - 1]
            if spec.family is Family.SP:
                rhs = -2 * geom[m - 1] - tr_series[m - 1]
            else:
                rhs = -tr_series[m - 1]
            opp.append(_magnitude(lhs - rhs))
        reports.append(DiagnosticReport("opposite-corner", tuple(opp)))
    return reports


def pp_diagnostic(spec: AlgebraSpec, lam, K: int = 6) -> DiagnosticReport:
    """Residuals of the closed trace generating function against the engine.

    The closed form is the Perelomov Popov style expression in the
    shifted weight; it reproduces neither of the exact low order trace
    facts beyond u^-1 in general, which is why this is a report rather
    than a certification step.  residuals[0] is the magnitude of the
    closed form's polynomial part (the engine series has none) and
    residuals[m] compares the u^-m coefficients for m = 1..K.
    """
    lam = as_weight(spec, lam)
    if spec.family is Family.GL:
        raise ValueError("trace diagnostic applies to o and sp only")
    if spec.n < 1:
        raise ValueError("rank must be at least 1")
    engine = []
    for m in range(1, K + 1):
        total = ZERO
        for pos in range(len(spec.matrix_indices)):
            total += evaluate_at_weight(
                projected_diagonal(spec, m - 1)[pos], lam)
        engine.append(total)

    rho1 = spec.rho[0]
    shifted = shifted_weight(spec, lam)
    p2 = UniPoly.one()
    p1 = UniPoly.one()
    vsq = UniPoly.x() * UniPoly.x()
    vshift = UniPoly.x().shift(-1)
    for li in shifted:
        p2 = p2 * (vsq - UniPoly((li * li,)))
        p1 = p1 * (vshift * vshift - UniPoly((li * li,)))
    v = UniPoly.x()
    half = UniPoly((Fraction(-1, 2), ONE))
    if spec.family is Family.O_ODD:
        num = v * p2 - vshift * (p2 - p1)
    else:
        eps2 = UniPoly((-2 * spec.epsilon, ONE))
        num = eps2 * (p2 - p1)
    den = half * p2
    poly, closed = series_of_rational(num.shift(-rho1), den.shift(-rho1), K)
    # residual 0 is the polynomial part, which the engine series lacks
    head = sum((abs(c) for c in poly.coeffs), ZERO)
    return DiagnosticReport(
        "trace-generating-function",
        (head,) + tuple(e - f for e, f in zip(engine, closed)))


def divisibility_poset(spec: AlgebraSpec, weights):
    """Certified minimal polynomials of a weight batch, with divisibility.

    Duplicate weights collapse to their first occurrence.  Returns
    (entries, edges): entries is a tuple of (weight, polynomial) and
    edges contains (a, b) exactly when entries[a] divides entries[b],
    a != b.
    """
    entries = []
    seen = set()
    for w in weights:
        w = as_weight(spec, w)
        if w in seen:
            continue
        seen.add(w)
        entries.append((w, certified_minimal_polynomial(spec, w)[0]))
    edges = []
    for a, (_, qa) in enumerate(entries):
        for b, (_, qb) in enumerate(entries):
            if a != b and qa.divides(qb):
                edges.append((a, b))
    return tuple(entries), tuple(edges)
