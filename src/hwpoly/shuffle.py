"""Shuffle decompositions of shifted weights, and the fast minimal polynomial.

Write l = lambda + rho for the shifted highest weight.  For gl_n the
decomposition processes l left to right and appends each entry x to the
longest existing part ending in x + 1 (the earliest created part when
several longest candidates exist, though such candidates are always
term-identical), or opens a new singleton part.  Every part is then a
falling-by-one sequence, and the minimal polynomial of the generator
matrix on L(lambda) has roots exactly the last terms of the parts,
with multiplicity.

For gl this rule is a theorem, by the diagonal criterion on which the
certifier rests (verify: q(M) annihilates L(lambda) exactly when
pi(q(M)_ii)(lambda) = 0 for every i), which is proven there.  Proof,
in numbered steps.

1. The recursion module proves, in its steps 1-8, that the diagonal
   of the projected resolvent is R_i(u) = sum_k s_i(k) u^(-k-1) =
   1/(u - l_i) prod_(j > i) (u - l_j - 1)/(u - l_j), j counted from 1.
2. The u^-1 coefficient of u^m q(u) R_i(u) is pi((M^m q(M))_ii)(lambda).
   If q(M) annihilates, so does M^m q(M) for every m, and every q R_i
   is a polynomial; if every q R_i is one, its u^-1 coefficient
   pi(q(M)_ii)(lambda) vanishes, and q(M) annihilates by the
   criterion.  So the minimal polynomial is the monic lcm of the
   reduced denominators of the R_i.
3. Every factor in 1 is linear, so the reduced denominator of R_i has
   the root multiset D_i = {l_j : j >= i} - {l_j + 1 : j > i}
   (multiset difference), and the minimal polynomial's roots are the
   multiset max of the D_i.  The multiplicity of x in it is the max
   over i of #{j >= i : l_j = x} - #{j > i : l_j = x - 1}, and 0.
4. Fix x, and read l as brackets: each entry x opens one and each
   entry x - 1 closes one.  Score a suffix of l by its opens less its
   closes.  The term of 3 at i is the score of the suffix from i,
   unless l_i = x - 1, when it is that of the suffix after i, which
   scores one more than the suffix from i.  So the multiplicity is the
   max score over all suffixes, the empty one (score 0) included.
5. Match each close, left to right, to an open before it that is not
   yet matched, if one is left.  Whether a close finds one depends
   only on how many are left, so the number U of opens left unmatched
   does not depend on which is taken; take the latest.  Then every
   close after the first unmatched open p is matched to an open after
   p, and every open before p is matched, so the suffix from p scores
   U.  No suffix scores more: each matched open in it has its close
   in it too.  So the multiplicity of x is U.
6. The greedy rule is such a matching.  An entry x - 1 joins a part
   ending in x exactly when one is left, and that end x is then no
   longer an end; an entry x always becomes an end, whatever part it
   joins.  So the parts ending at x are the unmatched x's, U of them.

Corollary: the tau-invariant on regular integral orbits.  Let
l = w(l_dom) for a strictly decreasing integral l_dom, so
l_j = l_dom_(w^-1(j)), and let R(w) = {i : w(i) > w(i+1)}, the simple
roots that w makes negative, and S = {i : l_dom_i - l_dom_(i+1) = 1}.
All values are distinct, so by 3-5 the value x = l_dom_i is a root,
once, exactly when x - 1 is not among the l_j or comes before x in l.
x - 1 is one of them exactly when i is in S, as l_dom_(i+1) = x - 1,
and then it comes first exactly when i is in R(w).  So the roots are the l_dom_i with i not in S or in R(w), and
the minimal polynomials q_a, q_b of two weights of the orbit satisfy
q_a = q_b exactly when R_a & S = R_b & S, and q_a | q_b exactly when
R_a & S <= R_b & S.  For o and sp the same statement, with their
integral Weyl groups, is only observed.

For the orthogonal and symplectic families the object decomposed is
the doubled sequence l followed by l* = (-l_n, ..., -l_1), built
inductively from the innermost rank outwards so that the result is
mirror symmetric: each step either prepends l_t to the longest part
beginning with l_t - 1 while appending -l_t to that part's mirror, or
opens a new mirror pair {l_t}, {-l_t}.  Elements carry an origin tag
(plain for the l side, starred for the l* side) assigned at creation;
the tag matters because epsilon = 0 makes 0 and -0 indistinguishable
by value.  The decomposition is odd when some part consists entirely
of plain terms and ends in epsilon, equivalently when its mirror is
entirely starred and starts at -epsilon.  Plain terms are only
prepended and starred ones only appended, so a part is all plain
exactly when its last term is.  The root multiset is
n - 1 + epsilon - a over the first terms a of the parts, after
removing one copy of -epsilon in the odd case; removing -epsilon
(rather than any other value) is what reproduces the annihilation
certified by the projection criteria on every grid this package
tests, the trivial module being the simplest witness.  Unlike the gl
rule, the mirror rule and its clauses are fitted to the certified
engine, not proven, and they are known to be wrong at some singular
weights.

The odd orthogonal family needs two further adjustments because its
matrix has a middle row and column (index 0) that the doubled sequence
never represents.  An even decomposition gains one extra first term
-epsilon, the middle row's own contribution.  And whenever some
all-plain part ends in epsilon + 1/2, one copy of -(epsilon + 1/2) is
cancelled, the half-step analogue of the odd-parity removal.  Both
clauses were fixed against the certified engine over weight sweeps of
ranks one and two; without them the fast answer can miss the middle
root (lambda = (-2,) at rank one) or keep a root the simple module
does not support (lambda = (1/2,) at rank one, where the module is a
two-component tensor square constituent).

Both decompositions and the root formula run on ints scaled by the
least common denominator d of the sequence and epsilon, so a step of one
is a step of d.  A weight's d l is formed once, in ints, as
d lambda + d rho by one lcm, and a raw sequence is cleared once.  Each
step picks the earliest of the longest candidate parts in one pass.
minpoly_from_weight hands the int roots to the UniPoly as its root
form (d, ascending ints); Fractions are made only for its coefficients
and for a ShuffleDecomposition record.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat
from math import lcm
from typing import NamedTuple

from .algebra import AlgebraSpec, as_weight
from .polyrat import InvariantError, UniPoly, rat

PLAIN, STARRED = "plain", "starred"


class Part(NamedTuple):
    """One falling-by-one run of the decomposition."""

    terms: tuple
    origins: tuple
    mirror_id: int


class ShuffleDecomposition(NamedTuple):
    """Parts of a gl or mirror shuffle, with parity data for the latter."""

    kind: str                  # "gl" or "mirror"
    sequence: tuple            # the input l
    parts: tuple
    parity: "str | None"       # "even" / "odd" for mirror, None for gl
    epsilon: "Fraction | None"
    scaled_roots: tuple        # (d, ascending ints a): the roots are a / d

    def roots(self):
        """Root multiset of the minimal polynomial, sorted ascending."""
        d, roots = self.scaled_roots
        return [Fraction(a, d) for a in roots]


def _gl_parts(seq, d):
    """Greedy falling runs of (value, origin) of seq, in steps of d."""
    parts = []
    for x in seq:
        # the earliest of the longest parts ending in x + d, or a new one
        best, y = [], x + d
        for t in parts:
            if t[-1][0] == y and len(t) > len(best):
                best = t
        if not best:
            parts.append(best)
        best.append((x, PLAIN))
    return parts


def _mirror_parts(seq, d):
    """Mirror pairs of (value, origin) of seq and their mirror indices."""
    parts, mirror = [], []
    for x in reversed(seq):
        # the earliest of the longest parts starting at x - d
        best, size, y = None, 0, x - d
        for k, t in enumerate(parts):
            if t[0][0] == y and len(t) > size:
                best, size = k, len(t)
        if best is None:
            parts += [[(x, PLAIN)], [(-x, STARRED)]]
            mirror += [len(parts) - 1, len(parts) - 2]
        else:
            parts[best].insert(0, (x, PLAIN))
            parts[mirror[best]].append((-x, STARRED))
    return parts, mirror


def _mirror_roots(parts, n, d, e):
    """(odd, ascending int roots) of mirror parts scaled by d, e = d epsilon."""
    # a part is plain terms then starred ones
    plain_ends = [v for v, o in (t[-1] for t in parts) if o == PLAIN]
    odd = e in plain_ends
    first = [t[0][0] for t in parts]
    if odd:
        try:
            first.remove(-e)
        except ValueError:
            raise InvariantError(
                "odd decomposition must contain a part starting at -epsilon")
    if 2 * e == d:
        # the odd orthogonal matrix has a middle row the doubled
        # sequence does not see; the gate epsilon + 1/2 is d here
        if not odd:
            first.append(-e)
        if d in plain_ends:
            first.remove(-d)
    return odd, sorted((n - 1) * d + e - a for a in first)


def _cleared(values, eps, shift):
    """(d, the ints d (x + s) of values x and shift s, d eps or None for
    gl), d the least common denominator of values and eps, by one lcm;
    d must clear shift too."""
    d = lcm(*(x.denominator for x in values), (eps or 1).denominator)
    e = None if eps is None else eps.numerator * (d // eps.denominator)
    return d, [x.numerator * (d // x.denominator) + s.numerator * (
        d // s.denominator) for x, s in zip(values, shift)], e


def _scaled_shifted(spec: AlgebraSpec, lam):
    """(d, the ints d l of l = lambda + rho, d epsilon or None for gl).

    d l is formed as d lambda + d rho, d the least common denominator of
    lambda and epsilon, which clears rho too, as rho - epsilon is
    integral; it is also the least common denominator of l and epsilon.
    """
    return _cleared(as_weight(spec, lam), spec.epsilon, spec.rho)


def _shuffle(d, seq, e):
    """(parts, mirror, parity, roots) of ints seq scaled by d; e None selects gl."""
    if e is None:
        parts = _gl_parts(seq, d)
        return parts, None, None, sorted(t[-1][0] for t in parts)
    parts, mirror = _mirror_parts(seq, d)
    odd, roots = _mirror_roots(parts, len(seq), d, e)
    return parts, mirror, "odd" if odd else "even", roots


def _decomposition(d, seq, e) -> ShuffleDecomposition:
    """The record of the shuffle of ints seq scaled by d; e None selects gl."""
    parts, mirror, parity, roots = _shuffle(d, seq, e)
    return ShuffleDecomposition(
        "gl" if mirror is None else "mirror",
        tuple(Fraction(x, d) for x in seq),
        tuple(Part(tuple(Fraction(v, d) for v, _ in t),
                   tuple(o for _, o in t), k if mirror is None else mirror[k])
              for k, t in enumerate(parts)),
        parity, None if e is None else Fraction(e, d), (d, tuple(roots)))


def shuffle_gl(seq) -> ShuffleDecomposition:
    """Greedy decomposition of a gl shifted weight into falling runs."""
    return _decomposition(*_cleared(tuple(map(rat, seq)), None, repeat(0)))


def shuffle_mirror(seq, epsilon) -> ShuffleDecomposition:
    """Mirror symmetric decomposition of l and its negated reverse."""
    return _decomposition(
        *_cleared(tuple(map(rat, seq)), rat(epsilon), repeat(0)))


def decompose(spec: AlgebraSpec, lam) -> ShuffleDecomposition:
    """The decomposition appropriate to the spec's family."""
    return _decomposition(*_scaled_shifted(spec, lam))


def minpoly_from_weight(spec: AlgebraSpec, lam) -> UniPoly:
    """Minimal polynomial of the generator matrix on L(lambda).

    Read off the shuffle decomposition of the ints d l: a monic UniPoly
    that carries its root multiset and so splits over Q.
    certified_minimal_polynomial certifies it.
    """
    d, seq, e = _scaled_shifted(spec, lam)
    *_, roots = _shuffle(d, seq, e)
    return UniPoly.from_scaled_roots(d, roots)
