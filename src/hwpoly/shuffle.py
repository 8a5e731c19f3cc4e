"""Shuffle decompositions of shifted weights, and the fast minimal polynomial.

Write l = lambda + rho for the shifted highest weight.  For gl_n the
decomposition processes l left to right and appends each entry x to the
longest existing part ending in x + 1 (the earliest created part when
several longest candidates exist, though such candidates are always
term-identical), or opens a new singleton part.  Every part is then a
falling-by-one sequence, and the minimal polynomial of the generator
matrix on L(lambda) has roots exactly the last terms of the parts,
with multiplicity.

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
entirely starred and starts at -epsilon.  The root multiset is
n - 1 + epsilon - a over the first terms a of the parts, after
removing one copy of -epsilon in the odd case; removing -epsilon
(rather than any other value) is what reproduces the annihilation
certified by the projection criteria on every grid this package
tests, the trivial module being the simplest witness.

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
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .algebra import AlgebraSpec, Family, as_weight
from .polyrat import InvariantError, UniPoly, rat

PLAIN, STARRED = "plain", "starred"


class Part(NamedTuple):
    """One falling-by-one run of the decomposition."""

    terms: tuple
    origins: tuple
    mirror_id: int

    @property
    def first(self):
        return self.terms[0]

    @property
    def last(self):
        return self.terms[-1]

    def all_plain(self):
        return all(o == PLAIN for o in self.origins)


class ShuffleDecomposition(NamedTuple):
    """Parts of a gl or mirror shuffle, with parity data for the latter."""

    kind: str                  # "gl" or "mirror"
    sequence: tuple            # the input l
    parts: tuple
    parity: "str | None"       # "even" / "odd" for mirror, None for gl
    epsilon: "Fraction | None"

    def endpoint_multiset(self):
        if self.kind != "gl":
            raise ValueError("endpoints describe the gl decomposition")
        return sorted(p.last for p in self.parts)

    def roots(self):
        """Root multiset of the minimal polynomial, sorted ascending."""
        if self.kind == "gl":
            return self.endpoint_multiset()
        n = len(self.sequence)
        first = [p.first for p in self.parts]
        if self.parity == "odd":
            try:
                first.remove(-self.epsilon)
            except ValueError:
                raise InvariantError(
                    "odd decomposition must contain a part starting at -epsilon")
        if self.epsilon == Fraction(1, 2):
            # the odd orthogonal matrix has a middle row the doubled
            # sequence does not see
            if self.parity == "even":
                first.append(-self.epsilon)
            gate = self.epsilon + Fraction(1, 2)
            if any(p.all_plain() and p.last == gate for p in self.parts):
                first.remove(-gate)
        return sorted(n - 1 + self.epsilon - a for a in first)


def shuffle_gl(seq) -> ShuffleDecomposition:
    """Greedy decomposition of a gl shifted weight into falling runs."""
    seq = tuple(rat(x) for x in seq)
    parts = []
    for x in seq:
        best = None
        for k, t in enumerate(parts):
            if t[-1] == x + 1 and (best is None or len(t) > len(parts[best])):
                best = k
        if best is None:
            parts.append([x])
        else:
            parts[best].append(x)
    packed = tuple(
        Part(tuple(t), (PLAIN,) * len(t), k) for k, t in enumerate(parts))
    return ShuffleDecomposition("gl", seq, packed, None, None)


def shuffle_mirror(seq, epsilon) -> ShuffleDecomposition:
    """Mirror symmetric decomposition of l and its negated reverse."""
    seq = tuple(rat(x) for x in seq)
    epsilon = rat(epsilon)
    terms = []    # per part: list of (value, origin)
    mirror = []   # per part: index of the mirrored part
    for x in reversed(seq):
        best = None
        for k, t in enumerate(terms):
            if t[0][0] == x - 1 and (best is None or len(t) > len(terms[best])):
                best = k
        if best is None:
            terms.append([(x, PLAIN)])
            mirror.append(len(terms))
            terms.append([(-x, STARRED)])
            mirror.append(len(terms) - 2)
        else:
            terms[best].insert(0, (x, PLAIN))
            terms[mirror[best]].append((-x, STARRED))
    packed = tuple(
        Part(tuple(v for v, _ in t), tuple(o for _, o in t), mirror[k])
        for k, t in enumerate(terms))
    odd = any(p.all_plain() and p.last == epsilon for p in packed)
    return ShuffleDecomposition("mirror", seq, packed,
                                "odd" if odd else "even", epsilon)


def shifted_weight(spec: AlgebraSpec, lam):
    """l = lambda + rho as a tuple of fractions."""
    lam = as_weight(spec, lam)
    return tuple(a + b for a, b in zip(lam, spec.rho))


def decompose(spec: AlgebraSpec, lam) -> ShuffleDecomposition:
    """The decomposition appropriate to the spec's family."""
    l = shifted_weight(spec, lam)
    if spec.family is Family.GL:
        return shuffle_gl(l)
    return shuffle_mirror(l, spec.epsilon)


def minpoly_from_weight(spec: AlgebraSpec, lam) -> UniPoly:
    """Minimal polynomial of the generator matrix on L(lambda).

    Read off the shuffle decomposition: a monic UniPoly that carries
    its root multiset and so splits over Q.  The verify module's
    certified_minimal_polynomial derives it independently through the
    projection criteria.
    """
    return UniPoly.from_roots(decompose(spec, lam).roots())
