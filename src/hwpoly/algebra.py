"""Presentations of the classical matrix Lie algebras.

A spec fixes a family (gl, even or odd orthogonal, symplectic) and a
rank n, and with them the combinatorial skeleton the rest of the
package works against: the canonical generator list in its global PBW
order, structure constants, triangular classes and the Cartan
coordinates.  No table of ad-weights is kept here; the weight w of a
generator x is the one its Cartan brackets give, [H_k, x] = w_k x, and
the Verma module reads it off the index pair of x.

Index conventions.  gl_n rows and columns run 1..n.  The orthogonal
and symplectic algebras of rank n act on C^N with rows indexed by
-n..-1,1..n, plus 0 when N = 2n+1, and are spanned by

    F[i,j] = E[i,j] - theta(i,j) E[-j,-i],

where theta is identically 1 in the orthogonal case and sgn(i) sgn(j)
in the symplectic one.  These satisfy F[-j,-i] = -theta(i,j) F[i,j],
so exactly one member of each pair is kept as a canonical generator
(the lexicographically smaller index pair; orthogonal F[i,-i] vanishes
outright and resolves to zero).  The Cartan basis is
H_m = F[m-n-1, m-n-1] for m = 1..n, so H_1 sits in the outermost
block; for gl_n it is H_m = E[m,m].

The global generator order nests the block chain.  Level m contributes

    lowering(m) < whole block (m-1) < Cartan(m) < raising(m),

which is what lets the Harish-Chandra projection act as a plain
monomial filter; the enveloping module explains why.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from functools import lru_cache
from itertools import chain

from .polyrat import rat

NEG, CARTAN, POS = "neg", "cartan", "pos"


class Family(enum.Enum):
    GL = "gl"
    O_EVEN = "o_even"
    O_ODD = "o_odd"
    SP = "sp"

    @classmethod
    def parse(cls, value) -> "Family":
        if isinstance(value, Family):
            return value
        try:
            return cls(str(value))
        except ValueError:
            raise ValueError(f"unknown family {value!r}") from None


# epsilon of the orthogonal and symplectic families
EPSILON = {Family.O_EVEN: Fraction(0), Family.O_ODD: Fraction(1, 2),
           Family.SP: Fraction(1)}


class AlgebraSpec:
    """Immutable description of one classical Lie algebra.

    Rank 0 is permitted; it describes the degenerate inner algebra that
    the corank-one recursion bottoms out in (for the odd orthogonal
    family it still acts on a one dimensional space).
    """

    def __init__(self, family, n: int):
        family = Family.parse(family)
        if n < 0:
            raise ValueError("rank must be nonnegative")
        self.family = family
        self.n = n
        self.N = matrix_size(family, n)
        if family is Family.GL:
            self.epsilon = None
            self.matrix_indices = tuple(range(1, n + 1))
            self.rho = tuple(Fraction(n - k) for k in range(1, n + 1))
        else:
            odd = family is Family.O_ODD
            self.epsilon = EPSILON[family]
            self.matrix_indices = tuple(i for i in range(-n, n + 1) if i != 0 or odd)
            self.rho = tuple(self.epsilon + n - k for k in range(1, n + 1))
        self._index_set = frozenset(self.matrix_indices)
        gens = self._build_order()
        self.gens = tuple(gens)
        self.gen_index = {p: k for k, p in enumerate(gens)}
        self.triangular = tuple(
            CARTAN if i == j else (POS if i < j else NEG) for i, j in gens)
        if family is Family.GL:
            self.cartan_by_coord = tuple(self.gen_index[(m, m)] for m in range(1, n + 1))
        else:
            self.cartan_by_coord = tuple(
                self.gen_index[(m - n - 1, m - n - 1)] for m in range(1, n + 1))
        self.cartan_coord = {g: k for k, g in enumerate(self.cartan_by_coord)}
        self._brackets = {}
        # caches used by the enveloping engine; deterministic contents,
        # shared safely because make_spec memoises instances
        self._cache_gtm = {}
        self._cache_mm = {}
        self._cache_misc = {}

    # -- construction helpers ------------------------------------------

    def _build_order(self):
        # level m wraps the order of level m - 1 in its lowering
        # generators, its Cartan generator and its raising generators:
        # lowering blocks from level n down, then the others from 1 up
        odd = self.family is Family.O_ODD
        lowered, raised = [], []
        for m in range(1, self.n + 1):
            if self.family is Family.GL:
                lowering = [(m, j) for j in range(1, m)]
                raising = [(i, m) for i in range(1, m)]
                cartan = (m, m)
            else:
                rng = [i for i in range(-m + 1, m + 1) if i != 0 or odd]
                lowering = [(i, -m) for i in rng
                            if not self._is_zero_pair(i, -m)]
                raising = [(-m, j) for j in rng
                           if not self._is_zero_pair(-m, j)]
                cartan = (-m, -m)
            lowered.append(lowering)
            raised.append([cartan] + raising)
        return list(chain(*reversed(lowered), *raised))

    def _is_zero_pair(self, i, j):
        return self.family in (Family.O_EVEN, Family.O_ODD) and j == -i

    def theta(self, i, j) -> int:
        if self.family is Family.SP:
            return (1 if i > 0 else -1) * (1 if j > 0 else -1)
        return 1

    def resolve(self, i, j):
        """Express E-span element F[i,j] (or gl E[i,j]) in canonical terms.

        Returns (coefficient, generator index); the coefficient is the
        int 1 or -1, and the index is None, with coefficient 0, when
        the element is zero (orthogonal F[i,-i]).  Raises on indices
        outside the matrix index set.
        """
        if i not in self._index_set or j not in self._index_set:
            raise ValueError(f"indices ({i}, {j}) outside the algebra")
        if self.family is Family.GL:
            return 1, self.gen_index[(i, j)]
        if self._is_zero_pair(i, j):
            return 0, None
        idx = self.gen_index.get((i, j))
        if idx is not None:
            return 1, idx
        return -self.theta(i, j), self.gen_index[(-j, -i)]

    def _compute_bracket(self, a, b):
        i, j = self.gens[a]
        k, l = self.gens[b]
        raw = []
        if j == k:
            raw.append((1, (i, l)))
        if l == i:
            raw.append((-1, (k, j)))
        if self.family is not Family.GL:
            if i == -k:
                raw.append((-self.theta(k, -j), (-j, l)))
            if -l == j:
                raw.append((self.theta(i, -l), (k, -i)))
        acc = {}
        for coeff, pair in raw:
            s, idx = self.resolve(*pair)
            if idx is not None:
                acc[idx] = acc.get(idx, 0) + coeff * s
        return tuple(sorted((g, c) for g, c in acc.items() if c))

    # -- queries -------------------------------------------------------

    def bracket(self, a: int, b: int):
        """Structure constants of [gen a, gen b] as ((index, coeff), ...).

        The coefficients are ints (each is one of +-1, +-2, +-4).  Each
        pair is computed on its first request and memoised on the spec.
        """
        key = (a, b)
        out = self._brackets.get(key)
        if out is None:
            out = self._brackets[key] = self._compute_bracket(a, b)
        return out

    @property
    def label(self) -> str:
        prefix = {Family.GL: "gl", Family.SP: "sp",
                  Family.O_EVEN: "o", Family.O_ODD: "o"}[self.family]
        return f"{prefix}_{self.N}"

    def __repr__(self):
        return f"AlgebraSpec({self.family.value!r}, {self.n})"


def matrix_size(family, n: int) -> int:
    """N, the matrix size of the rank n algebra of the family."""
    family = Family.parse(family)
    return n if family is Family.GL else 2 * n + (family is Family.O_ODD)


@lru_cache(maxsize=None)
def _make_spec_cached(family: Family, n: int) -> AlgebraSpec:
    return AlgebraSpec(family, n)


def make_spec(family, n: int) -> AlgebraSpec:
    """Shared immutable spec; memoised so engine caches are reused."""
    return _make_spec_cached(Family.parse(family), n)


def as_weight(spec: AlgebraSpec, coords):
    """Validate and coerce a weight to a tuple of n fractions."""
    out = tuple(rat(c) for c in coords)
    if len(out) != spec.n:
        raise ValueError(f"weight must have {spec.n} coordinates, got {len(out)}")
    return out
