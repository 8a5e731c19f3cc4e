"""Helpers shared by several test modules.

The package itself reads no ad-weight: the weight bookkeeping below,
like the plain trace of a matrix, exists only to state properties of
the package's objects.
"""

from fractions import Fraction

from hwpoly.algebra import Family
from hwpoly.enveloping import UElement, VermaModule


def _eps_hat(spec, i):
    v = [0] * spec.n
    if i > 0:
        v[spec.n - i] = -1
    elif i < 0:
        v[spec.n + i] = 1
    return v


def entry_weight(spec, i, j):
    """Ad-weight of the (i, j) matrix entry, as H-coordinates."""
    if spec.family is Family.GL:
        v = [0] * spec.n
        v[i - 1] += 1
        v[j - 1] -= 1
        return tuple(v)
    return tuple(x - y for x, y in zip(_eps_hat(spec, i), _eps_hat(spec, j)))


def generator_weights(spec):
    """The ad-weight of each generator, in the spec's global order."""
    return tuple(entry_weight(spec, i, j) for i, j in spec.gens)


def weight_components(a):
    """Split a UElement into ad-weight homogeneous parts: {weight: UElement}."""
    weights = generator_weights(a.spec)
    parts = {}
    for m, c in a.terms.items():
        wt = [0] * a.spec.n
        for g in m:
            wt = [x + y for x, y in zip(wt, weights[g])]
        parts.setdefault(tuple(wt), {})[m] = c
    return {w: UElement(a.spec, t) for w, t in sorted(parts.items())}


def weight(a):
    """Common ad-weight of all monomials of a; raises if inhomogeneous."""
    comps = weight_components(a)
    if len(comps) > 1:
        raise ValueError("element is not weight homogeneous")
    if not comps:
        return (0,) * a.spec.n
    return next(iter(comps))


def trace(m):
    """Sum of the diagonal entries of a MatrixU."""
    return sum((e for _, e in m.diagonal()), m.elem.zero(m.spec))


def hw_coefficient(spec, word, lam):
    """Coefficient of v_lambda in word . v_lambda, through the Verma action.

    The word's matrix index pairs act right to left; the action runs on
    the basis rescaled by the module's scale d, so the int coefficient
    it leaves is divided by d to the word's length.  v_lambda is the
    packed monomial 0.
    """
    verma = VermaModule(spec, lam)
    state = {0: 1}
    for i, j in reversed(word):
        c, idx = spec.resolve(i, j)
        if idx is None:
            return Fraction(0)
        state = verma.apply(idx, state, c)
    return Fraction(state.get(0, 0), verma.scale ** len(word))
