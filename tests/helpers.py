"""Helpers shared by several test modules.

The package itself reads no ad-weight: the weight bookkeeping below,
like the plain trace of a matrix, exists only to state properties of
the package's objects.
"""

import os
import subprocess
from fractions import Fraction
from math import lcm
from pathlib import Path

from hwpoly.algebra import CARTAN, NEG, Family, as_weight
from hwpoly.enveloping import UElement
from hwpoly.verma import VermaModule

SRC = Path(__file__).resolve().parent.parent / "src"

# whole weight boxes (rank, lo, hi, step), swept in every family by the
# fast and the certified engine
BOXES = [(2, -3, 3, Fraction(1, 2)), (2, -2, 2, Fraction(1, 3)),
         (3, -2, 2, Fraction(1))]


def run_into_closed_pipe(argv, unbuffered):
    """Run argv with stdout a pipe whose reader is already gone.

    Returns (exit status, stderr).  unbuffered sets PYTHONUNBUFFERED, so
    the child meets the closed pipe at its first write rather than at
    its flush.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run(argv, stdout=write, stderr=subprocess.PIPE,
                              env=env, text=True, timeout=120)
    finally:
        os.close(write)
    return done.returncode, done.stderr


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


def verma_act(module, g, nu):
    """x'_g applied to nu v_lambda in a VermaModule, for a packed
    lowering monomial nu."""
    return verma_apply(module, g, {nu: 1})


def verma_apply(module, g, vec, c=1, out=None):
    """Add c times x'_g applied to vec into out (a new dict if None).

    The module's table holds the image of each monomial, affine in the
    weight; each key is weighed by its slot's value at the module's
    weight.  c and the coefficients of vec are ints; a zero sum is
    dropped.
    """
    out = {} if out is None else out
    sb, slots = module.table.slot_bits, module.slots
    mask = (1 << sb) - 1
    for nu, cv in vec.items():
        for key, ct in module.table.image(g, nu).items():
            tau = key >> sb
            v = out.get(tau, 0) + c * cv * ct * slots[key & mask]
            if v:
                out[tau] = v
            else:
                out.pop(tau, None)
    return out


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
        state = verma_apply(verma, idx, state, c)
    return Fraction(state.get(0, 0), verma.scale ** len(word))


class ReferenceVerma:
    """The Verma action at one weight, evaluated in ints and shared with
    nothing: a reference for verma_act.

    It keys monomials as the package does (one 16-bit exponent field per
    lowering generator in global order, the smallest lowest) and acts by
    the scaled basis x' = d x, but reads a monomial's weight off the
    bracket table and memoises only on itself.
    """

    def __init__(self, spec, lam):
        self.spec = spec
        lam = as_weight(spec, lam)
        self.d = lcm(*(x.denominator for x in lam))
        self.cartan = {g: int(self.d * lam[k])
                       for g, k in spec.cartan_coord.items()}
        lowering = [g for g, kind in enumerate(spec.triangular)
                    if kind == NEG]
        self.unit = {g: 1 << (16 * f) for f, g in enumerate(lowering)}
        self.memo = {}

    def _weight(self, nu, h):
        """wt(nu)(h), the sum of [h, b] = w b over the factors b of nu."""
        return sum(dict(self.spec.bracket(h, b)).get(b, 0)
                   * (nu // u % 2 ** 16) for b, u in self.unit.items())

    def act(self, g, nu):
        if (g, nu) in self.memo:
            return self.memo[g, nu]
        kind = self.spec.triangular[g]
        if kind == CARTAN:
            value = self.cartan[g] + self.d * self._weight(nu, g)
            out = {nu: value} if value else {}
        elif not nu:
            out = {self.unit[g]: 1} if kind == NEG else {}
        else:
            b, unit = next((b, u) for b, u in self.unit.items()
                           if nu // u % 2 ** 16)
            if kind == NEG and g <= b:
                out = {nu + self.unit[g]: 1}
            else:
                rest = nu - unit
                out = self.apply(b, self.act(g, rest))
                for h, c in self.spec.bracket(g, b):
                    out = self.apply(h, {rest: self.d * c}, out)
        self.memo[g, nu] = out
        return out

    def apply(self, g, vec, out=()):
        out = dict(out)
        for nu, c in vec.items():
            for tau, ct in self.act(g, nu).items():
                out[tau] = out.get(tau, 0) + c * ct
        return {tau: c for tau, c in out.items() if c}
