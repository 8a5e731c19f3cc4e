"""Helpers shared by several test modules.

The package itself reads no ad-weight: the weight bookkeeping below,
like the plain trace of a matrix, exists only to state properties of
the package's objects.  Nor does it expand a rational function at
infinity: series_of_rational is the reference expansion that the Pade
fits are checked against.  Nor does it multiply in U(g) to check the
corank one identities: symbolic_relative_formulas, with the Levi
projection and restriction under it, is the PBW check that keeps the
inner Cartan coordinates symbolic, against which the relcheck command
(verma.check_relative_formulas, one weight at a time) is checked.
"""

import os
import random
import subprocess
from fractions import Fraction
from math import comb, lcm
from pathlib import Path
from typing import NamedTuple

from hwpoly.algebra import CARTAN, NEG, AlgebraSpec, Family, as_weight, make_spec
from hwpoly.enveloping import UElement, _acc, project_hc
from hwpoly.genmatrix import MatrixU, generator_power
from hwpoly.linalg import ONE, ZERO, Echelon
from hwpoly.polyrat import InvariantError, UniPoly, monic_lcm
from hwpoly.verma import DiagnosticReport, VermaModule

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


def series_of_rational(num, den, order):
    """Expand the UniPoly quotient num/den at u = infinity to the given
    truncation order.

    Returns (poly, tail): the polynomial part and the coefficients of
    u^-1 .. u^-order.
    """
    if den.is_zero():
        raise ZeroDivisionError("zero denominator")
    q, r = divmod(num, den)
    d = den.degree
    lead = den.coeffs[-1]
    tail = []
    for m in range(1, order + 1):
        acc = r.coeff(d - m)
        for t in range(1, m):
            acc -= tail[t - 1] * den.coeff(d - m + t)
        tail.append(acc / lead)
    return q, tuple(tail)


def dense_matrices(rep):
    """The generators of an oracle module as dense matrices: one tuple
    of row tuples of Fractions per generator."""
    return tuple(tuple(tuple(Fraction(cols.get(b, {}).get(a, 0))
                             for b in range(rep.dim))
                       for a in range(rep.dim))
                 for cols in rep.columns)


def _row_apply(rows, v):
    """The sparse operator rows applied to the dense vector v."""
    live = {j for j, x in enumerate(v) if x}
    return [sum((c * v[j] for j, c in row if j in live), ZERO) for row in rows]


def _reference_krylov(op, start, maxdeg):
    ech = Echelon(len(start))
    w = list(start)
    for k in range(maxdeg + 1):
        augv = [ZERO] * (maxdeg + 1)
        augv[k] = ONE
        if ech.insert(w + augv) is None:
            res = ech.last_residual
            return UniPoly(res[len(start):len(start) + k + 1])
        w = _row_apply(op, w)
    raise InvariantError("no dependence within the space dimension")


def reference_oracle_minpoly(rep):
    """Minimal polynomial of the generator matrix on C^N tensor V, from
    every coordinate vector: the reference for oracle_minpoly.

    The operator is held as sparse Fraction rows and each vector as a
    dense list.  Each coordinate vector not yet killed by the lcm found so far (a
    Horner test) adds its Krylov annihilator, so no generating set is
    assumed.
    """
    spec = rep.spec
    mi = spec.matrix_indices
    dim = rep.dim
    mats = dense_matrices(rep)
    size = len(mi) * dim
    op = [[] for _ in range(size)]
    for ii, i in enumerate(mi):
        for jj, j in enumerate(mi):
            c, idx = spec.resolve(i, j)
            if idx is None or not c:
                continue
            for a, brow in enumerate(mats[idx]):
                op[ii * dim + a] += ((jj * dim + b, c * x)
                                     for b, x in enumerate(brow) if x)
    q = UniPoly.one()
    for s in range(size):
        # q(op) e_s by Horner's rule; e_s is the s-th coordinate vector
        w = [ZERO] * size
        w[s] = q.coeffs[-1]
        for c in reversed(q.coeffs[:-1]):
            w = _row_apply(op, w)
            w[s] += c
        if not any(w):
            continue
        start = [ZERO] * size
        start[s] = ONE
        q = monic_lcm([q, _reference_krylov(op, start, size)])
    return q

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


# -- the symbolic corank one check -----------------------------------------


def inner_spec(spec: AlgebraSpec) -> AlgebraSpec:
    """The rank n-1 algebra of the same family, for the corank-one step."""
    if spec.n == 0:
        raise ValueError("rank 0 has no inner algebra")
    return make_spec(spec.family, spec.n - 1)


def gen_level(spec, g):
    """The level of generator g in the nested chain: the largest |index|."""
    i, j = spec.gens[g]
    return max(abs(i), abs(j))


class ParabolicData(NamedTuple):
    """Levi generator set at one level of the chain.

    Level t keeps the whole rank t inner block together with every
    Cartan generator above it; level n is the full algebra.  Every other
    generator spans the nilradical, upper or lower by spec.triangular.
    """

    spec: AlgebraSpec
    levi: frozenset


def parabolic(spec: AlgebraSpec, level: int) -> ParabolicData:
    if not 1 <= level <= spec.n:
        raise ValueError(f"level must be in 1..{spec.n}")
    return ParabolicData(spec, frozenset(
        g for g in range(len(spec.gens))
        if gen_level(spec, g) <= level or spec.triangular[g] == CARTAN))


def project_relative(a: UElement, p: ParabolicData) -> UElement:
    """Projection onto U(levi) along lower U(g) + U(g) upper.

    The nested order makes it a monomial filter, by the argument the
    enveloping module gives for project_hc, read at the level of p.
    """
    if p.spec is not a.spec:
        raise ValueError("parabolic data belongs to a different spec")
    levi = p.levi
    kept = {m: c for m, c in a.terms.items() if all(g in levi for g in m)}
    return UElement(a.spec, kept)


def restrict_corank_one(a: UElement, outer_value) -> UElement:
    """Map a Levi element at level n-1 into the inner spec's U.

    The level n-1 Levi is U(inner algebra) tensor the polynomial ring
    on the outer Cartan generator; the outer generator is evaluated at
    outer_value (gl: H_n -> lambda_n, others: H_1 -> lambda_1).  Terms
    with factors outside that Levi are rejected.
    """
    spec = a.spec
    sub = inner_spec(spec)
    outer_value = Fraction(outer_value)
    outer_cartan = spec.cartan_by_coord[spec.n - 1] \
        if spec.family is Family.GL else spec.cartan_by_coord[0]
    level = spec.n - 1
    remap = {}
    for g, pair in enumerate(spec.gens):
        if gen_level(spec, g) <= level:
            remap[g] = sub.gen_index[pair]
    out = {}
    for m, c in a.terms.items():
        coeff = c
        mono = []
        for g in m:
            if g == outer_cartan:
                coeff *= outer_value
            elif g in remap:
                mono.append(remap[g])
            else:
                raise ValueError("element is not supported on the corank-one Levi")
        _acc(out, tuple(mono), coeff)
    return UElement(sub, out)


def trace_prime(m: MatrixU) -> UElement:
    """Trace omitting the outermost rows (labels n and -n).

    Only meaningful for the orthogonal and symplectic families, where
    the corank-one formulas refer to it; gl input is rejected.
    """
    spec = m.spec
    if spec.family is Family.GL:
        raise ValueError("trace_prime is defined for the o/sp families only")
    acc = {}
    for lbl, e in m.diagonal():
        if abs(lbl) != spec.n:
            for mono, c in e.terms.items():
                acc[mono] = acc.get(mono, 0) + c
    return UElement._element(spec, acc)


def _magnitude(a) -> Fraction:
    if isinstance(a, UElement):
        return sum((abs(c) for c in a.terms.values()), ZERO)
    return abs(a)


def _corank_projection(spec):
    if spec.n >= 2:
        par = parabolic(spec, spec.n - 1)
        return lambda a: project_relative(a, par)
    return project_hc


def acceptance_relative_weights():
    """(spec, lam): five seeded weights per algebra of the acceptance
    suite's corank one check, checked to order 6."""
    for family, n in (("gl", 2), ("gl", 3), ("sp", 1), ("o_odd", 1),
                      ("o_even", 2)):
        spec = make_spec(family, n)
        rng = random.Random(f"acceptance-rel-{spec.label}")
        for _ in range(5):
            yield spec, tuple(Fraction(rng.randint(-4, 4),
                                       rng.choice([1, 2, 3]))
                              for _ in range(n))


def gl_relative_weights():
    """(spec, lam): three seeded weights each of gl_2 and gl_3, in
    thirds, checked to order 4."""
    rng = random.Random(511)
    for n in (2, 3):
        spec = make_spec("gl", n)
        for _ in range(3):
            yield spec, tuple(Fraction(rng.randint(-8, 8), rng.choice([1, 3]))
                              for _ in range(n))


def bc_relative_weights():
    """(spec, lam): two seeded half-integral weights each of sp_2, sp_4,
    o_3 and o_4, checked to order 4."""
    rng = random.Random(512)
    for family, n in [("sp", 1), ("sp", 2), ("o_odd", 1), ("o_even", 2)]:
        spec = make_spec(family, n)
        for _ in range(2):
            yield spec, tuple(Fraction(rng.randint(-6, 6), 2)
                              for _ in range(n))


def symbolic_relative_formulas(spec: AlgebraSpec, lam, K: int = 6):
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
