"""Certification pipeline, resolvent recovery, and structural diagnostics."""

import hashlib
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (BOXES, ReferenceVerma, acceptance_relative_weights,
                     bc_relative_weights, gl_relative_weights,
                     symbolic_relative_formulas, verma_act)
from hwpoly import verify, verma
from hwpoly.algebra import AlgebraSpec, make_spec
from hwpoly.enveloping import evaluate_at_weight
from hwpoly.genmatrix import projected_diagonal
from hwpoly.oracle import build_catalog_rep, oracle_minpoly
from hwpoly.polyrat import UniPoly, monic_lcm, pade_reconstruct
from hwpoly.recursion import RecursionSeries
from hwpoly.shuffle import minpoly_from_weight
from hwpoly.verify import (
    Certificate,
    CertificationError,
    annihilation_residuals,
    certified_minimal_polynomial,
    certify_minimal,
    divisibility_poset,
    projected_resolvent,
)
from hwpoly.verma import DiagonalSeries, VermaModule


F = Fraction


class TestDiagonalSeries:
    # integer, half-integer and negative weights per rank
    WEIGHTS = {
        1: [(3,), (F(1, 2),), (-2,)],
        2: [(3, -1), (F(1, 2), F(-3, 2)), (-2, F(-5, 2))],
        3: [(2, 0, -1), (F(5, 2), F(1, 2), F(-1, 2)), (-1, -3, F(-3, 2))],
    }

    @pytest.mark.parametrize("family,n,orders", [
        ("gl", 2, None), ("gl", 3, None), ("sp", 1, None),
        ("o_odd", 1, None), ("o_even", 2, None), ("o_odd", 2, None)])
    def test_matches_pbw_projected_diagonal(self, family, n, orders):
        spec = make_spec(family, n)
        K = orders or 2 * spec.N + 2
        for lam in self.WEIGHTS[n]:
            cols = DiagonalSeries(spec, lam).values(K)
            for pos, col in enumerate(cols):
                assert col == [
                    evaluate_at_weight(projected_diagonal(spec, k)[pos], lam)
                    for k in range(K)], (spec.label, lam, pos)

    # denominators 2 and 3 together (scale 6), and negative weights
    @pytest.mark.parametrize("family,n,lam,scale", [
        ("gl", 3, (F(1, 2), F(-1, 3), 0), 6),
        ("gl", 3, (F(-5, 6), -2, F(-4, 3)), 6),
        ("sp", 2, (F(1, 3), F(-1, 2)), 6),
        ("sp", 2, (F(-7, 6), F(-2, 3)), 6),
        ("o_even", 2, (F(-1, 3), F(5, 2)), 6),
        ("o_odd", 1, (F(-4, 3),), 3)])
    def test_matches_pbw_at_mixed_denominators(self, family, n, lam, scale):
        spec = make_spec(family, n)
        K = 2 * spec.N + 2
        series = DiagonalSeries(spec, lam)
        assert series._module.scale == scale
        cols = series.values(K)
        for pos, col in enumerate(cols):
            assert col == [
                evaluate_at_weight(projected_diagonal(spec, k)[pos], lam)
                for k in range(K)], (spec.label, lam, pos)

    @pytest.mark.parametrize("family,n,lam", [
        ("gl", 3, (F(1, 2), F(-1, 3), 0)),
        ("sp", 2, (F(1, 3), F(-1, 2))),
        ("o_odd", 2, (F(-5, 2), F(2, 3)))])
    def test_state_holds_ints_only(self, family, n, lam):
        # the recurrence runs on the basis scaled by 6, so neither the
        # shared Verma table nor a column may hold a Fraction
        series = DiagonalSeries(make_spec(family, n), lam)
        series.values(8)
        module = series._module
        assert module.scale == 6
        assert all(type(v) is int for v in module.slots)
        # one table per (spec, scale) holds every image, Cartan ones
        # included, with the spec's memo of monomial weights
        table = module.table
        assert table is series.spec._cache_misc["verma", 6]
        assert all(table.images[h] for h in series.spec.cartan_by_coord)
        for memo in table.images:
            for nu, image in memo.items():
                assert type(nu) is int
                assert all(type(key) is int and type(c) is int
                           for key, c in image.items())
        assert len(table._weights) > n + 1
        for nu, wt in table._weights.items():
            assert type(nu) is int
            assert len(wt) == n and all(type(x) is int for x in wt)
        # columns and rows key each int by the packed pair (monomial,
        # position); a row holds flat (key, int) pairs of its constant
        # terms and flat (key, slot, int) triples of the others
        for column in series._columns:
            assert all(type(key) is int and type(c) is int and c
                       for key, c in column.items())
        assert table.rows
        for key, (pairs, triples) in table.rows.items():
            assert type(key) is int
            assert len(pairs) % 2 == 0 and len(triples) % 3 == 0
            assert all(type(x) is int for x in pairs + triples)
        # the table holds the images and rows: neither the series nor its
        # module holds any of its own
        assert {name for name, v in vars(series).items()
                if isinstance(v, (dict, list))} == {"_columns", "_numerators"}
        assert not [name for name, v in vars(module).items()
                    if isinstance(v, (dict, list))]
        d, numerators = series.numerators(8)
        assert d == 6
        assert all(len(col) == 8 and all(type(n) is int for n in col)
                   for col in numerators)

    @pytest.mark.parametrize("family", ["gl", "sp", "o_even", "o_odd"])
    def test_shared_verma_table_is_order_and_scale_free(self, family):
        # one spec certifies a shuffled batch of weights of scales 1, 2, 3
        # and 6, sharing one Verma table per scale; every answer must be
        # the one a fresh spec gives, and every table entry must be free
        # of the weight: evaluated at two weights of its scale, it is the
        # image the per-weight reference computes
        rng = random.Random(f"shared-table-{family}")

        def weight(n, d):
            while True:
                lam = tuple(F(rng.randint(-3 * d, 3 * d), d)
                            for _ in range(n))
                if VermaModule(AlgebraSpec(family, n), lam).scale == d:
                    return lam

        for n in (1, 2, 3):
            spec = AlgebraSpec(family, n)
            K = 2 * spec.N + 2
            batch = [weight(n, d) for d in (1, 2, 3, 6) for _ in range(3)]
            rng.shuffle(batch)
            for lam in batch:
                fresh = AlgebraSpec(family, n)
                assert DiagonalSeries(spec, lam).numerators(K) \
                    == DiagonalSeries(fresh, lam).numerators(K)
                assert certified_minimal_polynomial(spec, lam)[1] \
                    == certified_minimal_polynomial(fresh, lam)[1]
            for d in (1, 2, 3, 6):
                table = spec._cache_misc["verma", d]
                assert any(table.images) and table.rows
                for lam in (weight(n, d), weight(n, d)):
                    module = VermaModule(spec, lam)
                    assert module.table is table
                    reference = ReferenceVerma(spec, lam)
                    for g, memo in enumerate(table.images):
                        # verma_act evaluates the stored entry at lam
                        for nu in memo:
                            assert verma_act(module, g, nu) \
                                == reference.act(g, nu)

    def test_grows_on_demand(self):
        series = DiagonalSeries(make_spec("sp", 1), (2,))
        short = series.values(3)
        assert series.values(6)[0][:3] == short[0]
        assert [len(c) for c in series.values(2)] == [2, 2]

    @pytest.mark.parametrize("family,n,lam", [
        ("gl", 3, (F(1, 2), F(-1, 3), 0)), ("sp", 2, (F(1, 3), F(-1, 2))),
        ("o_odd", 2, (F(-5, 2), F(2, 3))), ("o_even", 2, (1, F(-1, 2)))])
    def test_one_request_at_a_time_matches_one_long_request(self, family, n,
                                                            lam):
        # each longer request steps the columns on from the power the
        # last one left them at; a shorter one reads a prefix
        spec = make_spec(family, n)
        K = 2 * spec.N + 2
        grown = DiagonalSeries(spec, lam)
        for k in range(K + 1):
            grown.numerators(k)
        for k in (K - 3, K - 1, K - 3):
            grown.numerators(k)
        assert grown.numerators(K) == DiagonalSeries(spec, lam).numerators(K)
        assert grown.values(K) == DiagonalSeries(spec, lam).values(K)

    def test_specs_share_one_entry_table(self):
        spec = make_spec("sp", 2)
        weights = [(F(1, 3), F(-1, 2)), (2, 1)]
        shared = [DiagonalSeries(spec, lam) for lam in weights]
        assert shared[0]._entries is shared[1]._entries
        for lam, series in zip(weights, shared):
            fresh = DiagonalSeries(AlgebraSpec("sp", 2), lam)
            assert fresh._entries is not series._entries
            assert series.values(8) == fresh.values(8)


def _annihilates(spec, q, lam):
    return not any(r for _, r in
                   annihilation_residuals(DiagonalSeries(spec, lam), q))


class TestAnnihilation:
    def test_trivial_module(self):
        spec = make_spec("gl", 2)
        assert _annihilates(spec, UniPoly.x(), (0, 0))
        res = annihilation_residuals(DiagonalSeries(spec, (0, 0)),
                                     UniPoly.one())
        assert res == ((1, 1), (2, 1))

    def test_defining_weight(self):
        spec = make_spec("gl", 2)
        assert _annihilates(spec, UniPoly.from_roots([0, 2]), (1, 0))
        assert not _annihilates(spec, UniPoly.from_roots([0, 1]), (1, 0))

    def test_coefficients_alone_are_not_searched(self):
        # (u-1)...(u-30) from its coefficients: constant term 30!, whose
        # divisor search would not finish; the residuals read only the
        # coefficients
        spec = make_spec("gl", 1)
        q = UniPoly(UniPoly.from_roots(range(1, 31)).coeffs)
        res = annihilation_residuals(DiagonalSeries(spec, (3,)), q)
        assert res == ((1, F(0)),)
        assert q._scaled is None


# every family, with weights of scale 1, 2, 3 and 6
_RESIDUAL_SPECS = [("gl", 2), ("gl", 3), ("sp", 1), ("sp", 2),
                   ("o_odd", 1), ("o_odd", 2), ("o_even", 2)]
_ROOT = st.builds(F, st.integers(-6, 6), st.sampled_from([1, 2, 3, 6]))


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_residuals_match_the_fraction_reference(data):
    family, n = data.draw(st.sampled_from(_RESIDUAL_SPECS))
    spec = make_spec(family, n)
    scale = data.draw(st.sampled_from([1, 2, 3, 6]))
    # the first coordinate has denominator exactly scale
    lam = (F(1 + scale * data.draw(st.integers(-3, 3)), scale),) + tuple(
        F(data.draw(st.integers(-9, 9)), scale) for _ in range(n - 1))
    series = DiagonalSeries(spec, lam)
    assert series._module.scale == scale
    roots = data.draw(st.lists(_ROOT, max_size=5))
    annihilating = data.draw(st.booleans())
    if annihilating:
        q, _ = certified_minimal_polynomial(spec, lam)
        roots += [r for r, m in q.rational_roots() for _ in range(m)]
    q = UniPoly.from_roots(roots) * data.draw(
        st.sampled_from([1, F(-2, 3), F(5, 6)]))
    cols = series.values(len(q.coeffs))
    reference = tuple(
        (label, sum((c * s for c, s in zip(q.coeffs, col)), F(0)))
        for label, col in zip(spec.matrix_indices, cols))
    got = annihilation_residuals(series, q)
    assert got == reference
    assert all(type(r) is F for _, r in got)
    if annihilating:
        assert not any(r for _, r in got)


def _fraction_residuals(spec, cols, p):
    return tuple((label, sum((c * s for c, s in zip(p.coeffs, col)), F(0)))
                 for label, col in zip(spec.matrix_indices, cols))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_certify_minimal_matches_the_fraction_reference(data):
    # candidates with roots of denominators 1, 2, 3 and 6, repeated roots
    # of the answer and roots outside it; the reference divides in
    # Fractions and reads the minimal polynomial off every divisor
    family, n = data.draw(st.sampled_from(_RESIDUAL_SPECS))
    spec = make_spec(family, n)
    scale = data.draw(st.sampled_from([1, 2, 3, 6]))
    # the first coordinate has denominator exactly scale
    lam = (F(1 + scale * data.draw(st.integers(-3, 3)), scale),) + tuple(
        F(data.draw(st.integers(-9, 9)), scale) for _ in range(n - 1))
    series = DiagonalSeries(spec, lam)
    answer, _ = certified_minimal_polynomial(spec, lam)
    roots = [r for r, m in answer.rational_roots() for _ in range(m)]
    extra = data.draw(st.lists(st.sampled_from(roots), max_size=2))
    if data.draw(st.integers(0, 3)) == 0:
        # one copy short: annihilates only if extra held that root
        roots.remove(data.draw(st.sampled_from(roots)))
    roots += extra + data.draw(st.lists(_ROOT, max_size=2))
    q = UniPoly.from_roots(roots)
    cols = series.values(len(q.coeffs))
    reference = _fraction_residuals(spec, cols, q)
    if any(r for _, r in reference):
        with pytest.raises(CertificationError) as exc:
            certify_minimal(series, q)
        assert exc.value.residuals == reference
        return
    cert = certify_minimal(series, q)
    assert cert.residuals == reference
    factors = [(UniPoly((-r, 1)), m) for r, m in q.rational_roots()]
    divisors = []
    for drops in product(*(range(m + 1) for _, m in factors)):
        p = q
        for (factor, _), k in zip(factors, drops):
            p = p // factor ** k
        if not any(r for _, r in _fraction_residuals(spec, cols, p)):
            divisors.append(p)
    least = min(divisors, key=lambda p: p.degree)
    assert all(least.divides(p) for p in divisors)
    assert cert.polynomial == least
    witnesses = []
    for r, _ in least.rational_roots():
        short = least // UniPoly((-r, 1))
        witnesses.append((r, *next(
            hit for hit in _fraction_residuals(spec, cols, short) if hit[1])))
    assert cert.witnesses == tuple(witnesses)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_coefficients_alone_certify_to_the_same_certificate(data):
    # UniPoly(q.coeffs) carries no roots, so certify_minimal finds them
    # by the divisor search; the certificate is the one q's carried
    # roots give, directly and after a trim
    family, n = data.draw(st.sampled_from(_RESIDUAL_SPECS))
    spec = make_spec(family, n)
    lam = tuple(F(data.draw(st.integers(-9, 9)), data.draw(
        st.sampled_from([1, 2, 3, 6]))) for _ in range(n))
    q = minpoly_from_weight(spec, lam)
    extra = data.draw(st.lists(_ROOT, max_size=2))
    q = UniPoly.from_roots(
        [r for r, m in q.rational_roots() for _ in range(m)] + extra)
    series = RecursionSeries(spec, lam)
    alone = UniPoly(q.coeffs)
    assert alone._scaled is None
    try:
        cert = certify_minimal(series, q)
    except CertificationError as exc:
        with pytest.raises(CertificationError) as again:
            certify_minimal(series, alone)
        assert again.value.residuals == exc.residuals
        return
    assert certify_minimal(series, alone) == cert


class TestCertifyMinimal:
    def test_certificate_contents(self):
        spec = make_spec("gl", 2)
        q = UniPoly.from_roots([0, 2])
        cert = certify_minimal(DiagonalSeries(spec, (1, 0)), q)
        assert isinstance(cert, Certificate)
        assert all(not r for _, r in cert.residuals)
        assert sorted(w[0] for w in cert.witnesses) == [0, 2]
        assert all(w[2] for w in cert.witnesses)

    def test_failure_modes(self):
        spec = make_spec("gl", 2)
        with pytest.raises(CertificationError) as exc:
            certify_minimal(DiagonalSeries(spec, (1, 0)),
                            UniPoly.from_roots([0, 1]))
        assert any(r for _, r in exc.value.residuals)
        # a droppable root is trimmed: u kills the trivial module
        trivial = DiagonalSeries(spec, (0, 0))
        cert = certify_minimal(trivial, UniPoly.from_roots([0, 1]))
        assert cert.polynomial == UniPoly.x()
        assert cert.witnesses == ((0, 1, 1),)
        with pytest.raises(ValueError):
            certify_minimal(trivial, UniPoly((1, 0, 1)))
        with pytest.raises(ValueError):
            certify_minimal(trivial, UniPoly((0, 2)))
        # the roots found by the search fall short of the degree
        U = UniPoly.x()
        for q in (U * U - 2, U * (U * U - 2)):
            with pytest.raises(ValueError, match="does not split"):
                certify_minimal(trivial, q)
        with pytest.raises(ValueError, match="monic"):
            certify_minimal(trivial, 2 * U - 2)

    def test_certifies_the_fast_answer_itself(self, monkeypatch):
        # one certification reads the fast answer once and never
        # decomposes the weight a second way
        spec, lam = make_spec("o_odd", 3), (-2, -2, 0)
        fast = []

        def counted(spec, lam):
            fast.append(minpoly_from_weight(spec, lam))
            return fast[-1]

        def unreachable(spec, lam):
            raise AssertionError("decompose ran")

        monkeypatch.setattr(verify, "minpoly_from_weight", counted)
        monkeypatch.setattr("hwpoly.shuffle.decompose", unreachable)
        q, cert = certified_minimal_polynomial(spec, lam)
        assert len(fast) == 1
        # the fast answer (u-2)^3 (u-3)^2 is trimmed to (u-2)^3
        assert fast[0] == UniPoly.from_roots([2, 2, 2, 3, 3])
        assert q == cert.polynomial == UniPoly.from_roots([2, 2, 2])


class TestTrimInPlace:
    """certify_minimal trims a multiple of the minimal polynomial."""

    # singular weights in every family; the shuffle candidate at o_7
    # (-2,-2,0) is itself a proper multiple
    CASES = [("gl", 2, (0, 0)), ("gl", 3, (1, 1, 0)), ("sp", 2, (1, 1)),
             ("o_odd", 2, (1, 0)), ("o_even", 2, (1, 1)),
             ("o_odd", 3, (-2, -2, 0))]

    @pytest.mark.parametrize("family,n,lam", CASES)
    def test_multiples_trim_to_the_certified_answer(self, family, n, lam):
        spec = make_spec(family, n)
        q, cert = certified_minimal_polynomial(spec, lam)
        roots = [r for r, m in q.rational_roots() for _ in range(m)]
        r = roots[len(roots) // 2]
        outside = max(roots) + F(1, 2)
        series = DiagonalSeries(spec, lam)
        for extra in ([r], [outside], [r, r], [min(roots) - 1]):
            trimmed = certify_minimal(series,
                                      UniPoly.from_roots(roots + extra))
            assert trimmed.polynomial == q, (spec.label, lam, extra)
            assert trimmed.witnesses == cert.witnesses, (spec.label, extra)
            assert trimmed.residuals == cert.residuals
            # the trimmed polynomial carries its roots
            assert trimmed.polynomial._scaled is not None

    def test_direct_path_evaluates_the_candidate_once(self, monkeypatch):
        calls = []
        original = verify.annihilation_residuals

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(verify, "annihilation_residuals", counted)
        spec = make_spec("sp", 2)
        q, _ = certified_minimal_polynomial(spec, (2, 1))
        assert q == minpoly_from_weight(spec, (2, 1))
        assert len(calls) == 1


class TestCertifiedMinimal:
    def test_matches_fast_on_grids(self):
        grids = [("gl", 2, 2), ("sp", 1, 2), ("o_odd", 1, 2), ("o_even", 2, 1)]
        for family, n, b in grids:
            spec = make_spec(family, n)
            for lam in product(range(-b, b + 1), repeat=n):
                q, cert = certified_minimal_polynomial(spec, lam)
                assert q == minpoly_from_weight(spec, lam), (family, lam)
                assert cert.polynomial == q
                assert q.degree <= spec.N

    def test_three_way_agreement(self):
        cases = [("gl", 2, [(0, 0), (1, 0), (2, -1), (-1, -1), (3, 1)]),
                 ("sp", 1, [(0,), (1,), (2,), (-2,), (3,)]),
                 ("o_odd", 1, [(0,), (1,), (Fraction(1, 2),)])]
        for family, n, weights in cases:
            spec = make_spec(family, n)
            for lam in weights:
                fast = minpoly_from_weight(spec, lam)
                cert = certified_minimal_polynomial(spec, lam)[0]
                lcd = monic_lcm(den for _, _, den in
                                projected_resolvent(DiagonalSeries(spec, lam)))
                assert fast == cert == lcd, (family, lam)

    @pytest.mark.parametrize("family,n,lam", [
        ("gl", 8, (7, 6, 5, 4, 3, 2, 1, 0)),
        ("o_odd", 5, (5, 4, 3, 2, 0)),
        ("sp", 6, (6, 5, 4, 3, 2, 0)),
        ("gl", 10, (9, 8, 7, 6, 5, 4, 3, 2, 1, 0))])
    def test_rank_at_least_six(self, family, n, lam):
        spec = make_spec(family, n)
        q, cert = certified_minimal_polynomial(spec, lam)
        assert q == minpoly_from_weight(spec, lam)
        assert len(cert.witnesses) == len(q.rational_roots())
        assert all(w[2] for w in cert.witnesses)

    def test_resolvent_entries_defining_weight(self):
        spec = make_spec("gl", 2)
        entries = projected_resolvent(DiagonalSeries(spec, (1, 0)))
        assert entries == (
            (1, UniPoly((-1, 1)), UniPoly((0, -2, 1))),
            (2, UniPoly.one(), UniPoly.x()))

    def test_resolvent_order_bound(self):
        # two fractions with denominators of degree <= N that agree on
        # 2N tail orders are equal, so the 2N + 2 orders that
        # projected_resolvent fits give what 2N already gives
        for family, n, lam in [("gl", 2, (1, 0)), ("sp", 1, (F(-1, 2),)),
                               ("o_odd", 1, (3,)), ("o_even", 2, (1, -1))]:
            spec = make_spec(family, n)
            N = spec.N
            series = DiagonalSeries(spec, lam)
            tails = series.values(2 * N + 2)
            fits = [pade_reconstruct(t, N) for t in tails]
            assert fits == [pade_reconstruct(t[:2 * N], N) for t in tails]
            assert fits == [(num, den) for _, num, den
                            in projected_resolvent(series)]

    def test_rank_zero_certifies_u_directly(self, monkeypatch):
        # o_1 has only its middle row, which the shuffle answers with u,
        # so the candidate certifies without the fallback.
        def unreachable(series):
            raise AssertionError("characteristic identity fallback ran")

        monkeypatch.setattr(RecursionSeries, "characteristic", unreachable)
        spec = make_spec("o_odd", 0)
        assert certified_minimal_polynomial(spec, ())[0] == UniPoly.x()

    @staticmethod
    def _forbid_pade_and_search(monkeypatch):
        """Make the fallback fail if it fits a resolvent or searches for
        roots, and return the list of characteristic identities built."""
        def unreachable(*args):
            raise AssertionError("the fallback fitted or searched")

        monkeypatch.setattr(verify, "projected_resolvent", unreachable)
        monkeypatch.setattr(UniPoly, "_search_roots", unreachable)
        built = []
        original = RecursionSeries.characteristic

        def counted(series):
            built.append(original(series))
            return built[-1]

        monkeypatch.setattr(RecursionSeries, "characteristic", counted)
        return built

    def test_fallback_certifies_the_characteristic_identity(self,
                                                            monkeypatch):
        # A fast answer short of the root 0 cannot annihilate, so the
        # characteristic identity u (u - 2) (u - 4) is certified instead.
        spec, lam = make_spec("gl", 3), (2, 1, 0)
        direct = certified_minimal_polynomial(spec, lam)[1]
        monkeypatch.setattr(verify, "minpoly_from_weight",
                            lambda spec, lam: UniPoly.from_roots([2, 4]))
        built = self._forbid_pade_and_search(monkeypatch)
        q, cert = certified_minimal_polynomial(spec, lam)
        assert built == [UniPoly.from_roots([0, 2, 4])]
        assert q == UniPoly.from_roots([0, 2, 4])
        assert cert.witnesses == direct.witnesses == (
            (0, 1, 3), (2, 1, -1), (4, 1, 3))
        assert all(not r for _, r in cert.residuals)
        # the identity carries its roots, and the answer keeps them
        assert q.rational_roots() == [(0, 1), (2, 1), (4, 1)]

    @pytest.mark.parametrize("family", ["gl", "sp", "o_even", "o_odd"])
    def test_fallback_at_rank_ten_gives_the_direct_certificate(
            self, monkeypatch, family):
        # the fast answer without its least root fails, and the trimmed
        # characteristic identity of degree N certifies the same answer
        spec = make_spec(family, 10)
        lam = (3, F(1, 2), 2, -1, 0, 4, -3, 1, 1, -2)
        direct = certified_minimal_polynomial(spec, lam)[1]
        D, roots = direct.polynomial.scaled_roots()
        short = UniPoly.from_scaled_roots(D, roots[1:])
        monkeypatch.setattr(verify, "minpoly_from_weight",
                            lambda spec, lam: short)
        built = self._forbid_pade_and_search(monkeypatch)
        q, cert = certified_minimal_polynomial(spec, lam)
        assert [chi.degree for chi in built] == [spec.N]
        assert q == direct.polynomial
        assert cert == direct

    def test_agrees_with_matrix_oracle(self):
        for family, n in [("gl", 3), ("sp", 1), ("sp", 2), ("o_even", 2)]:
            spec = make_spec(family, n)
            rep = build_catalog_rep(family, n, "trivial")
            assert certified_minimal_polynomial(spec, (0,) * n)[0] \
                == oracle_minpoly(rep)
        spec = make_spec("sp", 1)
        assert certified_minimal_polynomial(spec, (1,))[0] \
            == oracle_minpoly(build_catalog_rep("sp", 1, "defining"))


class TestRelativeFormulas:
    def test_gl_exact(self):
        for spec, lam in gl_relative_weights():
            reports = symbolic_relative_formulas(spec, lam, K=4)
            assert [r.name for r in reports] == ["corner", "inner-block"]
            assert all(r.exact for r in reports), (lam, reports)

    def test_bc_exact(self):
        for spec, lam in bc_relative_weights():
            reports = symbolic_relative_formulas(spec, lam, K=4)
            assert [r.name for r in reports] == \
                ["corner", "inner-block", "opposite-corner"]
            assert all(r.exact for r in reports), (spec, lam, reports)

    def test_relcheck_agrees_with_the_symbolic_check(self):
        # relcheck reads the identities off the recursion and the Verma
        # walk at the weight; the symbolic check keeps the inner Cartan
        # coordinates free.  Both are exact at every weight drawn above
        # and in the acceptance suite
        draws = [(spec, lam, 6) for spec, lam in acceptance_relative_weights()]
        draws += [(spec, lam, 4) for spec, lam in gl_relative_weights()]
        draws += [(spec, lam, 4) for spec, lam in bc_relative_weights()]
        for spec, lam, K in draws:
            symbolic = symbolic_relative_formulas(spec, lam, K=K)
            at_weight = verma.check_relative_formulas(spec, lam, K=K)
            assert [r.name for r in at_weight] == [r.name for r in symbolic]
            assert all(len(r.residuals) == K for r in at_weight)
            assert all(r.exact for r in symbolic + at_weight), (spec, lam)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("family", ["gl", "sp", "o_even", "o_odd"])
    def test_symbolic_check_at_ranks_1_to_3(self, family, n):
        # every family at every rank the PBW powers reach in tier-1
        spec = make_spec(family, n)
        lam = (Fraction(3, 2), -1, Fraction(1, 3))[:n]
        symbolic = symbolic_relative_formulas(spec, lam, K=6)
        at_weight = verma.check_relative_formulas(spec, lam, K=6)
        assert [r.name for r in at_weight] == [r.name for r in symbolic]
        assert all(r.exact for r in symbolic + at_weight), (spec, lam)

    def test_gl1_corner_only_content(self):
        # rank one has an empty inner block, so that report is all zeros
        reports = symbolic_relative_formulas(make_spec("gl", 1), (5,), K=3)
        assert reports[0].exact
        assert reports[1].exact


class TestTraceDiagnostic:
    def test_exact_low_order_trace_facts(self):
        for family, n in [("sp", 1), ("sp", 2), ("o_odd", 1), ("o_even", 2)]:
            spec = make_spec(family, n)
            for lam in [(0,) * n, (1,) * n, (2,) + (0,) * (n - 1)]:
                t1 = sum(evaluate_at_weight(projected_diagonal(spec, 0)[p],
                                            lam)
                         for p in range(spec.N))
                t2 = sum(evaluate_at_weight(projected_diagonal(spec, 1)[p],
                                            lam)
                         for p in range(spec.N))
                assert t1 == spec.N
                assert t2 == 0


class TestPoset:
    def test_dedupe_and_edges(self):
        spec = make_spec("gl", 2)
        entries, edges = divisibility_poset(
            spec, [(0, 0), (-1, 1), (0, 0)])
        assert [w for w, _ in entries] == [(0, 0), (-1, 1)]
        assert [str(q) for _, q in entries] == ["u", "u^2 - u"]
        assert edges == ((0, 1),)

    def test_incomparable_pair(self):
        spec = make_spec("gl", 1)
        entries, edges = divisibility_poset(spec, [(1,), (2,)])
        assert edges == ()


# sha256 of every certified polynomial, residual tuple and witness tuple
# on the boxes below, recorded before the Verma images became affine in
# the weight
CERTIFIED_BOX_DIGEST = \
    "6073cac0d7e9942170cb298564e3d2ec2894009540ddbc0c951dbcf1ce6af082"


def test_certified_engine_on_whole_boxes():
    # the certifier's twin of test_shuffle's whole-box test: one spec per
    # (family, rank) certifies every weight of its boxes, so each weight
    # reads the images and rows the weights before it left in the tables
    digest, count = hashlib.sha256(), 0
    for family in ("gl", "sp", "o_even", "o_odd"):
        for rank, lo, hi, step in BOXES:
            spec = make_spec(family, rank)
            values = [lo + k * step for k in range(int((hi - lo) / step) + 1)]
            for lam in product(values, repeat=rank):
                q, cert = certified_minimal_polynomial(spec, lam)
                line = repr(([str(x) for x in lam], [str(c) for c in q.coeffs],
                             [(label, str(r)) for label, r in cert.residuals],
                             [(str(root), label, str(r))
                              for root, label, r in cert.witnesses]))
                digest.update(line.encode() + b"\n")
                count += 1
    assert count == 1852
    assert digest.hexdigest() == CERTIFIED_BOX_DIGEST
