"""Certification pipeline, resolvent recovery, and structural diagnostics."""

import hashlib
from fractions import Fraction
from itertools import permutations, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (BOXES, acceptance_relative_weights, bc_relative_weights,
                     gl_dot_orbit, gl_relative_weights, poly_divmod,
                     symbolic_relative_formulas)
from hwpoly import polyrat, verify, verma
from hwpoly.algebra import AlgebraSpec, make_spec
from hwpoly.enveloping import evaluate_at_weight
from hwpoly.genmatrix import projected_diagonal
from hwpoly.oracle import build_catalog_rep, oracle_minpoly
from hwpoly.polyrat import (InvariantError, UniPoly, monic_lcm,
                            pade_reconstruct, root_multiset)
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
from hwpoly.verma import DiagonalSeries


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
        # module's images nor a column nor a row may hold a Fraction
        series = DiagonalSeries(AlgebraSpec(family, n), lam)
        series.values(8)
        module = series._module
        assert module.scale == 6
        assert all(type(v) is int for v in module._cartan)
        # the module holds every image at its own weight, Cartan ones
        # included, with its memo of monomial weights
        assert all(module._images[h] for h in series.spec.cartan_by_coord)
        for memo in module._images:
            for nu, image in memo.items():
                assert type(nu) is int
                assert all(type(tau) is int and type(c) is int and c
                           for tau, c in image.items())
        assert len(module._weights) > n + 1
        for nu, wt in module._weights.items():
            assert type(nu) is int
            assert len(wt) == n and all(type(x) is int for x in wt)
        # columns and rows key each int by the packed pair (monomial,
        # position); a row is flat (key, int) pairs
        for column in series._columns:
            assert all(type(key) is int and type(c) is int and c
                       for key, c in column.items())
        assert series._rows
        for key, row in series._rows.items():
            assert type(key) is int
            assert len(row) % 2 == 0 and all(type(x) is int for x in row)
        # nothing of the walk is cached on the spec but M's entry table
        assert set(series.spec._cache_misc) == {"entries"}
        d, numerators = series.numerators(8)
        assert d == 6
        assert all(len(col) == 8 and all(type(n) is int for n in col)
                   for col in numerators)

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
        assert _annihilates(spec, UniPoly.from_roots([0]), (0, 0))
        res = annihilation_residuals(DiagonalSeries(spec, (0, 0)),
                                     UniPoly.from_roots([]))
        assert res == ((1, 1), (2, 1))

    def test_defining_weight(self):
        spec = make_spec("gl", 2)
        assert _annihilates(spec, UniPoly.from_roots([0, 2]), (1, 0))
        assert not _annihilates(spec, UniPoly.from_roots([0, 1]), (1, 0))


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
    q = UniPoly.from_roots(roots)
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


@pytest.mark.parametrize("engine", [DiagonalSeries, RecursionSeries],
                         ids=["verma", "recursion"])
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_certify_minimal_matches_the_fraction_reference(engine, data):
    # candidates with roots of denominators 1, 2, 3 and 6, repeated roots
    # of the answer and roots outside it; the reference divides in
    # Fractions and reads the minimal polynomial off every divisor, on
    # the Verma walk and on the recursion the certified path runs on
    family, n = data.draw(st.sampled_from(_RESIDUAL_SPECS))
    spec = make_spec(family, n)
    scale = data.draw(st.sampled_from([1, 2, 3, 6]))
    # the first coordinate has denominator exactly scale
    lam = (F(1 + scale * data.draw(st.integers(-3, 3)), scale),) + tuple(
        F(data.draw(st.integers(-9, 9)), scale) for _ in range(n - 1))
    series = engine(spec, lam)
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
            for _ in range(k):
                p = poly_divmod(p, factor)[0]
        if not any(r for _, r in _fraction_residuals(spec, cols, p)):
            divisors.append(p)
    least = min(divisors, key=lambda p: p.degree)
    assert all(not poly_divmod(p, least)[1].coeffs for p in divisors)
    assert cert.polynomial == least
    witnesses = []
    for r, _ in least.rational_roots():
        short = poly_divmod(least, UniPoly((-r, 1)))[0]
        witnesses.append((r, *next(
            hit for hit in _fraction_residuals(spec, cols, short) if hit[1])))
    assert cert.witnesses == tuple(witnesses)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_coefficients_alone_are_refused_before_any_search(data):
    # the certifier takes only a candidate built from its roots:
    # UniPoly(q.coeffs) of the fast answer holds none, so both entry
    # points raise ValueError without searching for them
    family, n = data.draw(st.sampled_from(_RESIDUAL_SPECS))
    spec = make_spec(family, n)
    lam = tuple(F(data.draw(st.integers(-9, 9)), data.draw(
        st.sampled_from([1, 2, 3, 6]))) for _ in range(n))
    alone = UniPoly(minpoly_from_weight(spec, lam).coeffs)
    series = RecursionSeries(spec, lam)

    def unreachable(self):
        raise AssertionError("the certifier searched for roots")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(UniPoly, "_search_roots", unreachable)
        for check in (annihilation_residuals, certify_minimal):
            with pytest.raises(ValueError, match="built from its roots"):
                check(series, alone)


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
        assert cert.polynomial == UniPoly((0, 1))
        assert cert.witnesses == ((0, 1, 1),)
        # a polynomial known by its coefficients alone is refused, split,
        # monic or not: u^2 + 1, 2u, u^2 - 2, u (u^2 - 2) and 2u - 2
        for coeffs in ((1, 0, 1), (0, 2), (-2, 0, 1), (0, -2, 0, 1),
                       (-2, 2)):
            with pytest.raises(ValueError, match="built from its roots"):
                certify_minimal(trivial, UniPoly(coeffs))

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
            # the trimmed polynomial carries its roots and their product
            assert trimmed.polynomial._scaled is not None
            assert trimmed.polynomial._product is not None
        # so does the characteristic identity, which the fallback trims
        chi = RecursionSeries(spec, lam).characteristic()
        assert chi._scaled is not None and chi._product is not None
        assert certify_minimal(series, chi).polynomial._product is not None

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

    @pytest.mark.parametrize("family,n,lam", [
        ("sp", 2, (2, 1)), ("o_odd", 3, (F(1, 2), 0, F(-3, 2))),
        ("gl", 3, (F(2, 3), F(-1, 3), 1))])
    def test_direct_path_multiplies_the_roots_out_once(self, monkeypatch,
                                                       family, n, lam):
        # the fast answer is multiplied out in ints once, as it is built
        # from its roots; the certifier reads that product, so it neither
        # multiplies the roots out again nor clears a Fraction coefficient
        # (verify binds neither function, so polyrat's bindings are all)
        calls = {"scaled_product": 0, "clear_denominators": 0}
        for name in calls:
            def counted(*args, _name=name, _original=getattr(polyrat, name)):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(polyrat, name, counted)
            assert not hasattr(verify, name)
        spec = make_spec(family, n)
        q, _ = certified_minimal_polynomial(spec, lam)
        assert calls == {"scaled_product": 1, "clear_denominators": 0}
        monkeypatch.undo()
        assert q == minpoly_from_weight(spec, lam)


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
            (2, UniPoly((1,)), UniPoly((0, 1))))

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
        assert certified_minimal_polynomial(spec, ())[0] == UniPoly((0, 1))

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


# weights whose minimal polynomial is the whole characteristic identity
# chi (degree N), so every pole of chi, with its multiplicity, is a root
# of some resolvent denominator
_CHI_WEIGHTS = [("gl", 3, (3, F(1, 2), -2)), ("sp", 2, (3, F(1, 2))),
                ("o_even", 2, (3, F(1, 2))), ("o_odd", 3, (3, F(1, 3), -1))]


class TestResolventDenominators:
    @pytest.mark.parametrize("family,n,lam", _CHI_WEIGHTS + [
        ("gl", 2, (1, 0)), ("sp", 2, (-2, -2)), ("o_odd", 2, (F(1, 2), 0)),
        ("o_even", 3, (1, 1, -1))])
    def test_denominators_carry_their_roots(self, family, n, lam):
        # built from the poles of chi, on either engine's series; their
        # lcm, a multiset max, is the certified answer
        spec = make_spec(family, n)
        answer = certified_minimal_polynomial(spec, lam)[0]
        for series in (RecursionSeries(spec, lam), DiagonalSeries(spec, lam)):
            dens = [den for _, _, den in projected_resolvent(series)]
            assert all(den.root_product() is not None for den in dens)
            assert monic_lcm(dens) == answer

    @pytest.mark.parametrize("family,n,lam", _CHI_WEIGHTS)
    def test_a_pole_missing_from_chi_raises(self, monkeypatch, family, n, lam):
        spec = make_spec(family, n)
        original = RecursionSeries.characteristic
        D, poles = original(RecursionSeries(spec, lam)).scaled_roots()
        assert len(poles) == spec.N
        for i in range(spec.N):
            monkeypatch.setattr(
                RecursionSeries, "characteristic",
                lambda series, i=i: UniPoly.from_scaled_roots(
                    D, poles[:i] + poles[i + 1:]))
            with pytest.raises(InvariantError, match="not divide chi"):
                projected_resolvent(RecursionSeries(spec, lam))

    def test_an_unreduced_fit_raises(self, monkeypatch):
        # gl_3 at l = (5, 3/2, -2): R_3 = 1/(u + 2) is fitted as
        # (u - 5)/((u + 2)(u - 5)), whose denominator still divides chi
        spec, lam = make_spec("gl", 3), (3, F(1, 2), -2)
        original = verify.pade_reconstruct
        factor = UniPoly((-5, 1))

        def unreduced(tail, dmax):
            num, den = original(tail, dmax)
            if den.degree == 1:
                return num * factor, den * factor
            return num, den

        monkeypatch.setattr(verify, "pade_reconstruct", unreduced)
        with pytest.raises(InvariantError, match="^entry 3: u - 5 over"):
            projected_resolvent(RecursionSeries(spec, lam))


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

    @pytest.mark.parametrize("family,n,distinct", [
        ("gl", 4, 8), ("gl", 5, 16), ("sp", 3, None)])
    def test_orbit_edges_equal_the_long_division_reference(
            self, family, n, distinct):
        # the dot-orbit of 0, w(rho) - rho over the permutations of rho,
        # with every sign change for sp; gl_n's q takes 2^(n-1) values
        spec = make_spec(family, n)
        signs = [(1, -1) if family == "sp" else (1,)] * n
        weights = [tuple(e * x - r for e, x, r in zip(s, perm, spec.rho))
                   for perm in permutations(spec.rho)
                   for s in product(*signs)]
        entries, edges = divisibility_poset(spec, weights)
        assert len(entries) == len(weights)
        polys = {q for _, q in entries}
        if distinct is not None:
            assert len(polys) == distinct
        divides = {(qa, qb): not poly_divmod(qb, qa)[1].coeffs
                   for qa in polys for qb in polys}
        assert edges == tuple(
            (a, b) for a, (_, qa) in enumerate(entries)
            for b, (_, qb) in enumerate(entries)
            if a != b and divides[qa, qb])


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.integers(-3, 3), st.lists(st.integers(1, 3), min_size=1, max_size=3))
@example(0, [1, 1, 1])
@example(0, [2, 1, 2])
def test_gl_regular_orbit_q_reads_the_descents_on_unit_gaps(low, gaps):
    # on the dot-orbit of l_dom, l_dom_i - l_dom_(i+1) = gaps[i], the
    # certified q and R(w) & S, S the unit gaps, determine each other,
    # and q_a | q_b exactly when R_a & S <= R_b & S; so q takes 2^|S|
    # values, 8 on the orbit of (3,2,1,0) and 2 on that of (5,3,2,0)
    l_dom = tuple(low + sum(gaps[i:]) for i in range(len(gaps) + 1))
    unit = frozenset(i for i, g in enumerate(gaps) if g == 1)
    spec = make_spec("gl", len(l_dom))
    q_of, class_of = {}, {}
    for descents, lam in gl_dot_orbit(l_dom):
        q = certified_minimal_polynomial(spec, lam)[0]
        key = descents & unit
        assert q_of.setdefault(key, q) == q
        assert class_of.setdefault(q, key) == key
    assert len(q_of) == 2 ** len(unit)
    roots = {key: root_multiset(q) for key, q in q_of.items()}
    for a, ra in roots.items():
        for b, rb in roots.items():
            assert (ra <= rb) == (a <= b)


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
