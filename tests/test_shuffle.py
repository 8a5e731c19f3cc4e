"""Shuffle decompositions and the fast minimal polynomial."""

import hashlib
import random
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import BOXES
from hwpoly.algebra import make_spec
from hwpoly.polyrat import InvariantError, UniPoly
from hwpoly.shuffle import (
    PLAIN,
    STARRED,
    _gl_parts,
    _mirror_parts,
    _mirror_roots,
    decompose,
    minpoly_from_weight,
    shuffle_gl,
    shuffle_mirror,
)


def part_tuples(dec):
    return sorted(p.terms for p in dec.parts)


class TestShuffleGL:
    def test_worked_example(self):
        dec = shuffle_gl([3, 3, 2, 4, 1, 3, 2, 2, 1])
        assert part_tuples(dec) == [(3, 2), (3, 2, 1), (4, 3, 2, 1)]
        assert dec.roots() == [1, 1, 2]

    def test_two_singletons(self):
        dec = shuffle_gl([5, 3])
        assert part_tuples(dec) == [(3,), (5,)]

    def test_single_run(self):
        dec = shuffle_gl([4, 3, 2])
        assert part_tuples(dec) == [(4, 3, 2)]
        assert dec.roots() == [2]

    def test_terms_partition_the_sequence(self):
        rng = random.Random(411)
        for _ in range(200):
            seq = [rng.randint(-3, 3) for _ in range(rng.randint(0, 9))]
            dec = shuffle_gl(seq)
            got = sorted(x for p in dec.parts for x in p.terms)
            assert got == sorted(Fraction(x) for x in seq)
            for p in dec.parts:
                assert all(a - 1 == b for a, b in zip(p.terms, p.terms[1:]))

    def test_generic_sequences_give_singletons(self):
        rng = random.Random(412)
        for _ in range(100):
            seq = []
            while len(seq) < 4:
                x = rng.randint(-20, 20)
                if all(abs(x - y) > 1 for y in seq):
                    seq.append(x)
            dec = shuffle_gl(seq)
            assert all(len(p.terms) == 1 for p in dec.parts)
            assert dec.roots() == sorted(seq)

    def test_tied_candidates_are_identical(self):
        # Longest-part ties only ever arise between parts with equal term
        # tuples, so the earliest-created rule cannot change the multiset.
        rng = random.Random(413)
        for _ in range(300):
            seq = [rng.randint(0, 3) for _ in range(rng.randint(0, 10))]
            parts = []
            for x in seq:
                cands = [t for t in parts if t[-1] == x + 1]
                if cands:
                    longest = max(len(t) for t in cands)
                    tied = [tuple(t) for t in cands if len(t) == longest]
                    assert len(set(tied)) == 1
                    next(t for t in parts
                         if len(t) == longest and t[-1] == x + 1).append(x)
                else:
                    parts.append([x])


class TestShuffleMirror:
    def test_mirror_structure(self):
        rng = random.Random(421)
        for eps in (Fraction(0), Fraction(1, 2), Fraction(1)):
            for _ in range(100):
                n = rng.randint(0, 5)
                seq = [rng.randint(-3, 3) + eps for _ in range(n)]
                dec = shuffle_mirror(seq, eps)
                doubled = sorted([Fraction(x) for x in seq]
                                 + [-Fraction(x) for x in seq])
                got = sorted(x for p in dec.parts for x in p.terms)
                assert got == doubled
                for k, p in enumerate(dec.parts):
                    q = dec.parts[p.mirror_id]
                    assert q.mirror_id == k
                    assert q.terms == tuple(-x for x in reversed(p.terms))
                    assert q.origins == tuple(
                        STARRED if o == PLAIN else PLAIN
                        for o in reversed(p.origins))

    def test_sp1_trivial_is_odd(self):
        dec = shuffle_mirror([1], 1)
        assert part_tuples(dec) == [(-1,), (1,)]
        assert dec.parity == "odd"
        assert dec.roots() == [0]

    def test_sp1_weight_one_is_even(self):
        dec = shuffle_mirror([2], 1)
        assert dec.parity == "even"
        assert dec.roots() == [-1, 3]

    def test_odd3_trivial(self):
        dec = shuffle_mirror([Fraction(1, 2)], Fraction(1, 2))
        assert dec.parity == "odd"
        assert dec.roots() == [0]

    def test_even4_trivial(self):
        dec = shuffle_mirror([1, 0], 0)
        assert part_tuples(dec) == [(0, -1), (1, 0)]
        plain_part = next(p for p in dec.parts if p.terms == (1, 0))
        assert plain_part.origins == (PLAIN, PLAIN)
        assert dec.parity == "odd"
        assert dec.roots() == [0]

    def test_even4_mixed_origin_weight(self):
        # l = (0, 1): both parts mix origins, so the result is even.
        dec = shuffle_mirror([0, 1], 0)
        assert part_tuples(dec) == [(0, -1), (1, 0)]
        assert all(set(p.origins) == {PLAIN, STARRED} for p in dec.parts)
        assert dec.parity == "even"
        assert dec.roots() == [0, 1]

    def test_zero_pair_distinct_parts(self):
        dec = shuffle_mirror([0], 0)
        assert len(dec.parts) == 2
        assert [p.terms for p in dec.parts] == [(0,), (0,)]
        assert {p.origins[0] for p in dec.parts} == {PLAIN, STARRED}

    def test_odd3_even_parity_gains_middle_root(self):
        # l = 3/2, the vector representation of the rank one odd algebra
        dec = shuffle_mirror([Fraction(3, 2)], Fraction(1, 2))
        assert dec.parity == "even"
        assert sorted(p.terms[0] for p in dec.parts) == [Fraction(-3, 2),
                                                         Fraction(3, 2)]
        assert dec.roots() == [-1, 1, 2]

    def test_odd3_middle_root_multiplicity(self):
        # l = -1/2: the doubled first terms already contain -epsilon,
        # and the middle contributes a second copy
        dec = shuffle_mirror([Fraction(-1, 2)], Fraction(1, 2))
        assert dec.parity == "even"
        assert dec.roots() == [0, 1, 1]

    def test_odd3_gate_cancellation(self):
        # l = 1: the all-plain part ends one half above epsilon, which
        # cancels the -1 first term of its mirror
        dec = shuffle_mirror([1], Fraction(1, 2))
        assert dec.parity == "even"
        assert dec.roots() == [Fraction(-1, 2), 1]

    def test_odd5_gate_with_chain(self):
        dec = shuffle_mirror([2, 1], Fraction(1, 2))
        assert part_tuples(dec) == [(-1, -2), (2, 1)]
        assert dec.roots() == [Fraction(-1, 2), 2]

    def test_odd5_gate_and_odd_parity_together(self):
        dec = shuffle_mirror([1, Fraction(1, 2)], Fraction(1, 2))
        assert dec.parity == "odd"
        assert dec.roots() == [Fraction(1, 2), 1]

    def test_odd5_gate_fires_once(self):
        # two all-plain parts end at the gate but only one -1 is removed
        dec = shuffle_mirror([1, 1], Fraction(1, 2))
        assert dec.parity == "even"
        assert dec.roots() == [Fraction(1, 2), Fraction(1, 2), 2, Fraction(5, 2)]

    def test_odd5_gate_requires_plain_ending(self):
        # l = (2, -1): the part ending at 1 reaches it by a starred term
        dec = shuffle_mirror([2, -1], Fraction(1, 2))
        assert dec.parity == "even"
        assert dec.roots() == [Fraction(-1, 2), 2, Fraction(5, 2)]

    def test_odd5_parity_requires_plain_ending(self):
        dec = shuffle_mirror([Fraction(3, 2), Fraction(-1, 2)], Fraction(1, 2))
        assert dec.parity == "even"
        assert dec.roots() == [0, 2, 2]

    def test_odd_has_minus_epsilon_first_term(self):
        rng = random.Random(422)
        for eps in (Fraction(0), Fraction(1, 2), Fraction(1)):
            for _ in range(150):
                n = rng.randint(1, 5)
                seq = [rng.randint(-2, 4) + eps for _ in range(n)]
                dec = shuffle_mirror(seq, eps)
                if dec.parity == "odd":
                    assert -eps in [p.terms[0] for p in dec.parts]
                    dec.roots()

    def test_odd_parity_needs_a_part_at_minus_epsilon(self):
        # an all-plain part ends at epsilon = 1 but no part starts at -1
        with pytest.raises(InvariantError):
            _mirror_roots([[(2, PLAIN), (1, PLAIN)], [(-3, STARRED)]], 2, 1, 1)


class TestMinpolyFromWeight:
    def test_gl_trivial(self):
        for n in range(1, 6):
            spec = make_spec("gl", n)
            assert minpoly_from_weight(spec, (0,) * n) == UniPoly((0, 1))

    def test_gl_defining(self):
        for n in range(2, 6):
            spec = make_spec("gl", n)
            lam = (1,) + (0,) * (n - 1)
            q = minpoly_from_weight(spec, lam)
            assert q == UniPoly.from_roots([0, n])

    def test_gl2_weight(self):
        spec = make_spec("gl", 2)
        assert minpoly_from_weight(spec, (1, 0)) == UniPoly.from_roots([0, 2])

    def test_trivial_modules_bc_families(self):
        for family, n in [("sp", 1), ("sp", 2), ("o_odd", 1),
                          ("o_even", 2), ("o_odd", 2)]:
            spec = make_spec(family, n)
            assert minpoly_from_weight(spec, (0,) * n) == UniPoly((0, 1))

    def test_sp1_defining(self):
        spec = make_spec("sp", 1)
        assert minpoly_from_weight(spec, (1,)) == UniPoly.from_roots([-1, 3])

    def test_odd3_defining(self):
        spec = make_spec("o_odd", 1)
        assert minpoly_from_weight(spec, (1,)) == UniPoly.from_roots([-1, 1, 2])

    def test_generic_gl_weight_gives_linear_factors(self):
        rng = random.Random(431)
        for n in (2, 3, 4):
            spec = make_spec("gl", n)
            for _ in range(30):
                lam = []
                while len(lam) < n:
                    x = Fraction(rng.randint(-15, 15))
                    l_val = x + spec.rho[len(lam)]
                    taken = [a + b for a, b in
                             zip(lam, spec.rho[:len(lam)])]
                    if all(abs(l_val - t) > 1 for t in taken):
                        lam.append(x)
                q = minpoly_from_weight(spec, lam)
                assert q == UniPoly.from_roots(decompose(spec, lam).sequence)

    def test_decompose_routes_by_family(self):
        assert decompose(make_spec("gl", 2), (0, 0)).kind == "gl"
        assert decompose(make_spec("sp", 1), (0,)).kind == "mirror"


def test_float_sequences_are_rejected():
    # shuffle_gl([0.5]) once read 0.5 as the exact 1/2
    with pytest.raises(TypeError):
        shuffle_gl([0.5])
    with pytest.raises(TypeError):
        shuffle_mirror([1], 0.5)
    with pytest.raises(TypeError):
        minpoly_from_weight(make_spec("sp", 1), (0.5,))


# sha256 of every decompose record and root multiset on the boxes below,
# recorded before the decompositions moved to ints
BOX_DIGEST = "a3729f84fceb1029170f80e4b25e6bb4b6b08b88294b4d0dd0c78299a5985838"


def test_fast_engine_on_whole_boxes():
    digest, count = hashlib.sha256(), 0
    for family in ("gl", "sp", "o_even", "o_odd"):
        for rank, lo, hi, step in BOXES:
            spec = make_spec(family, rank)
            values = [lo + k * step for k in range(int((hi - lo) / step) + 1)]
            for lam in product(values, repeat=rank):
                dec = decompose(spec, lam)
                roots = dec.roots()
                line = repr(([str(x) for x in lam],
                             [([str(t) for t in p.terms], list(p.origins),
                               p.mirror_id) for p in dec.parts],
                             dec.parity, [str(r) for r in roots]))
                digest.update(line.encode() + b"\n")
                count += 1
                fast = minpoly_from_weight(spec, lam).rational_roots()
                assert [r for r, m in fast for _ in range(m)] == roots
    assert count == 1852
    assert digest.hexdigest() == BOX_DIGEST


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(["gl", "sp", "o_even", "o_odd"]), st.integers(0, 4),
       st.sampled_from([1, 2, 3, 6]), st.data())
def test_int_shifted_weight_gives_the_decompose_roots(family, rank, den,
                                                      data):
    # decompose and minpoly_from_weight shuffle the same ints
    # d (lambda + rho); the record's Fraction roots, the UniPoly's root
    # form and its coefficients must agree
    spec = make_spec(family, rank)
    lam = tuple(Fraction(data.draw(st.integers(-12, 12)), den)
                for _ in range(rank))
    q = minpoly_from_weight(spec, lam)
    roots = decompose(spec, lam).roots()
    assert [r for r, m in q.rational_roots() for _ in range(m)] == roots
    assert q == UniPoly.from_roots(roots)


@pytest.mark.parametrize("family", ["gl", "sp", "o_even", "o_odd"])
def test_decompose_forms_the_shifted_weight_in_ints(family):
    # decompose reads the one int d (lambda + rho) minpoly_from_weight
    # reads: its sequence is lambda + rho and its roots are the fast
    # answer's
    rng = random.Random(3301)
    for rank in range(5):
        spec = make_spec(family, rank)
        for den in (1, 2, 3, 6):
            for _ in range(8):
                lam = tuple(Fraction(rng.randint(-12, 12), den)
                            for _ in range(rank))
                dec = decompose(spec, lam)
                assert dec.sequence == tuple(
                    a + r for a, r in zip(lam, spec.rho))
                assert dec.epsilon == spec.epsilon
                assert dec.scaled_roots == \
                    minpoly_from_weight(spec, lam).scaled_roots()


# int sequences in steps of d with many repeats and unit gaps
_TIED = st.sampled_from([1, 2, 3]).flatmap(lambda d: st.tuples(
    st.just(d), st.lists(st.integers(-2, 2).map(lambda v: d * v),
                         max_size=12)))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_TIED)
def test_gl_part_ends_follow_the_bracket_rule(case):
    # an x is closed by a later x - d: x ends a part as often as, over
    # the suffixes from each i, the x from i on outnumber the x - d
    # after i, at most
    d, seq = case
    rule = Counter({x: max(
        seq[i:].count(x) - seq[i + 1:].count(x - d) for i in range(len(seq)))
        for x in set(seq)})
    ends = Counter(t[-1][0] for t in _gl_parts(seq, d))
    assert ends == +rule


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_TIED)
def test_mirror_parts_are_plain_then_starred_runs(case):
    # plain terms are only prepended and starred ones only appended, so
    # a part's last origin tells whether it is all plain
    d, seq = case
    parts, mirror = _mirror_parts(seq, d)
    assert len(parts) == len(mirror) and len(parts) % 2 == 0
    swapped = {PLAIN: STARRED, STARRED: PLAIN}
    for k, t in enumerate(parts):
        origins = [o for _, o in t]
        plain = origins.count(PLAIN)
        assert origins == [PLAIN] * plain + [STARRED] * (len(t) - plain)
        assert all(a - b == d for (a, _), (b, _) in zip(t, t[1:]))
        assert mirror[mirror[k]] == k != mirror[k]
        assert parts[mirror[k]] == [(-v, swapped[o]) for v, o in reversed(t)]
