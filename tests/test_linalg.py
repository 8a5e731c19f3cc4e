"""Exact row reduction: the Echelon form and the linear solver."""

import random
from fractions import Fraction as F

import pytest

from hwpoly.linalg import Echelon, solve_with_rank


def _types(values):
    return {type(x) for x in values}


class TestSolveWithRank:
    def test_consistent_square(self):
        sol, nfree = solve_with_rank([[2, 1], [1, 3]], [3, 5])
        assert sol == [F(4, 5), F(7, 5)]
        assert nfree == 0

    def test_inconsistent(self):
        sol, nfree = solve_with_rank([[1, 1], [2, 2]], [1, 3])
        assert sol is None
        assert nfree == 1

    def test_inconsistent_row_before_a_pivot_row(self):
        # the zero row with a nonzero right side comes first; the rank,
        # and so nfree, still counts the rows after it
        sol, nfree = solve_with_rank([[0, 0, 0], [1, 0, 0], [0, 1, 0]],
                                     [1, 2, 3])
        assert sol is None
        assert nfree == 1

    def test_underdetermined_sets_free_variables_to_zero(self):
        sol, nfree = solve_with_rank([[1, 2, 3], [0, 0, 1]], [4, 1])
        assert sol == [F(1), F(0), F(1)]
        assert nfree == 1

    def test_overdetermined_consistent(self):
        sol, nfree = solve_with_rank([[1, 0], [0, 1], [1, 1]], [2, 3, 5])
        assert sol == [F(2), F(3)]
        assert nfree == 0

    def test_empty_system(self):
        assert solve_with_rank([], []) == ([], 0)

    def test_int_input_gives_fractions(self):
        sol, _ = solve_with_rank([[3, 0], [0, 4]], [1, 2])
        assert sol == [F(1, 3), F(1, 2)]
        assert _types(sol) == {F}
        sol, _ = solve_with_rank([[1, 1, 1]], [6])
        assert _types(sol) == {F}

    def test_random_systems_solve_exactly(self):
        rng = random.Random(7)
        for _ in range(200):
            m, n = rng.randint(1, 5), rng.randint(1, 5)
            a = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(m)]
            b = [rng.randint(-3, 3) for _ in range(m)]
            sol, nfree = solve_with_rank(a, b)
            assert 0 <= nfree <= n
            if sol is not None:
                assert _types(sol) <= {F}
                assert [sum(x * y for x, y in zip(row, sol)) for row in a] == b


class TestEchelon:
    def test_int_rows_stay_exact(self):
        # rows were once normalised by int division, so [0, 2, 4] was
        # stored as [0.0, 1.0, 2.0]
        ech = Echelon(3)
        ech.insert([0, 2, 4])
        ech.insert([3, 1, 0])
        assert ech.rows == [[1, 0, F(-2, 3)], [0, 1, 2]]
        assert {type(x) for row in ech.rows for x in row} == {F}

    def test_insert_reports_pivots_and_dependence(self):
        ech = Echelon(3)
        assert ech.insert([F(0), F(2), F(4)]) == 1
        assert ech.insert([F(1), F(1), F(1)]) == 0
        assert ech.insert([F(1), F(3), F(5)]) is None
        assert ech.pivots == [0, 1]

    def test_last_residual_carries_the_augmentation(self):
        # rows tagged by unit augmentation vectors: the residual of a
        # dependent row records the combination that cancels it
        ech = Echelon(2)
        rows = [[F(1), F(2)], [F(0), F(1)], [F(2), F(7)]]
        for k, row in enumerate(rows):
            tag = [F(0)] * 3
            tag[k] = F(1)
            got = ech.insert(row + tag)
        assert got is None
        res = ech.last_residual
        assert res[:2] == [0, 0]
        assert res[2:] == [F(-2), F(-3), F(1)]
        combo = [sum(c * row[j] for c, row in zip(res[2:], rows))
                 for j in range(2)]
        assert combo == [0, 0]

    def test_rows_are_reduced(self):
        ech = Echelon(3)
        for row in ([F(2), F(4), F(6)], [F(1), F(3), F(4)]):
            ech.insert(row)
        for row, p in zip(ech.rows, ech.pivots):
            assert row[p] == 1
            assert all(other[p] == 0 for other in ech.rows if other is not row)

    @pytest.mark.parametrize("width", [0, 2])
    def test_zero_vector_is_dependent(self, width):
        ech = Echelon(width)
        assert ech.insert([F(0)] * width) is None
        assert ech.rows == []
