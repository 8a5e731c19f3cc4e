"""Dense exact linear algebra over the rationals.

Small kit for the series reconstruction: fraction-valued row reduction
with optional augmentation, and an exact solver that runs it with one
augmented column.  Everything copies its
input rows, nothing here mutates caller data.
"""

from __future__ import annotations

from .polyrat import ONE, ZERO


class Echelon:
    """Incremental reduced row echelon form over Q.

    The first `width` columns take part in pivoting; any further columns
    of an inserted row are carried along and never pivoted on.  Inserted
    rows may hold ints or Fractions; each is scaled by the Fraction
    reciprocal of its pivot, so the stored rows are Fractions.  The
    carried columns let callers track how inserted rows combine.
    """

    def __init__(self, width):
        self.width = width
        self.rows = []
        self.pivots = []
        self.last_residual = None

    def reduce(self, vec):
        """Return a copy of vec reduced against the current rows."""
        v = list(vec)
        for row, p in zip(self.rows, self.pivots):
            c = v[p]
            if c:
                for j in range(len(v)):
                    if row[j]:
                        v[j] -= c * row[j]
        return v

    def insert(self, vec):
        """Reduce vec and adjoin it when independent.

        Returns the new pivot column, or None when vec lies in the span
        of the inserted rows; the reduced row (augmentation included) is
        then available as last_residual.
        """
        v = self.reduce(vec)
        piv = None
        for j in range(self.width):
            if v[j]:
                piv = j
                break
        self.last_residual = v
        if piv is None:
            return None
        inv = ONE / v[piv]
        v = [x * inv for x in v]
        for row in self.rows:
            c = row[piv]
            if c:
                for j in range(len(v)):
                    if v[j]:
                        row[j] -= c * v[j]
        k = 0
        while k < len(self.pivots) and self.pivots[k] < piv:
            k += 1
        self.rows.insert(k, v)
        self.pivots.insert(k, piv)
        return piv


def solve_with_rank(a, b):
    """Solve a x = b exactly by row reduction of the augmented rows.

    Returns (solution, nfree).  solution is None when the system is
    inconsistent; otherwise free variables are set to zero.  Every row
    is inserted before the verdict, so nfree is n minus the rank of a.
    """
    n = len(a[0]) if a else 0
    ech = Echelon(n)
    consistent = True
    for row, rhs in zip(a, b):
        if ech.insert(list(row) + [rhs]) is None:
            consistent = consistent and not ech.last_residual[n]
    nfree = n - len(ech.pivots)
    if not consistent:
        return None, nfree
    sol = [ZERO] * n
    for row, p in zip(ech.rows, ech.pivots):
        sol[p] = row[n]
    return sol, nfree
