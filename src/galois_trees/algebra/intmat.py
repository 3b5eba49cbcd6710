"""Exact integer linear algebra and determinants over commutative rings.

Everything here uses arbitrary-precision Python integers; cofactors of
Laplacians overflow 64 bits already at modest sizes, so no numpy.
"""

from __future__ import annotations

from dataclasses import dataclass

from .division import exact_quotient


def int_det(rows: list[list[int]]) -> int:
    """Determinant of an integer matrix by fraction-free Bareiss elimination."""
    n = len(rows)
    if n == 0:
        return 1
    a = [list(map(int, r)) for r in rows]
    if any(len(r) != n for r in a):
        raise ValueError("matrix is not square")
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = a[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (pivot * a[i][j] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = pivot
    return sign * a[n - 1][n - 1]


@dataclass(frozen=True)
class SmithForm:
    """Diagonal of the Smith normal form, plus optional unimodular transforms.

    The diagonal is a nonnegative divisibility chain d1 | d2 | ...; when
    transforms are retained, left @ M @ right equals the diagonal matrix.
    """

    diagonal: tuple[int, ...]
    left: tuple[tuple[int, ...], ...] | None = None
    right: tuple[tuple[int, ...], ...] | None = None


def smith_normal_form(rows: list[list[int]], transforms: bool = False) -> SmithForm:
    a = [list(map(int, r)) for r in rows]
    nr = len(a)
    nc = len(a[0]) if nr else 0
    if any(len(r) != nc for r in a):
        raise ValueError("ragged matrix")
    left = [[int(i == j) for j in range(nr)] for i in range(nr)] if transforms else None
    right = [[int(i == j) for j in range(nc)] for i in range(nc)] if transforms else None

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        if left is not None:
            left[i], left[j] = left[j], left[i]

    def swap_cols(i, j):
        for r in a:
            r[i], r[j] = r[j], r[i]
        if right is not None:
            for r in right:
                r[i], r[j] = r[j], r[i]

    def add_row(dst, src, q):
        ar, sr = a[dst], a[src]
        for j in range(nc):
            ar[j] += q * sr[j]
        if left is not None:
            lr, ls = left[dst], left[src]
            for j in range(nr):
                lr[j] += q * ls[j]

    def add_col(dst, src, q):
        for r in a:
            r[dst] += q * r[src]
        if right is not None:
            for r in right:
                r[dst] += q * r[src]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        if left is not None:
            left[i] = [-x for x in left[i]]

    t = 0
    while t < min(nr, nc):
        # pivot: minimal nonzero absolute value in the working submatrix
        pivot = None
        for i in range(t, nr):
            for j in range(t, nc):
                if a[i][j] != 0 and (pivot is None or abs(a[i][j]) < abs(a[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        while True:
            i, j = pivot
            if i != t:
                swap_rows(t, i)
            if j != t:
                swap_cols(t, j)
            p = a[t][t]
            dirty = False
            for i in range(t + 1, nr):
                if a[i][t]:
                    add_row(i, t, -(a[i][t] // p))
                    if a[i][t]:
                        dirty = True
            for j in range(t + 1, nc):
                if a[t][j]:
                    add_col(j, t, -(a[t][j] // p))
                    if a[t][j]:
                        dirty = True
            if not dirty:
                # row and column are clear; enforce divisibility of the rest
                bad = None
                for i in range(t + 1, nr):
                    for j in range(t + 1, nc):
                        if a[i][j] % p:
                            bad = i
                            break
                    if bad is not None:
                        break
                if bad is None:
                    break
                add_row(t, bad, 1)
            pivot = None
            for i in range(t, nr):
                for j in range(t, nc):
                    if a[i][j] != 0 and (
                        pivot is None or abs(a[i][j]) < abs(a[pivot[0]][pivot[1]])
                    ):
                        pivot = (i, j)
        if a[t][t] < 0:
            negate_row(t)
        t += 1

    diag = tuple(a[i][i] for i in range(min(nr, nc)))
    if transforms:
        return SmithForm(
            diag,
            tuple(tuple(r) for r in left),
            tuple(tuple(r) for r in right),
        )
    return SmithForm(diag)


def smith_diagonal(rows: list[list[int]]) -> tuple[int, ...]:
    """``smith_normal_form(rows).diagonal``, taking the unit pivots first.

    The rows are kept sparse, and each step pivots on a ±1 entry of least
    Markowitz cost (row nonzeros − 1)·(column nonzeros − 1), which limits
    fill-in (Dumas, Saunders and Villard, J. Symb. Comput. 32, 2001).  Row
    operations clear the pivot's column; column operations would then
    clear its row without touching any other row, so a unit pivot adds one
    1 to the diagonal and its row and column are dropped.  When no ±1
    entry is left, the dense ``smith_normal_form`` runs on the remainder.
    A Laplacian's entries off the diagonal are mostly −1, so its remainder
    is small.

    >>> smith_diagonal([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]])
    (1, 3, 0)
    """
    nc = len(rows[0]) if rows else 0
    if any(len(r) != nc for r in rows):
        raise ValueError("ragged matrix")
    sparse = {i: {j: int(x) for j, x in enumerate(r) if x} for i, r in enumerate(rows)}
    holders: list[set[int]] = [set() for _ in range(nc)]  # column -> rows with a nonzero
    for i, row in sparse.items():
        for j in row:
            holders[j].add(i)
    pivot_cols = set()
    while True:
        best = None
        for i, row in sparse.items():
            width = len(row) - 1
            for j, x in row.items():
                if x == 1 or x == -1:
                    cost = width * (len(holders[j]) - 1)
                    if best is None or cost < best[0]:
                        best = (cost, i, j)
        if best is None:
            break
        _, r, c = best
        pivot_row = sparse.pop(r)
        for j in pivot_row:
            holders[j].discard(r)
        p = pivot_row.pop(c)
        for i in holders[c]:
            row = sparse[i]
            f = row.pop(c) * p
            for j, x in pivot_row.items():
                y = row.get(j, 0) - f * x
                if y:
                    if j not in row:
                        holders[j].add(i)
                    row[j] = y
                elif j in row:
                    del row[j]
                    holders[j].discard(i)
        pivot_cols.add(c)
    cols = [j for j in range(nc) if j not in pivot_cols]
    rest = [[row.get(j, 0) for j in cols] for row in sparse.values()]
    return (1,) * len(pivot_cols) + smith_normal_form(rest).diagonal


def _ring_zero(x) -> bool:
    return not x


def det_over_ring(rows: list[list]) -> object:
    """Exact determinant of a square matrix over a commutative integral domain.

    Entries may be ints, Fractions, CycInt, UniPoly, or MultiPoly (mixed with
    scalars).  Fraction-free Bareiss elimination with row pivoting; every
    interior division is exact in the ring.
    """
    n = len(rows)
    if n == 0:
        return 1
    if any(len(r) != n for r in rows):
        raise ValueError("matrix is not square")
    a = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if _ring_zero(a[k][k]):
            for i in range(k + 1, n):
                if not _ring_zero(a[i][k]):
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return a[k][k] * 0
        pivot = a[k][k]
        for i in range(k + 1, n):
            row_i = a[i]
            lower = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = exact_quotient(pivot * row_i[j] - lower * a[k][j], prev)
            row_i[k] = 0
        prev = pivot
    result = a[n - 1][n - 1]
    if sign < 0:
        result = -result
    return result
