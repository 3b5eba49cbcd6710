"""Exact integer linear algebra, and determinants over Z[zeta_m][s].

Everything here uses arbitrary-precision Python integers; cofactors of
Laplacians overflow 64 bits already at modest sizes, so no numpy.
``det_over_ring`` works modulo primes (``modular``) and lifts by CRT.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import lcm, prod

from .cyclotomic import CycInt, euler_phi
from .modular import (
    det_mod,
    evaluate_mod,
    galois_exponents,
    power_basis_solver,
    root_of_unity,
    split_prime,
    to_residue,
)
from .unipoly import UniPoly


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


def det_over_ring(rows: list[list]) -> object:
    """Exact determinant of a square matrix over Z[zeta_m][s], or Q[s].

    Entries are ints, Fractions, CycInts of one conductor m, or UniPolys in s
    with such coefficients; Fractions and CycInts do not mix, and any other
    entry (a MultiPoly, say) raises TypeError.  The result is a UniPoly when
    some entry is one, else a scalar; its coefficients are CycInts when some
    entry carries a CycInt, else Fractions when some entry carries a
    Fraction, else ints.  The empty matrix has determinant 1.

    Multimodular: a Fraction row is first scaled by the lcm of its
    denominators, and the integer determinant divided by their product at
    the end.  For primes p ≡ 1 (mod m) below 2^62 and each k prime to m,
    zeta -> omega^k (omega a primitive m-th root of unity mod p) maps the
    matrix to F_p[s]; its determinant is taken by Gaussian elimination at
    s = 0..d and interpolated, and one inverted Vandermonde in the omega^k
    recovers the power-basis coefficients mod p.  Primes are combined by
    CRT with symmetric lift until their product exceeds 2B.

    The degree in s is at most d = min(sum of row max degrees, sum of column
    max degrees).  The bound B = c_m * min(prod of row l1, prod of column
    l1) holds for every power-basis coefficient of every s-coefficient: the
    l1 norm of an entry sums |power-basis coefficient| over its
    s-coefficients, and c_m is the largest |coefficient| of a power zeta^b
    on the power basis (2 at m = 105).  Lifted to Z[x][s] (zeta -> x), the
    determinant has l1 norm at most the permanent of the l1 norms, which is
    at most either product; folding x^m = 1 does not raise it, and then
    each x^b with b < m contributes at most c_m times its coefficient.

    The result is checked modulo one more prime, not used above, against an
    F_p determinant at one point; a mismatch raises AssertionError, also
    under ``python -O``.
    """
    n = len(rows)
    if n == 0:
        return 1
    if any(len(r) != n for r in rows):
        raise ValueError("matrix is not square")
    entries = [[x.coeffs if isinstance(x, UniPoly) else (x,) for x in r] for r in rows]
    scalars = [c for r in entries for x in r for c in x]
    if any(not isinstance(c, (int, Fraction, CycInt)) for c in scalars):
        raise TypeError("entries must be ints, Fractions, CycInts or UniPolys of them")
    conductors = {c.conductor for c in scalars if isinstance(c, CycInt)}
    has_fraction = any(isinstance(c, Fraction) for c in scalars)
    if len(conductors) > 1:
        raise ValueError(f"CycInt entries of conductors {sorted(conductors)}")
    if conductors and has_fraction:
        raise TypeError("Fraction and CycInt entries do not mix")
    m = min(conductors, default=1)
    is_poly = any(isinstance(x, UniPoly) for r in rows for x in r)

    # s-coefficients of every entry as ints or CycInts, Fraction rows scaled
    scales = []
    for r in entries:
        scale = lcm(*(c.denominator for x in r for c in x if isinstance(c, Fraction)))
        scales.append(scale)
        r[:] = [[c if isinstance(c, CycInt) else int(c * scale) for c in x] if any(x) else []
                for x in r]

    def to_scalar(coords):
        if conductors:
            return CycInt(m, coords)
        return Fraction(coords[0], prod(scales)) if has_fraction else coords[0]

    coords = _det_coordinates(entries, m)
    if not coords:
        return UniPoly() if is_poly else to_scalar((0,))
    if is_poly:
        return UniPoly([to_scalar(c) for c in coords])
    return to_scalar(coords[0])


@cache
def _root_height(m: int) -> int:
    """c_m: the largest |power-basis coefficient| of a power of zeta_m."""
    return max(max(map(abs, CycInt.root(m, b).coeffs)) for b in range(m))


def _det_bound(entries, m: int) -> int:
    """B: no power-basis coefficient of the determinant exceeds it in size."""
    l1 = [[sum(sum(map(abs, c.coeffs)) if isinstance(c, CycInt) else abs(c) for c in x)
           for x in r] for r in entries]
    rows = prod(sum(r) for r in l1)
    cols = prod(sum(col) for col in zip(*l1))
    return _root_height(m) * min(rows, cols)


def _det_coordinates(entries, m: int) -> list[tuple[int, ...]]:
    """The determinant's s-coefficients as power-basis coordinates, trimmed.

    entries[i][j] lists the s-coefficients (ints or CycInts) of entry (i, j).
    """
    n = len(entries)
    degrees = [[len(x) - 1 for x in r] for r in entries]
    row_degrees = [max(r) for r in degrees]
    col_degrees = [max(col) for col in zip(*degrees)]
    if min(row_degrees) < 0 or min(col_degrees) < 0:
        return []  # a zero row or column
    d = min(sum(row_degrees), sum(col_degrees))
    bound = 2 * _det_bound(entries, m)
    phi = euler_phi(m)
    modulus, acc, used = 1, [0] * ((d + 1) * phi), 0
    while modulus <= bound:
        p = split_prime(m, used)
        used += 1
        # per map zeta -> omega^k, the determinant's s-coefficients mod p
        images = []
        for k in galois_exponents(m):
            terms = _images(entries, p, k)
            images.append(_interpolate([det_mod(_at(terms, n, t, p), p) for t in range(d + 1)], p))
        solver = power_basis_solver(m, p)
        residues = [sum(a * b for a, b in zip(w, by_k)) % p
                    for by_k in zip(*images) for w in solver]
        inverse = pow(modulus, -1, p)
        acc = [a + modulus * ((r - a) * inverse % p) for a, r in zip(acc, residues)]
        modulus *= p
    half = modulus // 2
    acc = [a - modulus if a > half else a for a in acc]
    coords = [tuple(acc[k * phi:(k + 1) * phi]) for k in range(d + 1)]
    _check_extra_prime(entries, m, coords, split_prime(m, used), d + 1)
    while coords and not any(coords[-1]):
        coords.pop()
    return coords


def _check_extra_prime(entries, m: int, coords, p: int, point: int) -> None:
    """Compare the determinant with an F_p determinant at s = point, zeta -> omega."""
    expected = det_mod(_at(_images(entries, p, 1), len(entries), point, p), p)
    omega = root_of_unity(m, p)
    got = evaluate_mod([evaluate_mod(c, omega, p) for c in coords], point, p)
    if got != expected:
        raise AssertionError("multimodular determinant disagrees modulo an extra prime")


def _images(entries, p: int, k: int) -> list[tuple[int, int, list[int]]]:
    """(i, j, s-coefficients mod p) of each nonzero entry under zeta -> omega^k."""
    return [
        (i, j, [to_residue(c, p, k) for c in x])
        for i, r in enumerate(entries)
        for j, x in enumerate(r)
        if x
    ]


def _at(terms, n: int, t: int, p: int) -> list[list[int]]:
    """The n x n matrix over F_p of the images at s = t."""
    out = [[0] * n for _ in range(n)]
    for i, j, coeffs in terms:
        out[i][j] = evaluate_mod(coeffs, t, p)
    return out


def _interpolate(values: list[int], p: int) -> list[int]:
    """Coefficients mod p of the polynomial of degree < len(values) taking
    values[t] at s = t, by Newton divided differences."""
    c = list(values)
    n = len(c)
    for j in range(1, n):
        inv = pow(j, -1, p)
        for i in range(n - 1, j - 1, -1):
            c[i] = (c[i] - c[i - 1]) * inv % p
    out = [c[-1]]
    for j in range(n - 2, -1, -1):  # out = out * (s - j) + c[j]
        out = [(lo - j * hi) % p for lo, hi in zip([0] + out, out + [0])]
        out[0] = (out[0] + c[j]) % p
    return out
