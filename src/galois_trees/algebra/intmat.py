"""Exact integer linear algebra, and determinants over Z[zeta_m][s].

Everything here uses arbitrary-precision Python integers; cofactors of
Laplacians overflow 64 bits already at modest sizes, so no numpy.
A Smith normal form is returned as its diagonal only, the invariant
factors, which is all that a group order or structure needs:
``smith_diagonal`` takes unit pivots on sparse rows, then the dense
``smith_normal_form`` finishes the remainder by extended-gcd steps.
``det_over_ring`` takes det(I - diag(s^l) B) for a scalar B over Z[zeta_m],
the one determinant shape of the zeta layer, modulo primes (``modular``)
and lifts by CRT: by a Hessenberg reduction of the unit-step matrix when
the lengths are short, by interpolation otherwise.
"""

from __future__ import annotations

from collections import defaultdict
from functools import cache
from itertools import accumulate, chain
from math import gcd, isqrt, prod

from .cyclotomic import CycInt, euler_phi
from .modular import (
    charpoly_mod,
    det_mod,
    evaluate_mod,
    galois_exponents,
    l1,
    power_basis_solver,
    root_of_unity,
    split_primes,
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


def smith_normal_form(rows: list[list[int]]) -> tuple[int, ...]:
    """Diagonal of the Smith normal form of an integer matrix: the invariant
    factors d1 | d2 | ..., nonnegative, zeros after the rank, min(rows,
    columns) of them.

    Each diagonal entry starts from the least nonzero |entry|, moved to the
    corner as the pivot p: one scan of the matrix per entry.  Extended-gcd
    (Bezout) steps clear its column and row (Cohen, GTM 138, Alg. 2.4.14).
    For x in the column with g = gcd(p, x) = u·p + v·x, the pivot row and
    x's row become u·(pivot row) + v·(x's row) and (p/g)·(x's row) −
    (x/g)·(pivot row): a unimodular step leaving g in the corner and 0 in
    place of x; when p divides x, x's row just loses x/p pivot rows.  One
    pass over the column, and one by columns over the row, make p the gcd
    of what they held.  Each step replaces p by a divisor, so |p| only
    shrinks.  A row step that shrinks it refills the column, and the passes
    repeat.  Once both are clear, a row with an entry p does not divide is
    added to the pivot row, and the row pass shrinks p again; otherwise |p|
    is emitted and its row and column are dropped.  The loop ends because
    every repeat shrinks |p|, which stays at least 1.  This dense routine
    is the remainder step of ``smith_diagonal``.

    >>> smith_normal_form([[2, 4], [6, 8]])
    (2, 4)
    >>> smith_normal_form([[2, 4, 6], [4, 8, 12], [1, 3, 5]])
    (1, 2, 0)
    """
    a = [list(map(int, r)) for r in rows]
    nc = len(a[0]) if a else 0
    if any(len(r) != nc for r in a):
        raise ValueError("ragged matrix")
    size = min(len(a), nc)
    diagonal = []
    while least := min(map(abs, filter(None, chain.from_iterable(a))), default=0):
        for i, row in enumerate(a):
            if least in row or -least in row:
                break
        j = row.index(least) if least in row else row.index(-least)
        a[0], a[i] = a[i], a[0]
        if j:
            for r in a:
                r[0], r[j] = r[j], r[0]
        top = a[0]
        p = top[0]
        again = True
        while again:
            for r in a[1:]:  # the column pass
                if x := r[0]:
                    if x % p:
                        p, u, v, s, t = _bezout(p, x)
                        top[:], r[:] = ([u * y + v * z for y, z in zip(top, r)],
                                        [s * z - t * y for y, z in zip(top, r)])
                    else:
                        q = x // p
                        r[:] = [z - q * y for y, z in zip(top, r)]
            again = False  # set when a step of the row pass refills column 0
            for k in range(1, nc):  # the row pass
                if y := top[k]:
                    if y % p:
                        p, u, v, s, t = _bezout(p, y)
                        for r in a:
                            r[0], r[k] = u * r[0] + v * r[k], s * r[k] - t * r[0]
                        again = True
                    else:
                        q = y // p
                        for r in a:
                            r[k] -= q * r[0]
            if not again and p != 1 and p != -1 and (
                    bad := next((r for r in a[1:] if any(x % p for x in r)), None)):
                top[:] = [y + z for y, z in zip(top, bad)]
                again = True
        diagonal.append(abs(p))
        a = [r[1:] for r in a[1:]]
        nc -= 1
    return tuple(diagonal) + (0,) * (size - len(diagonal))


def _bezout(p: int, x: int) -> tuple[int, int, int, int, int]:
    """(g, u, v, p/g, x/g) with g = gcd(p, x) = u·p + v·x, for x != 0."""
    g = gcd(p, x)
    s, t = p // g, x // g
    u = pow(s, -1, abs(t))  # 0 when |t| = 1
    return g, u, (g - u * p) // x, s, t


def smith_diagonal(rows: list[list[int]]) -> tuple[int, ...]:
    """``smith_normal_form(rows)``, taking the unit pivots first.

    The rows are kept sparse, and each step pivots on a ±1 entry of least
    Markowitz cost (row nonzeros − 1)·(column nonzeros − 1), which limits
    fill-in (Markowitz, Management Science 3, 1957; unit pivots first as in
    Dumas, Saunders and Villard, J. Symb. Comput. 32, 2001).  Row
    operations clear the pivot's column; column operations would then
    clear its row without touching any other row, so a unit pivot adds one
    1 to the diagonal and its row and column are dropped.  When no ±1
    entry is left, the dense ``smith_normal_form`` finishes the remainder
    by extended-gcd steps.
    A Laplacian's entries off the diagonal are mostly −1, so its remainder
    is small.

    The search does not rescan the matrix (Markowitz's search order and
    stopping bound).  Live rows and unpivoted columns sit in buckets keyed
    by their nonzero count, and the elimination moves only what it writes:
    the rows holding the pivot column and the columns of the pivot row.
    The search takes levels k = 1, 2, ...: the rows with k nonzeros, then
    the columns with k nonzeros, each in increasing index order, costing
    every ±1 entry they hold.  An entry not yet costed lies in a row and a
    column with at least k nonzeros, so it costs at least (k − 1)²; the
    search stops, after any row or column, once the best cost found is at
    most that.  The pivot is thus a ±1 entry of least cost; among the
    entries costed, ties go to the least row, then the least column.

    >>> smith_diagonal([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]])
    (1, 3, 0)
    """
    nc = len(rows[0]) if rows else 0
    if any(len(r) != nc for r in rows):
        raise ValueError("ragged matrix")
    return _sparse_smith_diagonal([{j: int(x) for j, x in enumerate(r) if x} for r in rows], nc)


def _sparse_smith_diagonal(rows: list[dict[int, int]], nc: int) -> tuple[int, ...]:
    """``smith_diagonal`` of the matrix whose row i is {column: nonzero entry}
    in ``rows[i]``, with ``nc`` columns; the dicts are consumed."""
    live = dict(enumerate(rows))
    holders: list[set[int]] = [set() for _ in range(nc)]  # column -> rows with a nonzero
    for i, row in live.items():
        for j in row:
            holders[j].add(i)
    # only the counts that occur get a set: a set for every possible count,
    # made on each call, let peak RSS creep up over repeated calls
    row_bucket: defaultdict[int, set[int]] = defaultdict(set)  # nonzero count -> live rows
    col_bucket: defaultdict[int, set[int]] = defaultdict(set)  # nonzero count -> unpivoted columns
    for i, row in live.items():
        row_bucket[len(row)].add(i)
    for j, rows_j in enumerate(holders):
        col_bucket[len(rows_j)].add(j)
    top = max(len(rows), nc)  # no row or column has more nonzeros
    units = 0
    while (pivot := _unit_pivot(live, holders, row_bucket, col_bucket, top)) is not None:
        r, c = pivot
        pivot_row = live.pop(r)
        row_bucket[len(pivot_row)].discard(r)
        targets = holders[c]
        col_bucket[len(targets)].discard(c)
        targets.discard(r)
        p = pivot_row.pop(c)
        counts = {}
        for j in pivot_row:
            rows_j = holders[j]
            counts[j] = len(rows_j)
            rows_j.discard(r)
        for i in targets:
            row = live[i]
            row_bucket[len(row)].discard(i)
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
            row_bucket[len(row)].add(i)
        for j, before in counts.items():
            after = len(holders[j])
            if after != before:
                col_bucket[before].discard(j)
                col_bucket[after].add(j)
        units += 1
    cols = sorted(j for bucket in col_bucket.values() for j in bucket)
    rest = [[row.get(j, 0) for j in cols] for row in live.values()]
    return (1,) * units + smith_normal_form(rest)


def _unit_pivot(live, holders, row_bucket, col_bucket, top) -> tuple[int, int] | None:
    """(row, column) of a ±1 entry of least Markowitz cost, or None when
    there is none; the bounded bucket search of ``smith_diagonal``."""
    best = None
    best_cost = top * top  # above every cost
    for k in range(1, top + 1):
        bound = (k - 1) * (k - 1)
        if best_cost <= bound:
            return best
        width = k - 1
        if rows_k := row_bucket.get(k):
            for i in sorted(rows_k):
                for j, x in live[i].items():
                    if x == 1 or x == -1:
                        cost = width * (len(holders[j]) - 1)
                        if cost < best_cost or cost == best_cost and (i, j) < best:
                            best, best_cost = (i, j), cost
                if best_cost <= bound:
                    return best
        if cols_k := col_bucket.get(k):
            for j in sorted(cols_k):
                for i in holders[j]:
                    x = live[i][j]
                    if x == 1 or x == -1:
                        cost = (len(live[i]) - 1) * width
                        if cost < best_cost or cost == best_cost and (i, j) < best:
                            best, best_cost = (i, j), cost
                if best_cost <= bound:
                    return best
    return best


def det_over_ring(rows: list, lengths: list[int]) -> UniPoly:
    """det(I - diag(s^l) B) in Z[zeta_m][s], for a square scalar matrix B.

    A row of B lists its n entries, or is a dict {column: entry} (later
    passes walk nonzeros only).  Entries are ints or CycInts of one
    conductor m; any other entry (a UniPoly, a MultiPoly or a Fraction, say)
    raises TypeError.  ``lengths`` gives l_i >= 1 for each row i.  The
    coefficients of the result are CycInts when some entry is one, else
    ints.  The empty matrix has determinant 1.

    >>> det_over_ring([[0, 1], [1, 0]], [1, 1])
    UniPoly((1, 0, -1))

    Multimodular: for primes p ≡ 1 (mod m) and each k prime to m,
    zeta -> omega^k (omega a primitive m-th root of unity mod p) maps the
    matrix to F_p[s].  The determinant is the reversed characteristic
    polynomial of an N x N unit-step matrix, N = sum l_i, from one Hessenberg
    reduction when N^3 <= (N + 1) n^3; otherwise Gaussian elimination at
    s = 0..d and interpolation give it.  One inverted Vandermonde in the
    omega^k recovers the power-basis coefficients mod p.  The primes, one
    below 2^30 or else several below 2^60 (``modular.split_primes``), are
    combined by CRT with symmetric lift once their product exceeds 2B.

    The degree in s is at most d = min(sum of row max degrees, sum of column
    max degrees) of I - diag(s^l) B.  The bound B = c_m * min(prod of row
    l1, prod of column l1) holds for every power-basis coefficient of every
    s-coefficient: the l1 norm of an entry sums |power-basis coefficient|
    over its s-coefficients (1 + l1(B_ii) on the diagonal), and c_m is the
    largest |coefficient| of a power zeta^b on the power basis (2 at
    m = 105).  Lifted to Z[x][s] (zeta -> x), the determinant has l1 norm at
    most the permanent of the l1 norms, which is at most either product;
    folding x^m = 1 does not raise it, and then each x^b with b < m
    contributes at most c_m times its coefficient.

    The result is checked modulo the last prime of ``split_primes``, unused
    above, against an F_p determinant at one point; a mismatch raises
    AssertionError, also under ``python -O``.
    """
    n = len(rows)
    if len(lengths) != n or any(l < 1 for l in lengths):
        raise ValueError(f"need a length of at least 1 for each of the {n} rows")
    entries, conductors = [], set()  # {column: entry} of the nonzero entries of B
    for r in rows:
        if not isinstance(r, dict) and len(r) != n:
            raise ValueError("matrix is not square")
        row = {}
        for j, x in r.items() if isinstance(r, dict) else enumerate(r):
            if not 0 <= j < n:
                raise ValueError(f"column {j} is outside a {n} x {n} matrix")
            if isinstance(x, CycInt):
                conductors.add(x.conductor)
            elif not isinstance(x, int):
                raise TypeError("entries must be ints or CycInts")
            if x:
                row[j] = x
        entries.append(row)
    if len(conductors) > 1:
        raise ValueError(f"CycInt entries of conductors {sorted(conductors)}")
    m = min(conductors, default=1)
    coords = _det_coordinates(entries, lengths, m)
    return UniPoly([CycInt(m, c) if conductors else c[0] for c in coords])


@cache
def _root_height(m: int) -> int:
    """c_m: the largest |power-basis coefficient| of a power of zeta_m."""
    return max(max(map(abs, CycInt.root(m, b).coeffs)) for b in range(m))


def _det_bound(entries, m: int) -> int:
    """B: no power-basis coefficient of the determinant exceeds it in size.

    entries[i] maps each column j of a nonzero B_ij to B_ij.  For m = 1 the
    determinant f(s) is an integer polynomial and Hadamard's bound at
    |s| = 1 also holds: a coefficient of f is at most max_{|s|=1} |f(s)|
    (Cauchy's estimate), and there |a_ij(s)| <= l1(a_ij), so
    |f(s)| <= prod_i (sum_j l1(a_ij)^2)^(1/2), and the same over columns.
    """
    norms = []
    for i, r in enumerate(entries):
        row = {j: l1(x) for j, x in r.items()}
        row[i] = row.get(i, 0) + 1  # the 1 of I
        norms.append(row)
    col_sums, col_squares = [0] * len(entries), [0] * len(entries)
    for r in norms:
        for j, x in r.items():
            col_sums[j] += x
            col_squares[j] += x * x
    rows, cols = prod(sum(r.values()) for r in norms), prod(col_sums)
    if m > 1:
        return _root_height(m) * min(rows, cols)
    # one ceiling over the whole product: a ceiling per row costs up to sqrt(2) a row
    hadamard_rows = _ceil_sqrt(prod(sum(x * x for x in r.values()) for r in norms))
    return min(rows, cols, hadamard_rows, _ceil_sqrt(prod(col_squares)))


def _ceil_sqrt(n: int) -> int:
    return isqrt(n - 1) + 1 if n else 0


def _det_coordinates(entries, lengths: list[int], m: int) -> list[tuple[int, ...]]:
    """The s-coefficients of det(I - diag(s^l) B) as power-basis
    coordinates, trimmed; entries[i] maps each column j of a nonzero B_ij
    to B_ij (an int or a CycInt)."""
    n = len(entries)
    col_degrees = [0] * n
    for r, l in zip(entries, lengths):
        for j in r:
            col_degrees[j] = max(col_degrees[j], l)
    d = min(sum(l for r, l in zip(entries, lengths) if r), sum(col_degrees))
    steps = sum(lengths)
    # the unit-step matrix, unless it would cost more than d + 1 eliminations
    hessenberg = steps ** 3 <= (steps + 1) * n ** 3
    phi = euler_phi(m)
    *primes, extra = split_primes(m, _det_bound(entries, m))
    modulus, acc = 1, [0] * ((d + 1) * phi)
    for p in primes:
        # per map zeta -> omega^k, the determinant's s-coefficients mod p
        images = []
        for k in galois_exponents(m):
            terms = _images(entries, p, pow(root_of_unity(m, p), k, p))
            images.append(_unit_step_charpoly(terms, lengths, p)[:d + 1] if hessenberg else
                          _interpolate([det_mod(_at(terms, lengths, t, p), p)
                                        for t in range(d + 1)], p))
        solver = power_basis_solver(m, p)
        residues = [sum(a * b for a, b in zip(w, by_k)) % p
                    for by_k in zip(*images) for w in solver]
        inverse = pow(modulus, -1, p)
        acc = [a + modulus * ((r - a) * inverse % p) for a, r in zip(acc, residues)]
        modulus *= p
    half = modulus // 2
    acc = [a - modulus if a > half else a for a in acc]
    coords = [tuple(acc[k * phi:(k + 1) * phi]) for k in range(d + 1)]
    _check_extra_prime(entries, lengths, m, coords, extra, d + 1)
    while not any(coords[-1]):  # the constant term is 1
        coords.pop()
    return coords


def _unit_step_charpoly(terms, lengths: list[int], p: int) -> list[int]:
    """det(I - diag(s^l_i) B) mod p, ascending, as det(I - sT) (Hashimoto,
    Adv. Stud. Pure Math. 15, 1989): row i of B becomes a chain of l_i >= 1
    unit steps in T, and the last carries row i of B.  T is built
    transposed, with its chains on the subdiagonal."""
    first = [0, *accumulate(lengths)]
    t = [[0] * first[-1] for _ in range(first[-1])]
    for a in set(range(1, first[-1])).difference(first):  # every state but a chain's first
        t[a][a - 1] = 1
    for i, j, b in terms:
        t[first[j]][first[i + 1] - 1] = b
    return charpoly_mod(t, p)[::-1]


def _check_extra_prime(entries, lengths, m: int, coords, p: int, point: int) -> None:
    """Compare the determinant with an F_p determinant at s = point, zeta -> omega."""
    omega = root_of_unity(m, p)
    expected = det_mod(_at(_images(entries, p, omega), lengths, point, p), p)
    got = evaluate_mod([evaluate_mod(c, omega, p) for c in coords], point, p)
    if got != expected:
        raise AssertionError("multimodular determinant disagrees modulo an extra prime")


def _images(entries, p: int, omega: int) -> list[tuple[int, int, int]]:
    """(i, j, B_ij mod p) of each nonzero entry under zeta -> omega."""
    return [(i, j, to_residue(x, omega, p)) for i, r in enumerate(entries) for j, x in r.items()]


def _at(terms, lengths: list[int], t: int, p: int) -> list[list[int]]:
    """I - diag(t^l) B over F_p, from the images of B."""
    n = len(lengths)
    scale = [pow(t, l, p) for l in lengths]
    out = [[int(i == j) for j in range(n)] for i in range(n)]
    for i, j, b in terms:
        out[i][j] = (out[i][j] - scale[i] * b) % p
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
