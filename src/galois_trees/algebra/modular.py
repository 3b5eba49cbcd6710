"""Cyclotomic integers modulo primes that split completely.

A prime p with p ≡ 1 (mod m) splits completely in Q(zeta_m): F_p holds a
primitive m-th root of unity omega, and for every k prime to m,
zeta -> omega^k is a ring map Z[zeta_m] -> F_p.  The phi(m) maps differ by
the Galois automorphisms sigma_k, and together they determine an element of
Z[zeta_m] modulo p: its images are the values of its power-basis polynomial
at the phi(m) distinct points omega^k, a Vandermonde system.  Roots for
several such primes combine by CRT into one omega modulo their product M,
and zeta -> omega is then a ring map Z[zeta_m] -> Z/M.

Primes fit CPython's 30-bit digits: ``split_primes`` takes one below 2^30
when it can, else primes below 2^60 (two digits); they are searched
downwards and cached per conductor, nothing at import.
``intmat.det_over_ring`` takes det(I - diag(s^l) B) over Z[zeta_m][s] prime
by prime under every map zeta -> omega^k, and ``verify.assemble_rhs``
multiplies the weight polynomials modulo one product M of primes
(``split_modulus``, ``product_bound``, ``mul_mod``, ``value_mod``) with
monomials packed by ``PackedKeys``, the one layout that
``graphs.tree_sweep`` also counts tree complements in.
"""

from __future__ import annotations

from functools import cache
from math import gcd, prod
from typing import Iterable, Mapping

from .cyclotomic import CycInt, euler_phi
from .multipoly import MultiPoly

PRIME_LIMIT = 1 << 60  # two 30-bit CPython digits
SMALL_PRIME_LIMIT = 1 << 30  # one digit

# Miller-Rabin with these bases is a proof of primality below 3.3 * 10^24
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n below 3.3 * 10^24.

    >>> [n for n in range(30) if is_prime(n)]
    [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    >>> is_prime(2**61 - 1), is_prime(2**62 - 1)
    (True, False)
    """
    if n < 2:
        return False
    for q in _WITNESSES:
        if n % q == 0:
            return n == q
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@cache
def split_prime(m: int, index: int, limit: int = PRIME_LIMIT) -> int:
    """The index-th largest prime p ≡ 1 (mod m) with limit / 2 < p < limit,
    from 0; ValueError when there are fewer.

    >>> p = split_prime(105, 0)
    >>> p % 105, p < 2**60 < 2 * p, is_prime(p)
    (1, True, True)
    >>> split_prime(105, 1) < p, split_prime(105, 0, SMALL_PRIME_LIMIT) < 2**30
    (True, True)
    """
    if m < 1:
        raise ValueError("conductor must be a positive integer")
    step = m if m % 2 == 0 else 2 * m  # p - 1 is even and divisible by m
    if index:
        candidate = split_prime(m, index - 1, limit) - step
    else:
        candidate = (limit - 2) // step * step + 1
    while candidate > limit // 2:
        if is_prime(candidate):
            return candidate
        candidate -= step
    raise ValueError(f"fewer than {index + 1} primes 1 mod {m} in ({limit // 2}, {limit})")


def split_primes(m: int, bound: int) -> list[int]:
    """Split primes whose product M exceeds 2 * bound, then one more for a
    check: one below 2^30 when it alone exceeds 2 * bound, else the fewest
    below 2^60 (one at least).  |c| <= bound is the symmetric lift of c mod M.

    >>> split_primes(12, 2**28) == [split_prime(12, i, SMALL_PRIME_LIMIT) for i in (0, 1)]
    True
    >>> split_primes(12, 2**70) == [split_prime(12, i) for i in (0, 1, 2)]
    True
    """
    if 2 * bound < SMALL_PRIME_LIMIT:
        try:
            small = [split_prime(m, i, SMALL_PRIME_LIMIT) for i in (0, 1)]
            if small[0] > 2 * bound:
                return small
        except ValueError:  # fewer than two such primes: conductors near 2^29
            pass
    primes, modulus = [], 1
    while not primes or modulus <= 2 * bound:
        primes.append(split_prime(m, len(primes)))
        modulus *= primes[-1]
    return primes + [split_prime(m, len(primes))]


def _prime_factors(n: int) -> list[int]:
    out, q = [], 2
    while q * q <= n:
        if n % q == 0:
            out.append(q)
            while n % q == 0:
                n //= q
        q += 1
    return out + ([n] if n > 1 else [])


@cache
def root_of_unity(m: int, p: int) -> int:
    """A primitive m-th root of unity modulo the prime p ≡ 1 (mod m).

    >>> p = split_prime(12, 0)
    >>> w = root_of_unity(12, p)
    >>> [k for k in range(1, 13) if pow(w, k, p) == 1]
    [12]
    """
    if (p - 1) % m:
        raise ValueError(f"{p} is not 1 modulo {m}")
    factors = _prime_factors(m)
    for a in range(1, p):
        w = pow(a, (p - 1) // m, p)
        if all(pow(w, m // q, p) != 1 for q in factors):
            return w
    raise ValueError(f"{p} is not a prime")


def galois_exponents(m: int) -> tuple[int, ...]:
    """The k in 1..m prime to m: one ring map zeta -> omega^k for each.

    >>> galois_exponents(12), galois_exponents(1)
    ((1, 5, 7, 11), (1,))
    """
    return tuple(k for k in range(1, m + 1) if gcd(k, m) == 1)


def to_residue(value: CycInt | int, omega: int, modulus: int) -> int:
    """The image of a cyclotomic integer under zeta -> omega, reduced mod modulus.

    >>> p = split_prime(5, 0)
    >>> w, z = root_of_unity(5, p), CycInt.root(5, 1)
    >>> to_residue(z, w, p) == w, to_residue(sum(z.galois(k) for k in range(1, 5)), w, p) == p - 1
    (True, True)
    >>> to_residue(z * z.galois(2), w, p) == pow(w, 3, p)
    True
    """
    if isinstance(value, int):
        return value % modulus
    return evaluate_mod(value.coeffs, omega, modulus)


def evaluate_mod(coeffs, x: int, p: int) -> int:
    """The polynomial with ascending integer coefficients at x, mod p (Horner).

    >>> evaluate_mod([1, 2, 3], 10, 1000)
    321
    """
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % p
    return acc


@cache
def power_basis_solver(m: int, p: int) -> tuple[tuple[int, ...], ...]:
    """The inverse mod p of the Vandermonde matrix (omega^(k i)), k prime to m.

    Applied to the images of an element under the phi(m) maps zeta -> omega^k,
    k in ``galois_exponents(m)`` order, it gives back the element's
    power-basis coefficients mod p.

    >>> p = split_prime(8, 0)
    >>> z = CycInt.root(8, 3) + 7
    >>> w = root_of_unity(8, p)
    >>> images = [to_residue(z, pow(w, k, p), p) for k in galois_exponents(8)]
    >>> [sum(r * v for r, v in zip(row, images)) % p for row in power_basis_solver(8, p)]
    [7, 0, 0, 1]
    """
    w = root_of_unity(m, p)
    phi = euler_phi(m)
    a = [[pow(w, k * i, p) for i in range(phi)] + [int(r == j) for j in range(phi)]
         for r, k in enumerate(galois_exponents(m))]
    for col in range(phi):
        pivot = next(i for i in range(col, phi) if a[i][col])
        a[col], a[pivot] = a[pivot], a[col]
        inv = pow(a[col][col], -1, p)
        a[col] = [x * inv % p for x in a[col]]
        for i in range(phi):
            f = a[i][col]
            if i != col and f:
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[col])]
    return tuple(tuple(row[phi:]) for row in a)


def det_mod(rows: list[list[int]], p: int) -> int:
    """Determinant over F_p by Gaussian elimination; rows must be reduced mod p.

    The rows are overwritten.  Row operations touch only the nonzero
    columns of the pivot row, which pays on sparse matrices such as the
    edge matrices of graph zeta functions.

    >>> det_mod([[2, 1], [1, 2]], 7), det_mod([[0, 1], [1, 0]], 7), det_mod([[3, 6], [1, 2]], 7)
    (3, 6, 0)
    """
    n = len(rows)
    det = 1
    for k in range(n):
        pivot = next((i for i in range(k, n) if rows[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            rows[k], rows[pivot] = rows[pivot], rows[k]
            det = -det
        head = rows[k]
        det = det * head[k] % p
        inv = pow(head[k], -1, p)
        tail = [(j, head[j] * inv % p) for j in range(k + 1, n) if head[j]]
        for row in rows[k + 1:]:
            f = row[k]
            if f:
                for j, y in tail:
                    row[j] = (row[j] - f * y) % p
    return det % p


def charpoly_mod(rows: list[list[int]], p: int) -> list[int]:
    """det(tI - A) over F_p, ascending coefficients; rows must be reduced mod p.

    The rows are overwritten.  Eliminating below the subdiagonal, each row
    operation followed by the inverse column operation, takes A to a similar
    upper Hessenberg H, and det(tI - H) is expanded along its last column,
    one leading minor after another (Cohen, GTM 138, Alg. 2.2.9): O(n^3).

    >>> charpoly_mod([[2, 1], [1, 2]], 7), charpoly_mod([[0, 0, 1], [1, 0, 0], [0, 1, 0]], 7)
    ([3, 3, 1], [6, 0, 0, 1])
    """
    n = len(rows)
    for k in range(n - 2):
        pivot = next((i for i in range(k + 1, n) if rows[i][k]), None)
        if pivot is None:
            continue
        if pivot != k + 1:
            rows[k + 1], rows[pivot] = rows[pivot], rows[k + 1]
            for row in rows:
                row[k + 1], row[pivot] = row[pivot], row[k + 1]
        inv = pow(rows[k + 1][k], -1, p)
        factors = [(i, rows[i][k] * inv % p) for i in range(k + 2, n) if rows[i][k]]
        if not factors:  # column k is clear below the subdiagonal already
            continue
        tail = [(j, x) for j in range(k, n) if (x := rows[k + 1][j])]
        for i, u in factors:  # row i loses u times row k + 1 ...
            row = rows[i]
            for j, x in tail:
                row[j] = (row[j] - u * x) % p
        for i, u in factors:  # ... and column k + 1 gains u times column i
            for row in rows:
                if x := row[i]:
                    row[k + 1] += u * x
        for row in rows:
            row[k + 1] %= p
    minors = [[1]]  # det(tI - H) of the leading m x m block, for m = 0..n
    for m in range(n):
        out, chain = [0] + minors[m], 1
        for i in range(m, -1, -1):  # chain = H[m][m-1] H[m-1][m-2] ... H[i+1][i]
            if f := rows[i][m] * chain % p:
                for j, x in enumerate(minors[i]):
                    out[j] -= f * x
            if not (chain := chain * rows[i][i - 1] % p):
                break  # every later term has this factor
        minors.append([x % p for x in out])
    return minors[n]


def split_modulus(m: int, bound: int) -> tuple[int, int, list[int]]:
    """(M, omega, primes): ``primes`` is ``split_primes(m, bound)``, M is the
    product of all of them but the last, and omega is root_of_unity(m, p)
    modulo each p dividing M (CRT), so zeta -> omega is a ring map
    Z[zeta_m] -> Z/M.

    An integer c with |c| <= bound is then the symmetric lift of c mod M.

    >>> M, w, primes = split_modulus(12, 2**70)
    >>> len(primes), M == split_prime(12, 0) * split_prime(12, 1), split_modulus(12, 0)[0] < 2**30
    (3, True, True)
    >>> pow(w, 12, M), w % split_prime(12, 1) == root_of_unity(12, split_prime(12, 1))
    (1, True)
    """
    modulus, omega = 1, 0
    primes = split_primes(m, bound)
    for p in primes[:-1]:
        omega += modulus * ((root_of_unity(m, p) - omega) * pow(modulus, -1, p) % p)
        modulus *= p
    return modulus, omega, primes


def l1(c: CycInt | int) -> int:
    """The sum of |power-basis coefficient| of c: |sigma(c)| <= l1(c) in every
    complex embedding sigma, since every power of zeta has absolute value 1.

    >>> l1(CycInt.root(3, 1) - 2), l1(-4)
    (3, 4)
    """
    return sum(map(abs, c.coeffs)) if isinstance(c, CycInt) else abs(c)


def product_bound(scale: int, factors: Iterable[MultiPoly]) -> int:
    """B = |scale| times the l1 norms of the factors: no coefficient of the
    product exceeds it in size in any complex embedding of Z[zeta_m].

    The l1 norm of a polynomial sums l1 over its coefficients, and
    l1(f g) <= l1(f) l1(g).  So when the product has integer coefficients,
    they are at most B.

    >>> x = MultiPoly.variable("x")
    >>> product_bound(2, [x * CycInt.root(3, 1) - 2, x + 1])
    12
    """
    return abs(scale) * prod(sum(map(l1, f.terms.values())) for f in factors)


class PackedKeys:
    """Monomials as ints, one bit field per variable, wide enough for its
    largest exponent: adding keys within those bounds never carries, and
    subtracting a ``unit`` lowers one exponent by one.  The one layout of
    packed monomials: ``graphs.tree_sweep`` counts tree complements as keys,
    ``jacobians.labeled_jacobian_polynomial`` unpacks them, and
    ``verify.assemble_rhs`` multiplies the right-hand side's factors.

    >>> x, y = MultiPoly.variable("x"), MultiPoly.variable("y")
    >>> f, g = x * x + 3 * y, x * y
    >>> keys = PackedKeys({"x": 3, "y": 2})
    >>> keys.unpack(mul_mod(keys.residues(f, 1, 97), keys.residues(g, 1, 97), 97)) == f * g
    True
    """

    def __init__(self, largest: Mapping[str, int]):
        self.unit: dict[str, int] = {}
        self.fields: list[tuple[str, int, int]] = []  # (variable, shift, mask)
        at = 0
        for v in sorted(largest):
            width = largest[v].bit_length()
            self.unit[v] = 1 << at
            self.fields.append((v, at, (1 << width) - 1))
            at += width

    def residues(self, poly: MultiPoly, omega: int, modulus: int) -> dict[int, int]:
        """poly under zeta -> omega, coefficients mod modulus, keys packed."""
        out = {}
        for mono, c in poly.terms.items():
            if r := to_residue(c, omega, modulus):
                out[sum(e * self.unit[v] for v, e in mono)] = r
        return out

    def unpack(self, terms: dict[int, int]) -> MultiPoly:
        """The MultiPoly with these packed monomials and coefficients."""
        return MultiPoly({
            tuple([(v, e) for v, at, mask in self.fields if (e := key >> at & mask)]): c
            for key, c in terms.items()
        })


def mul_mod(a: dict[int, int], b: dict[int, int], modulus: int) -> dict[int, int]:
    """The product of two packed polynomials, coefficients reduced mod modulus."""
    out: dict[int, int] = {}
    get = out.get
    for ka, ca in a.items():
        for kb, cb in b.items():
            k = ka + kb
            out[k] = get(k, 0) + ca * cb
    return {k: r for k, c in out.items() if (r := c % modulus)}


def value_mod(terms: dict[int, int], base: int, modulus: int) -> int:
    """Packed monomials with integer coefficients, mod modulus, at the point
    x_v = base^unit_v: a key is the sum of e_v unit_v, so its monomial is
    base^key there, one pow per term.  Keys add as monomials multiply, so
    this is a ring map whatever the layout.

    >>> keys = PackedKeys({"x": 3, "y": 2})
    >>> terms = {2 * keys.unit["x"] + keys.unit["y"]: -4, 0: 1}  # 1 - 4 x^2 y
    >>> x, y = (pow(5, keys.unit[v], 97) for v in "xy")
    >>> value_mod(terms, 5, 97) == (1 - 4 * x * x * y) % 97
    True
    """
    return sum(c * pow(base, k, modulus) for k, c in terms.items()) % modulus
