"""Cyclotomic integers modulo primes that split completely.

A prime p with p ≡ 1 (mod m) splits completely in Q(zeta_m): F_p holds a
primitive m-th root of unity omega, and for every k prime to m,
zeta -> omega^k is a ring map Z[zeta_m] -> F_p.  The phi(m) maps differ by
the Galois automorphisms sigma_k, and together they determine an element of
Z[zeta_m] modulo p: its images are the values of its power-basis polynomial
at the phi(m) distinct points omega^k, a Vandermonde system.

Primes are searched downwards from 2^62 and cached per conductor, so that
multimodular algorithms over Z[zeta_m] can ask for the i-th one; nothing
is computed at import.
"""

from __future__ import annotations

from functools import cache
from math import gcd

from .cyclotomic import CycInt, euler_phi

PRIME_LIMIT = 1 << 62

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
def split_prime(m: int, index: int) -> int:
    """The index-th largest prime p < 2^62 with p ≡ 1 (mod m), from 0.

    >>> p = split_prime(105, 0)
    >>> p % 105, p < 2**62 < 2 * p, is_prime(p)
    (1, True, True)
    >>> split_prime(105, 1) < p
    True
    """
    if m < 1:
        raise ValueError("conductor must be a positive integer")
    step = m if m % 2 == 0 else 2 * m  # p - 1 is even and divisible by m
    if index:
        candidate = split_prime(m, index - 1) - step
    else:
        candidate = (PRIME_LIMIT - 2) // step * step + 1
    while not is_prime(candidate):
        candidate -= step
    return candidate


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


def to_residue(value: CycInt | int, p: int, k: int = 1) -> int:
    """The image of a cyclotomic integer under zeta -> omega^k in F_p.

    >>> p = split_prime(5, 0)
    >>> z = CycInt.root(5, 1)
    >>> to_residue(z, p) == root_of_unity(5, p)
    True
    >>> to_residue(sum(z.galois(k) for k in range(1, 5)), p) == p - 1
    True
    >>> to_residue(z * z.galois(2), p, 3) == to_residue(z, p, 3) * to_residue(z, p, 6) % p
    True
    """
    if isinstance(value, int):
        return value % p
    return evaluate_mod(value.coeffs, pow(root_of_unity(value.conductor, p), k, p), p)


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
    >>> images = [to_residue(z, p, k) for k in galois_exponents(8)]
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
