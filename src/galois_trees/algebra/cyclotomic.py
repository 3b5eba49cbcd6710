"""Exact arithmetic in rings of cyclotomic integers Z[zeta_m].

A value is a residue of an integer polynomial in zeta_m modulo the m-th
cyclotomic polynomial, stored as a coefficient tuple on the power basis
1, zeta, ..., zeta^(phi(m)-1).  All arithmetic is exact; a floating-point
embedding into the complex numbers is provided for display and sanity
checks only.

The Galois automorphisms sigma_k: zeta -> zeta^k (k prime to m) act on
values directly.  Exact division by a non-integer b goes through the norm:
with b' the product of the other conjugates sigma_k(b), N(b) = b b' is a
rational integer, so a / b = a b' / N(b) needs only ring multiplications
and one coefficient-wise integer division.
"""

from __future__ import annotations

import cmath
from functools import cache
from math import gcd

from ..errors import ExactDivisionError


def _dense_div_exact(num, den):
    """Divide integer polynomials (ascending dense lists), den monic, exactly."""
    num = list(num)
    dd = len(den) - 1
    if len(num) - 1 < dd:
        if any(num):
            raise ExactDivisionError("polynomial division is not exact")
        return [0]
    quot = [0] * (len(num) - dd)
    for i in reversed(range(len(quot))):
        c = num[i + dd]
        if c:
            quot[i] = c
            for j, p in enumerate(den):
                num[i + j] -= c * p
    if any(num):
        raise ExactDivisionError("polynomial division is not exact")
    return quot


@cache
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Coefficients (ascending) of the m-th cyclotomic polynomial.

    >>> cyclotomic_polynomial(1)
    (-1, 1)
    >>> cyclotomic_polynomial(6)
    (1, -1, 1)
    """
    if m < 1:
        raise ValueError("conductor must be a positive integer")
    poly = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            poly = _dense_div_exact(poly, cyclotomic_polynomial(d))
    return tuple(poly)


def euler_phi(m: int) -> int:
    return len(cyclotomic_polynomial(m)) - 1


@cache
def _power_table(m: int) -> tuple[int, tuple]:
    """phi(m), and the nonzero (index, coefficient) pairs of zeta_m^i on the
    power basis for i < m: each row is the last times zeta, modulo Phi_m."""
    phi = cyclotomic_polynomial(m)
    deg = len(phi) - 1
    rows, power = [], [1] + [0] * (deg - 1)
    for _ in range(m):
        rows.append(tuple((j, c) for j, c in enumerate(power) if c))
        top = power.pop()
        power = [0] + power
        if top:
            power = [p - top * q for p, q in zip(power, phi)]
    return deg, tuple(rows)


def _reduce(m: int, dense) -> tuple[int, ...]:
    """Reduce an integer polynomial in zeta_m to the power basis: one of
    degree below phi(m) is only padded, and each coefficient above adds in
    the ``_power_table`` row of zeta^(i mod m)."""
    deg, rows = _power_table(m)
    if len(dense) <= deg:
        return tuple(dense) + (0,) * (deg - len(dense))
    out = list(dense[:deg])
    for i in range(deg, len(dense)):
        c = dense[i]
        if c:
            for j, r in rows[i % m]:
                out[j] += c * r
    return tuple(out)


class CycInt:
    """An element of Z[zeta_m], reduced modulo the m-th cyclotomic polynomial."""

    __slots__ = ("conductor", "coeffs")

    def __init__(self, conductor: int, coeffs):
        object.__setattr__(self, "conductor", conductor)
        object.__setattr__(self, "coeffs", _reduce(conductor, tuple(coeffs)))

    def __setattr__(self, name, value):
        raise AttributeError("CycInt values are immutable")

    @staticmethod
    def from_int(m: int, n: int) -> CycInt:
        return CycInt(m, (n,))

    @staticmethod
    def root(m: int, power: int) -> CycInt:
        """zeta_m^power.

        >>> CycInt.root(4, 2).as_int()
        -1
        """
        dense = [0] * m
        dense[power % m] = 1
        return CycInt(m, dense)

    # -- coercion -------------------------------------------------------

    def _pair(self, other):
        if isinstance(other, int):
            return self, CycInt.from_int(self.conductor, other)
        if isinstance(other, CycInt):
            if other.conductor == self.conductor:
                return self, other
            a, b = self.as_int(), other.as_int()
            if b is not None:
                return self, CycInt.from_int(self.conductor, b)
            if a is not None:
                return CycInt.from_int(other.conductor, a), other
            raise ValueError(
                f"conductor mismatch: {self.conductor} vs {other.conductor}"
            )
        return NotImplemented, None

    # -- ring operations ------------------------------------------------

    def __add__(self, other):
        a, b = self._pair(other)
        if a is NotImplemented:
            return NotImplemented
        return CycInt(a.conductor, tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return CycInt(self.conductor, tuple(-x for x in self.coeffs))

    def __sub__(self, other):
        a, b = self._pair(other)
        if a is NotImplemented:
            return NotImplemented
        return a + (-b)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        a, b = self._pair(other)
        if a is NotImplemented:
            return NotImplemented
        n1, n2 = len(a.coeffs), len(b.coeffs)
        prod = [0] * (n1 + n2 - 1 if n1 and n2 else 1)
        for i, x in enumerate(a.coeffs):
            if x:
                for j, y in enumerate(b.coeffs):
                    if y:
                        prod[i + j] += x * y
        return CycInt(a.conductor, prod)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        return ring_power(self, n, CycInt.from_int(self.conductor, 1))

    def __bool__(self):
        return any(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, (int, CycInt)):
            a, b = self._pair(other)
            return a.coeffs == b.coeffs
        return NotImplemented

    def __hash__(self):
        n = self.as_int()
        if n is not None:
            return hash(n)
        return hash((self.conductor, self.coeffs))

    # -- structure ------------------------------------------------------

    def galois(self, k: int) -> CycInt:
        """The automorphism sigma_k: zeta -> zeta^k, for k prime to the conductor.

        >>> z = CycInt.root(5, 1)
        >>> z.galois(2) == CycInt.root(5, 2)
        True
        >>> sum(z.galois(k) for k in range(1, 5)).as_int()
        -1
        """
        m = self.conductor
        if gcd(k, m) != 1:
            raise ValueError(f"zeta -> zeta^{k} is not an automorphism of Z[zeta_{m}]")
        dense = [0] * m
        for i, c in enumerate(self.coeffs):
            dense[(i * k) % m] += c
        return CycInt(m, dense)

    def conj(self) -> CycInt:
        """The automorphism zeta -> zeta^(-1); fixes rational values."""
        return self.galois(-1)

    def as_int(self) -> int | None:
        """The rational integer this value equals, or None."""
        if any(self.coeffs[1:]):
            return None
        return self.coeffs[0] if self.coeffs else 0

    def embed(self) -> complex:
        z = cmath.exp(2j * cmath.pi / self.conductor)
        return sum(c * z**i for i, c in enumerate(self.coeffs)) if self.coeffs else 0j

    def exact_div(self, other) -> CycInt:
        """Exact division in Z[zeta_m]; raises ExactDivisionError otherwise."""
        a, b = self._pair(other)
        if a is NotImplemented:
            raise TypeError("divisor must be an int or a CycInt")
        if not b:
            raise ZeroDivisionError("division by zero in Z[zeta]")
        n = b.as_int()
        if n is not None:
            out = []
            for c in a.coeffs:
                q, r = divmod(c, n)
                if r:
                    raise ExactDivisionError(
                        f"{a!r} is not divisible by {n}", remainder=r
                    )
                out.append(q)
            return CycInt(a.conductor, out)
        # a / b = a b' / N(b), with b' the product of the other conjugates of b
        m = a.conductor
        others = CycInt.from_int(m, 1)
        for k in range(2, m):
            if gcd(k, m) == 1:
                others = others * b.galois(k)
        norm = (b * others).as_int()
        num = a * others
        if any(c % norm for c in num.coeffs):
            raise ExactDivisionError(
                f"{a!r} is not divisible by {b!r} in Z[zeta]", remainder=a
            )
        return CycInt(m, [c // norm for c in num.coeffs])

    def to_jsonable(self) -> dict:
        """{"conductor", "coeffs", "embedding"}: the real part of the embedding to 12 digits."""
        return {
            "conductor": self.conductor,
            "coeffs": list(self.coeffs),
            "embedding": f"{self.embed().real:.12g}",
        }

    def __repr__(self):
        return f"CycInt({self.conductor}, {self.coeffs})"


def ring_power(base, n: int, one):
    """base ** n for n >= 0 by repeated squaring; ``one`` is the unit of base's ring."""
    if n < 0:
        raise ValueError("negative powers are not ring elements in general")
    result = one
    while n:
        if n & 1:
            result = result * base
        base = base * base
        n >>= 1
    return result


def jsonable_coefficient(c):
    """A polynomial coefficient as JSON: its int value, else {"conductor", "coeffs"}."""
    if not isinstance(c, CycInt):
        return c
    n = c.as_int()
    return n if n is not None else {"conductor": c.conductor, "coeffs": list(c.coeffs)}


def weight_of_root(m: int, power: int) -> CycInt:
    """(1 - zeta^power)(1 - zeta^(-power)) = 2 - zeta^power - zeta^(-power).

    Fixed by conjugation; zero exactly when power is divisible by m.

    >>> weight_of_root(3, 1).as_int()
    3
    >>> weight_of_root(2, 1).as_int()
    4
    """
    z = CycInt.root(m, power)
    return 2 - z - z.conj()
