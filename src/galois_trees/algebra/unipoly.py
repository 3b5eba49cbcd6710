"""Dense univariate polynomials over Z, Q, or Z[zeta_m].

Coefficients are stored ascending with trailing zeros trimmed.  The variable
is conventionally called ``s`` (these polynomials hold zeta- and L-function
reciprocals and their Taylor shifts).

A product of ints and CycInts of one conductor m with more than one pair of
terms, or of ints only with more than 256 (packing costs about 10 us, an int
product well under 1 us, a CycInt one several), is one big-int product
(Kronecker substitution; Harvey, J. Symb. Comput. 44, 2009): each operand's
power-basis coordinates fill 2 phi(m) - 1 slots per power of s, each wide
enough for the product's largest coordinate, and each s-coefficient read
back is reduced mod Phi_m, so all are CycInts, or ints for int operands.
Other products, Fractions among them, are taken term by term.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .cyclotomic import CycInt, euler_phi, jsonable_coefficient, ring_power


def _zero(c) -> bool:
    return not c


def _kronecker_product(a: tuple, b: tuple, m: int) -> list:
    """The coefficients of a * b by one big-int product; ints when m is 0."""
    phi = euler_phi(m) if m else 1
    pad = (0,) * (phi - 1)  # a product of coordinate vectors has 2 phi - 1 slots

    def coordinates(poly):
        out = []
        for c in poly:
            out += (c.coeffs if isinstance(c, CycInt) else (c, *pad)) + pad
        return out

    xa, xb = coordinates(a), coordinates(b)
    height = min(len(a), len(b)) * phi * max(map(abs, xa)) * max(map(abs, xb))
    size = height.bit_length() // 8 + 1  # bytes a slot: 2^(8 size - 1) > height
    stride = 2 * phi - 1
    count = (len(a) + len(b) - 1) * stride
    # every slot plus half = 2^(8 size - 1) lies in [0, 2^(8 size)): no borrows
    half = 1 << (8 * size - 1)
    offset = int.from_bytes((bytes(size - 1) + b"\x80") * count, "little")
    raw = (_pack(xa, size) * _pack(xb, size) + offset).to_bytes(size * count, "little")
    slots = [int.from_bytes(raw[k:k + size], "little") - half for k in range(0, size * count, size)]
    return [CycInt(m, slots[k:k + stride]) for k in range(0, count, stride)] if m else slots


def _pack(values: list[int], size: int) -> int:
    """The sum of values[k] * 2^(8 size k), from bytes of ``size`` apiece."""
    zero = bytes(size)
    pos = b"".join(c.to_bytes(size, "little") if c > 0 else zero for c in values)
    neg = b"".join((-c).to_bytes(size, "little") if c < 0 else zero for c in values)
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


class UniPoly:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        coeffs = list(coeffs)
        while coeffs and _zero(coeffs[-1]):
            coeffs.pop()
        object.__setattr__(self, "coeffs", tuple(coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("UniPoly values are immutable")

    @staticmethod
    def const(c) -> UniPoly:
        return UniPoly((c,))

    @staticmethod
    def monomial(k: int, c=1) -> UniPoly:
        """c * s^k"""
        return UniPoly((0,) * k + (c,))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __bool__(self):
        return bool(self.coeffs)

    def _coerce(self, other):
        if isinstance(other, UniPoly):
            return other
        if isinstance(other, (int, Fraction, CycInt)):
            return UniPoly.const(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return UniPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return UniPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return UniPoly()
        # the CycInt conductors among the coefficients, None for a Fraction
        kinds = {c.conductor if isinstance(c, CycInt) else 0 if isinstance(c, int) else None
                 for c in a + b} - {0}
        if None not in kinds and len(kinds) < 2 and len(a) * len(b) > (1 if kinds else 256):
            return UniPoly(_kronecker_product(a, b, max(kinds, default=0)))
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if not _zero(x):
                for j, y in enumerate(b):
                    if not _zero(y):
                        out[i + j] = out[i + j] + x * y
        return UniPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        return ring_power(self, n, UniPoly.const(1))

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        if len(self.coeffs) <= 1:  # a constant hashes like the scalar it equals
            return hash(self.coeffs[0] if self.coeffs else 0)
        return hash(self.coeffs)

    def evaluate(self, value):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * value + c
        return acc

    def taylor_at_one(self, order: int | None = None) -> tuple:
        """Coefficients of this polynomial rewritten in powers of (s - 1).

        Exact binomial re-expansion; entry k is the coefficient of (s-1)^k.

        >>> UniPoly((0, 0, 1)).taylor_at_one()
        (1, 2, 1)
        """
        out = []
        for k in range(len(self.coeffs)):
            acc = 0
            for i in range(k, len(self.coeffs)):
                c = self.coeffs[i]
                if not _zero(c):
                    acc = acc + comb(i, k) * c
            out.append(acc)
        while out and _zero(out[-1]):
            out.pop()
        if order is not None:
            out = out[: order + 1]
            out += [0] * (order + 1 - len(out))
        return tuple(out)

    def vanishing_order_at_one(self) -> tuple[int, object]:
        """(order, leading coefficient) of the expansion at s = 1."""
        shifted = self.taylor_at_one()
        for k, c in enumerate(shifted):
            if not _zero(c):
                return k, c
        raise ValueError("zero polynomial has no vanishing order")

    def to_jsonable(self) -> list:
        return [jsonable_coefficient(c) for c in self.coeffs]

    def __repr__(self):
        return f"UniPoly({self.coeffs})"

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if _zero(c):
                continue
            cs = str(c)
            if not (isinstance(c, int) or (isinstance(c, CycInt) and c.as_int() is not None)):
                cs = f"({cs})"
            if i == 0:
                parts.append(cs)
            else:
                var = "s" if i == 1 else f"s^{i}"
                parts.append(var if cs == "1" else f"-{var}" if cs == "-1" else f"{cs}*{var}")
        return " + ".join(parts).replace("+ -", "- ")
