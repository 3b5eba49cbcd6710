"""Dense univariate polynomials over Z, Q, or Z[zeta_m].

Coefficients are stored ascending with trailing zeros trimmed.  The variable
is conventionally called ``s`` (these polynomials hold zeta- and L-function
reciprocals).

A product of ints and CycInts of one conductor m, some CycInt among them,
with more than one pair of terms is one big-int product (Kronecker
substitution; Harvey, J. Symb. Comput. 44, 2009): each operand's
power-basis coordinates fill 2 phi(m) - 1 slots per power of s, each wide
enough for the product's largest coordinate, and each s-coefficient read
back is reduced mod Phi_m, so all are CycInts.  Any other product is taken
term by term.  No module of the package multiplies UniPolys; the packing
serves products of L reciprocals over Z[zeta_m] (the zeta factorization),
where it costs about 10 us a product and a CycInt product several a term.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate

from .cyclotomic import CycInt, euler_phi, jsonable_coefficient, ring_power


def _zero(c) -> bool:
    return not c


def _kronecker_product(a: tuple, b: tuple, m: int) -> list[CycInt]:
    """The coefficients of a * b by one big-int product, as CycInts of conductor m."""
    phi = euler_phi(m)
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
    return [CycInt(m, slots[k:k + stride]) for k in range(0, count, stride)]


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
        if len(kinds) == 1 and None not in kinds and len(a) * len(b) > 1:
            return UniPoly(_kronecker_product(a, b, kinds.pop()))
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

    def vanishing_order_at_one(self) -> tuple[int, object]:
        """(order, leading coefficient) of the expansion at s = 1.

        Synthetic division by s - 1 while the value at 1 is zero: the
        running sums of the coefficients from the top are the quotient's,
        and the last is the value at 1.

        >>> UniPoly((1, -2, 1)).vanishing_order_at_one()
        (2, 1)
        """
        coeffs = self.coeffs
        for order in range(len(coeffs)):
            sums = list(accumulate(reversed(coeffs)))
            if not _zero(sums[-1]):
                return order, sums[-1]
            coeffs = sums[-2::-1]
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
