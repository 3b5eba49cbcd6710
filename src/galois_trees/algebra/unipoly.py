"""Dense univariate polynomials over Z, Q, or Z[zeta_m].

Coefficients are stored ascending with trailing zeros trimmed.  The variable
is conventionally called ``s`` (these polynomials hold zeta- and L-function
reciprocals and their Taylor shifts).
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from ..errors import ExactDivisionError
from .cyclotomic import CycInt, jsonable_coefficient, ring_power
from .division import exact_quotient


def _zero(c) -> bool:
    return not c


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
        return not (self - other)

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

    def exact_div(self, other) -> UniPoly:
        other = self._coerce(other)
        if other is None:
            raise TypeError("divisor must be a polynomial or scalar")
        if not other:
            raise ZeroDivisionError("division by zero polynomial")
        rem = list(self.coeffs)
        dd = other.degree
        lead = other.coeffs[-1]
        if len(rem) - 1 < dd:
            if any(not _zero(c) for c in rem):
                raise ExactDivisionError(
                    "polynomial division is not exact", remainder=UniPoly(rem)
                )
            return UniPoly()
        quot = [0] * (len(rem) - dd)
        for i in reversed(range(len(quot))):
            c = rem[i + dd]
            if not _zero(c):
                q = exact_quotient(c, lead)
                quot[i] = q
                for j, p in enumerate(other.coeffs):
                    rem[i + j] = rem[i + j] - q * p
        if any(not _zero(c) for c in rem):
            raise ExactDivisionError(
                "polynomial division is not exact", remainder=UniPoly(rem)
            )
        return UniPoly(quot)

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
