"""The one exact quotient of ring elements that every exact division uses."""

from __future__ import annotations

from fractions import Fraction

from ..errors import ExactDivisionError
from .cyclotomic import CycInt
from .multipoly import MultiPoly


def exact_quotient(a, b):
    """a / b in a commutative ring; raises ExactDivisionError if b does not divide a.

    Operands are ints, Fractions, CycInt, UniPoly or MultiPoly, a polynomial
    mixing with scalars.  Integer divisors, 1 and -1 first, are tried before
    anything else: they are the common case in polynomial long division.
    """
    if isinstance(b, int):
        if b == 1:
            return a
        if b == -1:
            return -a
        if isinstance(a, int):
            q, r = divmod(a, b)
            if r:
                raise ExactDivisionError(f"{a} is not divisible by {b}", remainder=r)
            return q
    if isinstance(a, Fraction) or isinstance(b, Fraction):
        return Fraction(a) / Fraction(b)
    if isinstance(a, int) and isinstance(b, CycInt):
        a = CycInt.from_int(b.conductor, a)
    elif isinstance(a, (int, CycInt)) and not isinstance(b, (int, CycInt)):
        a = type(b).const(a)  # a scalar over a polynomial
    if isinstance(a, MultiPoly):
        return a.exact_divide(b)
    return a.exact_div(b)  # CycInt or UniPoly
