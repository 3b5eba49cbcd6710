"""Sparse multivariate polynomials with string-named variables.

Monomials are canonical tuples of (variable, exponent) pairs sorted by
variable name with all exponents positive; terms live in a dict mapping
monomial to a nonzero coefficient (int or CycInt).  Variables are edge
identifiers in practice, hence arbitrary strings.
"""

from __future__ import annotations

from typing import Mapping

from ..errors import ExactDivisionError
from .cyclotomic import CycInt, jsonable_coefficient, ring_power

Monomial = tuple[tuple[str, int], ...]


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    if not a:
        return b
    if not b:
        return a
    exps = dict(a)
    for v, e in b:
        exps[v] = exps.get(v, 0) + e
    return tuple(sorted(exps.items()))


def _mono_div(a: Monomial, b: Monomial) -> Monomial | None:
    exps = dict(a)
    for v, e in b:
        r = exps.get(v, 0) - e
        if r < 0:
            return None
        if r == 0:
            exps.pop(v, None)
        else:
            exps[v] = r
    return tuple(sorted(exps.items()))


def _coeff_quotient(a, c):
    """a / c for int or CycInt coefficients; ExactDivisionError unless c divides a."""
    if isinstance(a, int) and isinstance(c, int):
        q, r = divmod(a, c)
        if r:
            raise ExactDivisionError(f"{a} is not divisible by {c}", remainder=r)
        return q
    if isinstance(a, int):
        a = CycInt.from_int(c.conductor, a)
    return a.exact_div(c)


class MultiPoly:
    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Monomial, object] | None = None):
        clean = {}
        if terms:
            for mono, c in terms.items():
                if c:
                    clean[mono] = c
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("MultiPoly values are immutable")

    @staticmethod
    def const(c) -> MultiPoly:
        return MultiPoly({(): c})

    @staticmethod
    def variable(name: str) -> MultiPoly:
        return MultiPoly({((name, 1),): 1})

    # -- ring operations ------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, MultiPoly):
            return other
        if isinstance(other, (int, CycInt)):
            return MultiPoly.const(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self.terms)
        for mono, c in other.terms.items():
            s = out.get(mono, 0) + c
            if s:
                out[mono] = s
            else:
                out.pop(mono, None)
        return MultiPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly({m: -c for m, c in self.terms.items()})

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
        out: dict[Monomial, object] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = _mono_mul(m1, m2)
                s = out.get(mono, 0) + c1 * c2
                if s:
                    out[mono] = s
                else:
                    out.pop(mono, None)
        return MultiPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        return ring_power(self, n, MultiPoly.const(1))

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        """Equal term dicts: both hold only nonzero coefficients under canonical
        monomials, and an int equals a CycInt of the same value."""
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        if set(self.terms) <= {()}:  # a constant hashes like the scalar it equals
            return hash(self.terms.get((), 0))
        return hash(frozenset((m, hash(c)) for m, c in self.terms.items()))

    # -- structure ------------------------------------------------------

    def variables(self) -> tuple[str, ...]:
        seen = set()
        for mono in self.terms:
            for v, _ in mono:
                seen.add(v)
        return tuple(sorted(seen))

    def value_at_ones(self):
        acc = 0
        for c in self.terms.values():
            acc = acc + c
        return acc

    def exact_divide(self, den) -> MultiPoly:
        """Exact polynomial division; raises ExactDivisionError with the remainder.

        The tests' division oracle (deletion-contraction, and the RHS's
        division by N); no verification path divides a polynomial.  A
        constant divides coefficient by coefficient, and its remainder is the
        terms whose coefficients it does not divide.
        """
        den = self._coerce(den)
        if den is None:
            raise TypeError("divisor must be a polynomial or scalar")
        if not den:
            raise ZeroDivisionError("division by the zero polynomial")
        if len(den.terms) == 1 and () in den.terms:
            c = den.terms[()]
            quot, rem = {}, {}
            for mono, a in self.terms.items():
                try:
                    quot[mono] = _coeff_quotient(a, c)
                except ExactDivisionError:
                    rem[mono] = a
            if rem:
                raise ExactDivisionError(
                    f"division leaves remainder {MultiPoly(rem)!r}", remainder=MultiPoly(rem)
                )
            return MultiPoly(quot)
        varlist = tuple(sorted(set(self.variables()) | set(den.variables())))

        def key(mono: Monomial):
            exps = dict(mono)
            return tuple(exps.get(v, 0) for v in varlist)

        den_lead = max(den.terms, key=key)
        den_lead_coeff = den.terms[den_lead]
        rem = dict(self.terms)
        quot: dict[Monomial, object] = {}
        while rem:
            lead = max(rem, key=key)
            qm = _mono_div(lead, den_lead)
            if qm is None:
                raise ExactDivisionError(
                    f"division leaves remainder {MultiPoly(rem)!r}",
                    remainder=MultiPoly(rem),
                )
            try:
                qc = _coeff_quotient(rem[lead], den_lead_coeff)
            except ExactDivisionError as exc:
                raise ExactDivisionError(
                    f"division leaves remainder {MultiPoly(rem)!r}",
                    remainder=MultiPoly(rem),
                ) from exc
            quot[qm] = quot.get(qm, 0) + qc
            for mono, c in den.terms.items():
                target = _mono_mul(qm, mono)
                s = rem.get(target, 0) - qc * c
                if s:
                    rem[target] = s
                else:
                    rem.pop(target, None)
        return MultiPoly(quot)

    def to_jsonable(self) -> list[dict]:
        # the monomials are distinct, so sorting never compares two coefficients
        return [
            {"coeff": jsonable_coefficient(c), "exps": dict(mono)}
            for mono, c in sorted(self.terms.items())
        ]

    def __repr__(self):
        return f"MultiPoly({self.terms!r})"
