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

    @staticmethod
    def zero() -> MultiPoly:
        return MultiPoly()

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
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return not (self - other)

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

    def total_degree(self) -> int:
        if not self.terms:
            return 0
        return max(sum(e for _, e in mono) for mono in self.terms)

    def is_homogeneous(self) -> bool:
        degrees = {sum(e for _, e in mono) for mono in self.terms}
        return len(degrees) <= 1

    def evaluate(self, values: Mapping[str, object]):
        """Evaluate at a point; every variable occurring must be assigned."""
        acc = 0
        for mono, c in self.terms.items():
            term = c
            for v, e in mono:
                if v not in values:
                    raise ValueError(f"no value supplied for variable {v!r}")
                term = term * values[v] ** e
            acc = acc + term
        return acc

    def value_at_ones(self):
        acc = 0
        for c in self.terms.values():
            acc = acc + c
        return acc

    def substitute(self, var: str, replacement) -> MultiPoly:
        """Replace one variable by a variable name, scalar, or polynomial."""
        if isinstance(replacement, str):
            out: dict[Monomial, object] = {}
            for mono, c in self.terms.items():
                exps = dict(mono)
                if var in exps:
                    e = exps.pop(var)
                    exps[replacement] = exps.get(replacement, 0) + e
                    mono = tuple(sorted(exps.items()))
                s = out.get(mono, 0) + c
                if s:
                    out[mono] = s
                else:
                    out.pop(mono, None)
            return MultiPoly(out)
        repl = self._coerce(replacement)
        if repl is None:
            raise TypeError(f"cannot substitute {replacement!r}")
        acc = MultiPoly.zero()
        powers = {0: MultiPoly.const(1)}
        for mono, c in self.terms.items():
            exps = dict(mono)
            e = exps.pop(var, 0)
            rest = tuple(sorted(exps.items()))
            if e not in powers:
                powers[e] = repl**e
            acc = acc + MultiPoly({rest: c}) * powers[e]
        return acc

    def exact_divide(self, den) -> MultiPoly:
        """Exact polynomial division; raises ExactDivisionError with the remainder.

        A constant divides coefficient by coefficient, and its remainder is
        the terms whose coefficients it does not divide.
        """
        from .division import exact_quotient  # division dispatches back to this class

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
                    quot[mono] = exact_quotient(a, c)
                except ExactDivisionError:
                    rem[mono] = a
            if rem:
                raise ExactDivisionError(
                    f"division leaves remainder {MultiPoly(rem)}", remainder=MultiPoly(rem)
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
                    f"division leaves remainder {MultiPoly(rem)}",
                    remainder=MultiPoly(rem),
                )
            try:
                qc = exact_quotient(rem[lead], den_lead_coeff)
            except ExactDivisionError as exc:
                raise ExactDivisionError(
                    f"division leaves remainder {MultiPoly(rem)}",
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

    def map_coefficients(self, fn) -> MultiPoly:
        return MultiPoly({m: fn(c) for m, c in self.terms.items()})

    def canonical_terms(self) -> list[tuple[Monomial, object]]:
        return sorted(self.terms.items(), key=lambda item: item[0])

    def to_jsonable(self) -> list[dict]:
        return [
            {"coeff": jsonable_coefficient(c), "exps": dict(mono)}
            for mono, c in self.canonical_terms()
        ]

    def __repr__(self):
        return f"MultiPoly({self.terms!r})"

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for mono, c in self.canonical_terms():
            factors = [f"{v}^{e}" if e > 1 else v for v, e in mono]
            cs = str(c)
            if not (isinstance(c, int) or (isinstance(c, CycInt) and c.as_int() is not None)):
                cs = f"({cs})"
            if not factors:
                parts.append(cs)
            elif cs == "1":
                parts.append("*".join(factors))
            elif cs == "-1":
                parts.append("-" + "*".join(factors))
            else:
                parts.append(cs + "*" + "*".join(factors))
        return " + ".join(parts).replace("+ -", "- ")

