"""Finite abelian groups as explicit products of cyclic groups.

Elements are reduced residue tuples; subgroups are stored as sorted element
lists (everything here runs at sizes where full enumeration is the simplest
correct choice).  Characters are recorded by integer exponents so their
values can feed exact cyclotomic arithmetic, never floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product
from math import lcm, prod
from typing import Iterable

from .algebra import CycInt

Element = tuple[int, ...]


@dataclass(frozen=True)
class AbelianGroup:
    orders: tuple[int, ...]

    def __post_init__(self):
        if any(n < 1 for n in self.orders):
            raise ValueError("cyclic orders must be positive")

    # computed once per group; equality and hashing still go by ``orders``
    @cached_property
    def order(self) -> int:
        return prod(self.orders)

    @cached_property
    def exponent(self) -> int:
        return lcm(*self.orders) if self.orders else 1

    def zero(self) -> Element:
        return (0,) * len(self.orders)

    def reduce(self, t: Iterable[int]) -> Element:
        t = tuple(t)
        if len(t) != len(self.orders):
            raise ValueError(f"element {t} has wrong arity for orders {self.orders}")
        return tuple([a % n for a, n in zip(t, self.orders)])

    def add(self, a: Element, b: Element) -> Element:
        return tuple([(x + y) % n for x, y, n in zip(a, b, self.orders)])

    def neg(self, a: Element) -> Element:
        return tuple([(-x) % n for x, n in zip(a, self.orders)])

    def elements(self) -> list[Element]:
        return list(product(*(range(n) for n in self.orders)))

    def is_trivial(self) -> bool:
        return self.order == 1


@dataclass(frozen=True)
class Subgroup:
    group: AbelianGroup
    elements: tuple[Element, ...]

    @property
    def order(self) -> int:
        return len(self.elements)

    def is_trivial(self) -> bool:
        return len(self.elements) == 1


def subgroup_from_generators(group: AbelianGroup, generators: Iterable[Element]) -> Subgroup:
    """Smallest subgroup containing the generators, grown one coset at a time:
    a generator g outside the span H adds H + g, H + 2g, ... until a multiple
    of g falls back into H.  H at least doubles at each such g, so fewer than
    2|H| additions are made in all, however many generators are passed."""
    span = [group.zero()]
    seen = set(span)
    for g in generators:
        g = group.reduce(g)  # raises on a wrong arity
        if g in seen:
            continue
        coset = span
        while (coset := [group.add(a, g) for a in coset])[0] not in seen:
            span += coset
            seen.update(coset)
    return Subgroup(group, tuple(sorted(seen)))


def trivial_subgroup(group: AbelianGroup) -> Subgroup:
    return Subgroup(group, (group.zero(),))


def subgroup_sum(a: Subgroup, b: Subgroup) -> Subgroup:
    if a.group != b.group:
        raise ValueError("subgroups of different groups cannot be added")
    return subgroup_from_generators(a.group, list(a.elements) + list(b.elements))


def minimal_generators(h: Subgroup) -> list[Element]:
    """A deterministic generating set, grown greedily over sorted elements."""
    group = h.group
    gens: list[Element] = []
    span = {group.zero()}
    for a in h.elements:
        if a in span:
            continue
        gens.append(a)
        span = set(subgroup_from_generators(group, gens).elements)
        if len(span) == h.order:
            break
    return gens


@dataclass(frozen=True)
class Character:
    """A homomorphism to the unit circle, stored by integer exponents.

    The value on an element is the root of unity zeta_m ** value_exponent
    where m is the exponent of the group; no floating point is involved.
    """

    group: AbelianGroup
    exponents: tuple[int, ...]

    @cached_property
    def _scaled(self) -> tuple[int, ...]:
        """c * (m / n) per cyclic factor: the value exponent of each generator."""
        m = self.group.exponent
        return tuple(c * (m // n) for c, n in zip(self.exponents, self.group.orders))

    def value_exponent(self, a: Element) -> int:
        total = sum(w * x for w, x in zip(self._scaled, self.group.reduce(a)))
        return total % self.group.exponent

    def cyc_value(self, a: Element) -> CycInt:
        return CycInt.root(self.group.exponent, self.value_exponent(a))

    def is_trivial(self) -> bool:
        return all(c == 0 for c in self.exponents)

    def power(self, k: int) -> Character:
        """The character a -> rho(a)^k.

        >>> Character(AbelianGroup((2, 4)), (1, 1)).power(3).exponents
        (1, 3)
        """
        return Character(
            self.group,
            tuple((k * c) % n for c, n in zip(self.exponents, self.group.orders)),
        )


def characters(group: AbelianGroup) -> list[Character]:
    """All characters, ordered by exponent tuple; the trivial one comes first."""
    return [
        Character(group, exps)
        for exps in product(*(range(n) for n in group.orders))
    ]

