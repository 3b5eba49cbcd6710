import random
from math import lcm, prod

import pytest

from galois_trees import (
    AbelianGroup,
    character_kills,
    characters,
    minimal_generators,
    subgroup_from_generators,
    subgroup_sum,
    trivial_subgroup,
)


def test_subgroup_from_generators_examples():
    z6 = AbelianGroup((6,))
    h = subgroup_from_generators(z6, [(2,)])
    assert h.elements == ((0,), (2,), (4,))
    assert h.order == 3

    assert subgroup_from_generators(z6, []).elements == ((0,),)

    klein = AbelianGroup((2, 2))
    full = subgroup_from_generators(klein, [(1, 0), (0, 1)])
    assert full.order == 4


def _closure_reference(group, generators):
    """Breadth-first closure: every generator added to every element found."""
    gens = [group.reduce(g) for g in generators]
    seen = {group.zero()}
    frontier = [group.zero()]
    while frontier:
        frontier = {group.add(a, g) for a in frontier for g in gens} - seen
        seen |= frontier
    return tuple(sorted(seen))


def test_subgroup_closure_matches_the_breadth_first_reference():
    rng = random.Random(22)
    for orders in [(2, 4), (3, 3), (2, 3, 4), (12,), (2, 2, 2), (6, 10), (1,), (5,)]:
        group = AbelianGroup(orders)
        for _ in range(50):
            gens = [
                tuple(rng.randrange(-2 * n, 2 * n) for n in orders)
                for _ in range(rng.randrange(5))
            ]
            assert subgroup_from_generators(group, gens).elements == _closure_reference(group, gens)
    with pytest.raises(ValueError, match="wrong arity"):
        subgroup_from_generators(AbelianGroup((2, 4)), [(1, 0), (1,)])


def test_subgroup_sum_examples():
    z6 = AbelianGroup((6,))
    a = subgroup_from_generators(z6, [(2,)])
    b = subgroup_from_generators(z6, [(3,)])
    assert subgroup_sum(a, b).order == 6

    assert subgroup_sum(a, trivial_subgroup(z6)) == a

    z5 = AbelianGroup((5,))
    full = subgroup_from_generators(z5, [(1,)])
    assert subgroup_sum(trivial_subgroup(z5), full) == full


def test_subgroup_sum_parent_mismatch():
    a = trivial_subgroup(AbelianGroup((2,)))
    b = trivial_subgroup(AbelianGroup((3,)))
    with pytest.raises(ValueError):
        subgroup_sum(a, b)


def test_characters_z5():
    z5 = AbelianGroup((5,))
    chars = characters(z5)
    assert len(chars) == 5
    assert chars[0].is_trivial()
    for j, rho in enumerate(chars):
        assert rho.value_exponent((1,)) == j


def test_characters_z6():
    z6 = AbelianGroup((6,))
    chars = characters(z6)
    for j, rho in enumerate(chars):
        for k in range(6):
            assert rho.value_exponent((k,)) == (j * k) % 6


def test_characters_klein():
    klein = AbelianGroup((2, 2))
    chars = characters(klein)
    assert len(chars) == 4
    assert klein.exponent == 2
    for rho in chars:
        for a in klein.elements():
            assert rho.value_exponent(a) in (0, 1)


def test_character_kills_examples():
    z6 = AbelianGroup((6,))
    chars = characters(z6)
    h23 = subgroup_from_generators(z6, [(3,)])
    h3 = subgroup_from_generators(z6, [(2,)])
    assert character_kills(chars[2], h23)
    assert not character_kills(chars[1], h3)
    assert character_kills(chars[1], trivial_subgroup(z6))


def test_character_count_and_separation():
    for group in (AbelianGroup((6,)), AbelianGroup((2, 2)), AbelianGroup((4,))):
        chars = characters(group)
        assert len(chars) == group.order
        for a in group.elements():
            if a == group.zero():
                continue
            assert any(rho.value_exponent(a) != 0 for rho in chars)


def test_lagrange_and_kill_count():
    group = AbelianGroup((6,))
    for gens in ([(2,)], [(3,)], [(1,)], []):
        h = subgroup_from_generators(group, gens)
        assert group.order % h.order == 0
        killers = sum(1 for rho in characters(group) if character_kills(rho, h))
        assert killers == group.order // h.order
    klein = AbelianGroup((2, 2))
    h = subgroup_from_generators(klein, [(1, 1)])
    killers = sum(1 for rho in characters(klein) if character_kills(rho, h))
    assert killers == 2


def test_minimal_generators_deterministic():
    z6 = AbelianGroup((6,))
    h = subgroup_from_generators(z6, [(2,)])
    assert minimal_generators(h) == [(2,)]
    assert minimal_generators(subgroup_from_generators(z6, [(3,)])) == [(3,)]
    klein = AbelianGroup((2, 2))
    full = subgroup_from_generators(klein, [(1, 0), (0, 1)])
    assert minimal_generators(full) == [(0, 1), (1, 0)]


def test_conjugate_character():
    z5 = AbelianGroup((5,))
    chars = characters(z5)
    for rho in chars:
        conj = rho.conj()
        for a in z5.elements():
            assert conj.value_exponent(a) == (-rho.value_exponent(a)) % 5


def test_cached_group_constants_match_the_formulas():
    for orders in ((1,), (2,), (6,), (2, 2), (2, 4), (3, 3), (2, 3, 4)):
        group = AbelianGroup(orders)
        m = lcm(*orders)
        assert group.order == prod(orders) and group.exponent == m
        assert group == AbelianGroup(orders) and hash(group) == hash(AbelianGroup(orders))
        for rho in characters(group):
            for a in group.elements():
                for shift in (-3, -1, 0, 1, 2):
                    b = tuple(x + shift * n for x, n in zip(a, orders))
                    old = sum(c * (x % n) * (m // n) for c, x, n in zip(rho.exponents, b, orders))
                    assert rho.value_exponent(b) == old % m
            for wrong in (group.zero() + (0,), group.zero()[1:]):
                with pytest.raises(ValueError, match="arity"):
                    rho.value_exponent(wrong)
