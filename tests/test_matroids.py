import random
from itertools import combinations

import pytest

from galois_trees import (
    AbelianGroup,
    CoverSpec,
    CycInt,
    MultiPoly,
    artin_l_reciprocal_three_term,
    bases,
    basis_weight,
    build_cover,
    build_graph,
    characters,
    covers,
    is_connected,
    is_independent,
    matroids,
    matroid_rank,
    max_independent_size,
    metric_l_reciprocal,
    subgroup_from_generators,
    subgroup_sum,
    switch_voltages,
    twisted_laplacian_det,
    untwisted_bases,
    validate_spec,
    weight_of_root,
    weight_polynomial,
)
from galois_trees.matroids import _require_usable
from galois_trees.specfile import parse_spec
from helpers import (
    RANDOM_GROUPS,
    SPEC_DIR,
    count_calls,
    dumbbell_z6_spec,
    icosahedron_spec,
    random_cover_spec,
    random_connected_multigraph,
    random_element,
    theta_graph,
)

ICOSAHEDRON_WEIGHT_TABLE = {
    ("e1", "e2", "e3", "e5"): 0,
    ("e1", "e2", "e3", "e6"): 1,
    ("e1", "e2", "e4", "e5"): 0,
    ("e1", "e2", "e4", "e6"): 1,
    ("e1", "e2", "e5", "e6"): 1,
    ("e1", "e3", "e4", "e5"): 1,
    ("e1", "e3", "e4", "e6"): 2,
    ("e1", "e3", "e5", "e6"): 1,
    ("e1", "e4", "e5", "e6"): 1,
    ("e2", "e3", "e4", "e5"): 0,
    ("e2", "e3", "e4", "e6"): 1,
    ("e2", "e3", "e5", "e6"): 0,
    ("e2", "e4", "e5", "e6"): 0,
}


def test_independence_examples():
    spec = icosahedron_spec()
    rhos = characters(spec.group)
    assert is_independent(spec, (), rhos[1])
    assert not is_independent(spec, ("e1", "e2", "e3", "e4"), rhos[1])
    assert not is_independent(spec, ("e3", "e4", "e5", "e6"), rhos[2])

    dumb = dumbbell_z6_spec()
    rho2 = characters(dumb.group)[2]
    assert not is_independent(dumb, ("e2", "e3"), rho2)
    assert is_independent(dumb, ("e1", "e3"), rho2)


def test_icosahedron_bases_and_weights():
    spec = icosahedron_spec()
    edges = spec.base.edges
    non_bases = {("e1", "e2", "e3", "e4"), ("e3", "e4", "e5", "e6")}
    for j, rho in enumerate(characters(spec.group)):
        if rho.is_trivial():
            continue
        matroid = bases(spec, rho)
        assert matroid.rank == 4
        assert len(matroid.bases) == 13
        assert set(matroid.bases) == set(combinations(edges, 4)) - non_bases
        f = weight_of_root(5, j)
        for basis, weight in zip(matroid.bases, matroid.weights):
            assert weight == f ** ICOSAHEDRON_WEIGHT_TABLE[basis]


def test_dumbbell_bases_by_character():
    spec = dumbbell_z6_spec()
    rhos = characters(spec.group)
    m1 = bases(spec, rhos[1])
    assert m1.rank == 3 and m1.bases == (("e1", "e2", "e3"),)
    m3 = bases(spec, rhos[3])
    assert m3.rank == 2 and m3.bases == (("e1", "e2"), ("e2", "e3"))
    m2 = bases(spec, rhos[2])
    assert m2.rank == 2 and m2.bases == (("e1", "e2"), ("e1", "e3"))


def test_basis_weight_examples():
    spec = icosahedron_spec()
    rhos = characters(spec.group)
    f1 = weight_of_root(5, 1)
    assert basis_weight(spec, rhos[1], ("e1", "e3", "e4", "e6")) == f1 * f1
    assert basis_weight(spec, rhos[1], ("e1", "e2", "e3", "e5")) == 1

    dumb = dumbbell_z6_spec()
    rho3 = characters(dumb.group)[3]
    assert basis_weight(dumb, rho3, ("e2", "e3")) == 4

    with pytest.raises(ValueError, match="not a basis"):
        basis_weight(spec, rhos[1], ("e1", "e2", "e3", "e4"))


def test_weight_polynomials_dumbbell():
    spec = dumbbell_z6_spec()
    rhos = characters(spec.group)
    x1, x2, x3 = (MultiPoly.variable(v) for v in ("e1", "e2", "e3"))
    assert weight_polynomial(spec, rhos[1]).polynomial == x1 * x2 * x3
    assert weight_polynomial(spec, rhos[2]).polynomial == x1 * x2 + 3 * x1 * x3
    assert weight_polynomial(spec, rhos[3]).polynomial == x1 * x2 + 4 * x2 * x3
    assert weight_polynomial(spec, rhos[1]).scalar == 1
    assert weight_polynomial(spec, rhos[2]).scalar == 4
    assert weight_polynomial(spec, rhos[3]).scalar == 5


def test_weight_polynomial_icosahedron_scalar():
    spec = icosahedron_spec()
    for j, rho in enumerate(characters(spec.group)):
        if rho.is_trivial():
            continue
        report = weight_polynomial(spec, rho)
        f = weight_of_root(5, j)
        assert report.scalar == 5 + 7 * f + f * f
        want = 30 - 6 * 5**0.5 if j in (1, 4) else 30 + 6 * 5**0.5
        assert abs(report.scalar.embed() - want) < 1e-9


def test_weight_polynomial_homogeneous_of_rank():
    rng = random.Random(31)
    for _ in range(6):
        spec, _ = random_cover_spec(rng, max_vertices=4, max_edges=6)
        for rho in characters(spec.group):
            if rho.is_trivial():
                continue
            report = weight_polynomial(spec, rho)
            if report.bases:
                assert report.polynomial.is_homogeneous()
                assert report.polynomial.total_degree() == report.rank


def test_rank_formula_vs_bruteforce():
    rng = random.Random(32)
    for _ in range(6):
        spec, _ = random_cover_spec(rng, max_vertices=4, max_edges=6)
        for rho in characters(spec.group):
            if rho.is_trivial():
                continue
            assert matroid_rank(spec, rho) == max_independent_size(spec, rho)


def test_basis_exchange_random():
    rng = random.Random(33)
    for _ in range(6):
        spec, _ = random_cover_spec(rng, max_vertices=4, max_edges=6)
        for rho in characters(spec.group):
            if rho.is_trivial():
                continue
            basis_set = set(bases(spec, rho).bases)
            for b1 in basis_set:
                for b2 in basis_set:
                    for e in set(b1) - set(b2):
                        candidates = [
                            tuple(sorted(set(b1) - {e} | {f}))
                            for f in set(b2) - set(b1)
                        ]
                        assert any(c in basis_set for c in candidates)


def test_free_cover_bases_have_size_genus_minus_one():
    rng = random.Random(34)
    for _ in range(6):
        spec, _ = random_cover_spec(rng, free=True, max_vertices=4, max_edges=6)
        for rho in characters(spec.group):
            if rho.is_trivial():
                continue
            matroid = bases(spec, rho)
            from galois_trees import genus

            assert matroid.rank == genus(spec.base) - 1
            for basis in matroid.bases:
                assert len(basis) == matroid.rank


def test_untwisted_matroid_deletion_relation():
    rng = random.Random(35)
    from galois_trees import free_resolution

    for _ in range(6):
        spec, _ = random_cover_spec(rng, max_vertices=3, max_edges=5)
        resolved, added = free_resolution(spec)
        original = set(untwisted_bases(spec))
        resolved_bases = untwisted_bases(resolved)
        added_set = set(added)
        avoiding = [b for b in resolved_bases if not added_set & set(b)]
        # deletion: bases of the deleted matroid are the maximal independent
        # subsets avoiding the deleted edges
        if avoiding:
            assert original == set(avoiding)
        else:
            # rank dropped: every original basis is independent in the big one
            for b in original:
                assert is_independent(resolved, b)


def test_twisted_laplacian_equals_scalar_weight():
    rng = random.Random(36)
    for _ in range(6):
        spec, _ = random_cover_spec(rng, free=True, max_vertices=4, max_edges=6)
        for rho in characters(spec.group):
            if rho.is_trivial():
                continue
            det = twisted_laplacian_det(spec, rho)
            assert det == weight_polynomial(spec, rho).scalar


def test_galois_pairing():
    rng = random.Random(37)
    for _ in range(5):
        spec, _ = random_cover_spec(rng, max_vertices=4, max_edges=6)
        nontrivial = [rho for rho in characters(spec.group) if not rho.is_trivial()]
        product = CycInt.from_int(spec.group.exponent, 1)
        for rho in nontrivial:
            mine = bases(spec, rho)
            conj = bases(spec, rho.conj())
            assert mine.bases == conj.bases
            for w1, w2 in zip(mine.weights, conj.weights):
                assert w1.conj() == w2
            product = product * weight_polynomial(spec, rho).scalar
        assert product.as_int() is not None


def test_trivial_character_and_group_errors():
    spec = dumbbell_z6_spec()
    trivial_rho = characters(spec.group)[0]
    with pytest.raises(ValueError, match="nontrivial"):
        bases(spec, trivial_rho)

    trivial_spec = CoverSpec(base=theta_graph(), group=AbelianGroup((1,)))
    with pytest.raises(ValueError, match="trivial"):
        untwisted_bases(trivial_spec)


def test_disconnected_cover_errors():
    spec = CoverSpec(base=theta_graph(), group=AbelianGroup((2,)))
    assert not build_cover(spec).total or True  # builds fine, just disconnected
    rho = characters(spec.group)[1]
    with pytest.raises(ValueError, match="connected"):
        bases(spec, rho)
    with pytest.raises(ValueError, match="connected"):
        is_independent(spec, (), rho)


def _random_spec(rng):
    """A random spec whose base may be disconnected, with loops and dilation."""
    base = random_connected_multigraph(rng, 3, 5)
    if rng.random() < 0.3:
        other = random_connected_multigraph(rng, 2, 3)
        base = build_graph(
            list(base.vertices) + [f"w{v}" for v in other.vertices],
            [(e, *base.ends[e]) for e in base.edges]
            + [(f"w{e}", *(f"w{x}" for x in other.ends[e])) for e in other.edges],
        )
    group = RANDOM_GROUPS[rng.randrange(len(RANDOM_GROUPS))]
    dilation = {}
    for v in base.vertices:
        if rng.random() < 0.3:
            dilation[v] = subgroup_from_generators(group, [random_element(rng, group)])
    voltage = {e: random_element(rng, group) for e in base.edges if rng.random() < 0.6}
    return CoverSpec(base=base, group=group, dilation=dilation, voltage=voltage)


def test_connectivity_from_base_data_matches_built_cover():
    rng = random.Random(21)
    seen = set()
    for _ in range(300):
        spec = validate_spec(_random_spec(rng)).spec
        connected = is_connected(build_cover(spec).total)
        try:
            _require_usable(spec)
            usable = True
        except ValueError as exc:
            assert "connected" in str(exc)
            usable = False
        assert usable == connected
        seen.add((connected, is_connected(spec.base)))
    assert seen == {(True, True), (False, True), (False, False)}


def test_matroids_build_no_cover(monkeypatch):
    def refuse(spec):
        raise AssertionError("the matroid must not build the cover")

    spec = icosahedron_spec()
    rho = characters(spec.group)[1]
    expected = weight_polynomial(spec, rho)
    monkeypatch.setattr(covers, "build_cover", refuse)
    # also catch a module that imported the name directly
    monkeypatch.setattr(matroids, "build_cover", refuse, raising=False)
    assert weight_polynomial(spec, rho) == expected
    assert bases(spec, rho) == expected
    assert len(expected.bases) == 13
    assert is_independent(spec, (), rho)
    z4 = AbelianGroup((4,))
    disconnected = (
        CoverSpec(base=theta_graph(), group=z4, voltage={"e": (2,), "f": (2,)}),
        CoverSpec(
            base=build_graph(["a", "b"], [("e", "a", "a")]),
            group=z4,
            voltage={"e": (1,)},
        ),
    )
    for spec in disconnected:
        rho = characters(spec.group)[1]
        for call in (
            lambda: bases(spec, rho),
            lambda: weight_polynomial(spec, rho),
            lambda: is_independent(spec, (), rho),
            lambda: basis_weight(spec, rho, ()),
            lambda: untwisted_bases(spec),
            lambda: max_independent_size(spec, rho),
        ):
            with pytest.raises(ValueError, match="connected"):
                call()


def test_switching_leaves_twisted_matroids_unchanged():
    rng = random.Random(38)
    dilated = 0
    for _ in range(40):
        spec, _ = random_cover_spec(rng, max_vertices=4, max_edges=6)
        dilated += not spec.is_free()
        xi = {v: random_element(rng, spec.group) for v in spec.base.vertices}
        switched = switch_voltages(spec, xi)
        assert untwisted_bases(switched) == untwisted_bases(spec)
        for rho in characters(spec.group):
            if rho.is_trivial():
                continue
            mine, theirs = weight_polynomial(spec, rho), weight_polynomial(switched, rho)
            assert theirs.bases == mine.bases
            assert theirs.weights == mine.weights
            assert theirs.polynomial == mine.polynomial
            assert theirs.scalar == mine.scalar
    assert dilated >= 10


def test_bases_make_one_component_pass(monkeypatch):
    oracle = count_calls(monkeypatch, matroids, "_deletion_components")
    own = count_calls(monkeypatch, covers, "_deletion_components")
    spec = icosahedron_spec()
    matroid = bases(spec, characters(spec.group)[1])
    assert len(matroid.bases) == 13
    # the subsets run on integer potentials: bases makes no group-valued pass,
    # and the spec's own connectivity pass, over every edge, is the only one
    assert oracle == [] and own == [()]


def complete_graph_spec(n: int, order: int) -> CoverSpec:
    """K_n over Z/order, edge i (in lexicographic pair order) with voltage (7i + 3) mod order."""
    pairs = list(combinations(range(n), 2))
    base = build_graph(
        [f"v{a}" for a in range(n)],
        [(f"e{i:02d}", f"v{a}", f"v{b}") for i, (a, b) in enumerate(pairs)],
    )
    voltage = {f"e{i:02d}": ((7 * i + 3) % order,) for i in range(len(pairs))}
    return CoverSpec(base=base, group=AbelianGroup((order,)), voltage=voltage)


def assert_bases_match_the_oracle(spec):
    """``bases`` against every rank-sized subset the public oracle accepts, in
    the same order, each weighed by ``basis_weight``."""
    for rho in characters(spec.group):
        if rho.is_trivial():
            continue
        rank = matroid_rank(spec, rho)
        found = tuple(
            b for b in combinations(spec.base.edges, rank) if is_independent(spec, b, rho)
        )
        matroid = bases(spec, rho)
        assert matroid.rank == rank
        assert matroid.bases == found
        assert matroid.weights == tuple(basis_weight(spec, rho, b) for b in found)


def test_bases_match_the_oracle_on_random_covers():
    rng = random.Random(58)
    for _ in range(200):
        spec, _ = random_cover_spec(rng)
        assert_bases_match_the_oracle(spec)


@pytest.mark.parametrize("name", sorted(p.name for p in SPEC_DIR.glob("*.json")))
def test_bases_match_the_oracle_on_bundled_specs(name):
    assert_bases_match_the_oracle(parse_spec((SPEC_DIR / name).read_text()))


@pytest.mark.parametrize("n, order", [(5, 5), (6, 3)])
def test_bases_match_the_oracle_on_complete_graphs(n, order):
    assert_bases_match_the_oracle(complete_graph_spec(n, order))


def test_bases_of_k7_over_z3():
    # 116,280 subsets of 14 of the 21 edges: about a second on integer potentials
    spec = complete_graph_spec(7, 3)
    rho = characters(spec.group)[1]
    matroid = bases(spec, rho)
    assert len(matroid.bases) == 52_852
    # Forman's twisted matrix-tree theorem: an independent determinant
    assert sum(matroid.weights, CycInt.from_int(3, 0)) == twisted_laplacian_det(spec, rho)


def test_matroids_and_l_functions_ignore_the_voltage_representative():
    rng = random.Random(57)
    dilated = shifted = 0
    for _ in range(40):
        spec, _ = random_cover_spec(rng, max_vertices=4, max_edges=6)
        normalized = validate_spec(spec).spec
        group = spec.group
        voltage = {}
        for e in spec.base.edges:
            # a random element of D(s) + D(t), plus multiples of the cyclic orders
            joint = subgroup_sum(*map(spec.dilation_at, spec.base.ends[e])).elements
            shift = joint[rng.randrange(len(joint))]
            voltage[e] = tuple(
                x + d + n * rng.randint(-2, 2)
                for x, d, n in zip(normalized.voltage_on(e), shift, group.orders)
            )
            shifted += any(shift)
        moved = CoverSpec(base=spec.base, group=group, dilation=spec.dilation, voltage=voltage)
        assert untwisted_bases(moved) == untwisted_bases(normalized)
        for rho in characters(group)[1:]:
            mine, theirs = weight_polynomial(normalized, rho), weight_polynomial(moved, rho)
            assert theirs.rank == mine.rank
            assert theirs.bases == mine.bases
            assert theirs.weights == mine.weights
            assert theirs.polynomial == mine.polynomial
            assert theirs.scalar == mine.scalar
            if spec.is_free():
                for entry in (
                    metric_l_reciprocal,
                    artin_l_reciprocal_three_term,
                    twisted_laplacian_det,
                ):
                    assert entry(moved, rho) == entry(normalized, rho)
        dilated += not spec.is_free()
    assert 10 <= dilated <= 30 and shifted >= 10


def test_usability_is_decided_once_per_spec(monkeypatch):
    passes = count_calls(monkeypatch, covers, "_deletion_components")
    spec = icosahedron_spec(8)
    rho, sigma = characters(spec.group)[1:3]
    bases(spec, rho)
    bases(spec, sigma)
    weight_polynomial(spec, rho)
    assert len(passes) == 1


def test_usability_verdicts_are_kept_per_spec_object(monkeypatch):
    passes = count_calls(monkeypatch, covers, "_deletion_components")
    spec = CoverSpec(base=theta_graph(), group=AbelianGroup((2,)))
    rho = characters(spec.group)[1]
    for call in (lambda: bases(spec, rho), lambda: weight_polynomial(spec, rho)) * 2:
        with pytest.raises(ValueError, match="requires a connected cover"):
            call()
    assert len(passes) == 1
    again = CoverSpec(base=spec.base, group=spec.group)
    assert again == spec
    with pytest.raises(ValueError, match="requires a connected cover"):
        bases(again, rho)
    assert len(passes) == 2

    # a kept positive verdict does not skip the per-call checks
    usable = CoverSpec(base=theta_graph(), group=AbelianGroup((2,)), voltage={"f": (1,)})
    assert len(bases(usable, rho).bases) == 2
    for _ in range(2):
        with pytest.raises(ValueError, match="nontrivial character"):
            bases(usable, characters(usable.group)[0])
    trivial = CoverSpec(base=theta_graph(), group=AbelianGroup((1,)))
    for _ in range(2):
        with pytest.raises(ValueError, match="trivial cover"):
            untwisted_bases(trivial)
    assert len(passes) == 3
