"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines and the
per-criterion timings as well as the pytest verdicts.
"""

import random
import time
from contextlib import contextmanager

import pytest

from galois_trees import (
    MultiPoly,
    UniPoly,
    characters,
    degree_sequence,
    genus,
    int_det,
    is_connected_cover,
    jacobian_group,
    jacobian_polynomial,
    kirchhoff_count,
    l_leading_at_one,
    labeled_jacobian_polynomial,
    laplacian,
    metric_l_reciprocal,
    metric_zeta_reciprocal,
    artin_l_reciprocal_three_term,
    ihara_zeta_reciprocal,
    pushforward_jacobian,
    twisted_laplacian_det,
    verify_main_theorem,
    weight_of_root,
    weight_polynomial,
    zeta_leading_at_one,
)
from helpers import (
    RANDOM_GROUPS,
    dumbbell_z6_spec,
    icosahedron_spec,
    is_loop,
    random_connected_multigraph,
    random_cover_spec,
    s3_cover_graph_and_labels,
)
from oracles import (
    contract,
    evaluate,
    matroid_rank,
    max_independent_size,
    spanning_trees,
    subdivide,
    substitute,
)

RANDOM_SUITE_SIZE = 200
FREE_SUITE_SIZE = 50
TREE_CAP = 50_000


@contextmanager
def criterion(number: int, label: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] FAIL {label} ({time.perf_counter() - start:.1f}s)")
        raise
    print(f"[criterion {number}] PASS {label} ({time.perf_counter() - start:.1f}s)")


@pytest.fixture(scope="module")
def random_suite():
    rng = random.Random(20260809)
    return [
        random_cover_spec(rng, tree_cap=TREE_CAP)
        for _ in range(RANDOM_SUITE_SIZE)
    ]


@pytest.fixture(scope="module")
def verified_suite(random_suite):
    return [verify_main_theorem(spec) for spec, _ in random_suite]


@pytest.fixture(scope="module")
def free_suite():
    rng = random.Random(987654)
    out = []
    for _ in range(FREE_SUITE_SIZE):
        spec, cover = random_cover_spec(
            rng,
            free=True,
            max_vertices=3,
            max_edges=4,
            groups=tuple(g for g in RANDOM_GROUPS if g.order <= 4),
        )
        lengths = {e: rng.randint(1, 2) for e in spec.base.edges}
        out.append((spec, cover, lengths))
    return out


@pytest.fixture(scope="module")
def worked_example_reports():
    return {
        "icosahedron": verify_main_theorem(icosahedron_spec()),
        "dumbbell": verify_main_theorem(dumbbell_z6_spec()),
    }


def test_criterion_1_icosahedron(worked_example_reports):
    with criterion(1, "icosahedron end to end"):
        report = worked_example_reports["icosahedron"]
        cover = report.cover
        assert len(cover.total.vertices) == 12
        assert len(cover.total.edges) == 30
        assert set(degree_sequence(cover.total)) == {5}
        assert is_connected_cover(cover)
        assert report.base_tree_count == 2

        for rep in report.characters:
            j = rep.character.exponents[0]
            f = weight_of_root(5, j)
            assert rep.rank == 4
            assert len(rep.bases) == 13
            for weight in rep.weights:
                assert weight in (f**0, f**1, f**2)
            assert rep.scalar == 5 + 7 * f + f * f
            want = 30 - 6 * 5**0.5 if j in (1, 4) else 30 + 6 * 5**0.5
            assert abs(rep.scalar.embed() - want) < 1e-9

        assert report.rhs_tree_count == 5_184_000
        assert report.lhs_tree_count == 5_184_000
        assert report.equal


def test_criterion_2_dumbbell(worked_example_reports):
    with criterion(2, "Z/6 dumbbell polynomials"):
        report = worked_example_reports["dumbbell"]
        x1, x2, x3 = (MultiPoly.variable(v) for v in ("e1", "e2", "e3"))
        expected = 12 * x1**5 * x2**4 * x3**2 * (x1 + 4 * x3) * (x2 + 3 * x3) ** 2
        assert report.polynomial_checked
        assert report.lhs_polynomial == expected
        assert report.rhs_polynomial == expected

        by_exponent = {rep.character.exponents[0]: rep for rep in report.characters}
        assert by_exponent[1].polynomial == x1 * x2 * x3
        assert by_exponent[5].polynomial == x1 * x2 * x3
        assert by_exponent[2].polynomial == x1 * x2 + 3 * x1 * x3
        assert by_exponent[4].polynomial == x1 * x2 + 3 * x1 * x3
        assert by_exponent[3].polynomial == x1 * x2 + 4 * x2 * x3

        assert report.lhs_tree_count == 960
        assert report.equal


def test_criterion_3_s3_theta_cover():
    with criterion(3, "S3 double hexagon polynomial"):
        graph, labels = s3_cover_graph_and_labels()
        poly = labeled_jacobian_polynomial(graph, labels)
        x, y, z = (MultiPoly.variable(v) for v in "xyz")
        expected = (
            6 * (x * y + x * z + y * z) * (x + z) * (4 * x * y + 4 * x * z + 3 * y**2 + 4 * y * z) ** 2
        )
        assert poly == expected


def test_criterion_4_random_main_theorem(random_suite, verified_suite):
    with criterion(4, f"{RANDOM_SUITE_SIZE} random covers, polynomial + integer identities"):
        assert len(verified_suite) == RANDOM_SUITE_SIZE
        for report in verified_suite:
            assert report.polynomial_checked, "cover exceeded the enumeration cap"
            assert report.equal
            assert report.lhs_polynomial == report.rhs_polynomial
            assert report.lhs_tree_count == report.rhs_tree_count
            assert jacobian_group(report.cover.total).order == report.rhs_tree_count


def test_criterion_5_determinant_identities(free_suite):
    with criterion(5, f"{FREE_SUITE_SIZE} free covers, determinant identities"):
        for spec, cover, lengths in free_suite:
            rhos = characters(spec.group)
            # (a) two-term equals three-term at unit lengths, zeta and all L
            assert metric_zeta_reciprocal(spec.base) == ihara_zeta_reciprocal(spec.base)
            for rho in rhos:
                assert metric_l_reciprocal(spec, rho) == artin_l_reciprocal_three_term(
                    spec, rho
                )
            # (b) the pulled-back metric zeta of the total graph factors over
            # all characters, as polynomials in s
            pulled = {te: lengths[be] for te, be in cover.edge_map.items()}
            lhs = metric_zeta_reciprocal(cover.total, pulled)
            rhs = UniPoly.const(1)
            for rho in rhos:
                rhs = rhs * metric_l_reciprocal(spec, rho, lengths)
            assert lhs == rhs
            # (c) twisted Laplacian determinant equals the scalar weight
            for rho in rhos:
                if rho.is_trivial():
                    continue
                assert twisted_laplacian_det(spec, rho) == weight_polynomial(
                    spec, rho
                ).scalar


def test_criterion_6_taylor_expansions(free_suite):
    with criterion(6, "Taylor expansions at s=1"):
        rng = random.Random(5150)
        for _ in range(30):
            g = random_connected_multigraph(rng, 4, 7, min_genus=2)
            lengths = {e: rng.randint(1, 3) for e in g.edges}
            gg = genus(g)
            order, coeff = zeta_leading_at_one(g, lengths)
            assert order == gg
            assert coeff == 2**gg * (-1) ** (gg + 1) * (gg - 1) * evaluate(
                jacobian_polynomial(g), lengths
            )
        for spec, _, lengths in free_suite[:15]:
            gg = genus(spec.base)
            for rho in characters(spec.group):
                if rho.is_trivial():
                    continue
                order, coeff = l_leading_at_one(spec, rho, lengths)
                assert order == gg - 1
                expected = (
                    2 ** (gg - 1)
                    * (-1) ** (gg - 1)
                    * evaluate(weight_polynomial(spec, rho).polynomial, lengths)
                )
                assert coeff == expected


def test_criterion_7_kirchhoff_contraction_subdivision():
    with criterion(7, "100 random multigraphs, Kirchhoff identities"):
        rng = random.Random(777)
        for _ in range(100):
            g = random_connected_multigraph(rng, 8, 14)
            lap = laplacian(g)
            n = len(g.vertices)
            i = rng.randrange(n)
            cofactor = int_det(
                [[lap[r][c] for c in range(n) if c != i] for r in range(n) if r != i]
            )
            jac = jacobian_group(g)
            trees = spanning_trees(g)
            poly = jacobian_polynomial(g)
            assert cofactor == jac.order == len(trees) == poly.value_at_ones()

            for e in g.edges:
                contracted, _ = contract(g, [e])
                pc = jacobian_polynomial(contracted)
                if is_loop(g, e):
                    assert pc == poly.exact_divide(MultiPoly.variable(e))
                else:
                    assert pc == substitute(poly, e, 0)

            lengths = {e: rng.randint(1, 3) for e in g.edges}
            assert kirchhoff_count(subdivide(g, lengths)) == evaluate(poly, lengths)


def test_criterion_8_pushforward(random_suite, worked_example_reports):
    with criterion(8, "pushforward surjectivity and kernel order"):
        ico = worked_example_reports["icosahedron"].cover
        report = pushforward_jacobian(ico)
        assert report.surjective and report.kernel_order == 2_592_000

        dumb = worked_example_reports["dumbbell"].cover
        report = pushforward_jacobian(dumb)
        assert report.surjective and report.kernel_order == 960

        for spec, cover in random_suite:
            rep = pushforward_jacobian(cover)
            assert rep.surjective
            assert (
                rep.kernel_order * jacobian_group(cover.base).order
                == jacobian_group(cover.total).order
            )


def _exchange_axiom_holds(basis_list) -> bool:
    basis_set = set(basis_list)
    for b1 in basis_set:
        for b2 in basis_set:
            for e in set(b1) - set(b2):
                if not any(
                    tuple(sorted((set(b1) - {e}) | {f})) in basis_set
                    for f in set(b2) - set(b1)
                ):
                    return False
    return True


def test_criterion_9_matroid_axioms(verified_suite, free_suite, worked_example_reports):
    with criterion(9, "matroid exchange axiom and rank formula"):
        matroids = []
        for report in worked_example_reports.values():
            matroids.extend(report.characters)
        for report in verified_suite:
            matroids.extend(report.characters)
        for spec, _, _ in free_suite:
            for rho in characters(spec.group):
                if rho.is_trivial():
                    continue
                matroids.append(weight_polynomial(spec, rho))

        assert matroids
        for matroid in matroids:
            assert all(len(b) == matroid.rank for b in matroid.bases)
            assert _exchange_axiom_holds(matroid.bases)
            assert matroid.rank == max_independent_size(
                matroid.spec, matroid.character
            )
            assert matroid.rank == matroid_rank(matroid.spec, matroid.character)
