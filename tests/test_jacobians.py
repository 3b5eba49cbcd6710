import random
from collections import Counter

import pytest

from galois_trees import (
    AbelianGroup,
    CoverSpec,
    MultiPoly,
    build_cover,
    build_graph,
    genus,
    int_det,
    jacobian_group,
    jacobian_polynomial,
    kirchhoff_count,
    labeled_jacobian_polynomial,
    laplacian,
    pushforward_jacobian,
    specialized_jacobian_polynomial,
    verify,
    verify_main_theorem,
)
from galois_trees.algebra import intmat, smith_diagonal, smith_normal_form
from galois_trees.algebra.modular import root_of_unity, split_prime
from galois_trees.errors import ExactDivisionError
from helpers import (
    count_searches,
    dumbbell_graph,
    dumbbell_z6_spec,
    icosahedron_spec,
    random_connected_multigraph,
    random_cover_spec,
    theta_graph,
    triangle_graph,
)
from oracles import (
    connected_components,
    contract,
    evaluate,
    is_homogeneous,
    spanning_trees,
    spanning_trees_bruteforce,
    subdivide,
    substitute,
    total_degree,
    valency_adjacency,
)


def test_laplacian_examples():
    assert laplacian(dumbbell_graph()) == [[1, -1], [-1, 1]]
    assert laplacian(triangle_graph()) == [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]
    loop = build_graph(["v"], [("e", "v", "v")])
    assert laplacian(loop) == [[0]]
    rng = random.Random(20)
    for _ in range(30):
        g = random_connected_multigraph(rng, 5, 9)
        q, a = valency_adjacency(g)
        assert laplacian(g) == [[x - y for x, y in zip(qr, ar)] for qr, ar in zip(q, a)]


def test_jacobian_group_examples():
    assert jacobian_group(triangle_graph()).invariant_factors == (3,)
    assert jacobian_group(triangle_graph()).order == 3
    assert jacobian_group(theta_graph()).invariant_factors == (3,)
    cover = build_cover(icosahedron_spec())
    assert jacobian_group(cover.total).order == 5_184_000


def test_jacobian_group_refuses_a_disconnected_graph_by_its_zero_count():
    disconnected = (
        build_graph(["u", "v"], []),
        build_graph(["u", "v"], [("e", "u", "u")]),
        build_graph(["a", "b", "c", "d"], [("e", "a", "b"), ("f", "c", "d"), ("g", "c", "d")]),
    )
    for g in disconnected:
        with pytest.raises(ValueError, match="requires a connected graph"):
            jacobian_group(g)
    for edges in ([], [("e", "v", "v")]):
        one_vertex = jacobian_group(build_graph(["v"], edges))
        assert one_vertex.invariant_factors == () and one_vertex.order == 1


def test_jacobian_polynomial_examples():
    x, y, z = (MultiPoly.variable(v) for v in ("e", "f", "g"))
    assert jacobian_polynomial(theta_graph()) == x * y + x * z + y * z

    x1, x2 = MultiPoly.variable("e1"), MultiPoly.variable("e2")
    assert jacobian_polynomial(dumbbell_graph()) == x1 * x2

    ico = icosahedron_spec().base
    expected = MultiPoly.variable("e2") * MultiPoly.variable("e3") * MultiPoly.variable("e5")
    expected = expected + MultiPoly.variable("e2") * MultiPoly.variable("e4") * MultiPoly.variable("e5")
    assert jacobian_polynomial(ico) == expected


def test_jacobian_polynomial_homogeneous():
    rng = random.Random(21)
    for _ in range(15):
        g = random_connected_multigraph(rng, 5, 8)
        p = jacobian_polynomial(g)
        assert is_homogeneous(p)
        assert total_degree(p) == genus(g)
        assert p.value_at_ones() == len(spanning_trees(g))


def test_specialized_polynomial_trivial_cover():
    spec = CoverSpec(base=theta_graph(), group=AbelianGroup((1,)))
    cover = build_cover(spec)
    assert specialized_jacobian_polynomial(cover) == jacobian_polynomial(theta_graph())


def test_specialized_polynomial_dumbbell():
    cover = build_cover(dumbbell_z6_spec())
    poly = specialized_jacobian_polynomial(cover)
    x1, x2, x3 = (MultiPoly.variable(v) for v in ("e1", "e2", "e3"))
    expected = 12 * x1**5 * x2**4 * x3**2 * (x1 + 4 * x3) * (x2 + 3 * x3) ** 2
    assert poly == expected
    assert poly.value_at_ones() == 960


def test_labeled_polynomial_matches_tree_enumeration():
    rng = random.Random(22)
    for _ in range(10):
        g = random_connected_multigraph(rng, 5, 8)
        labels = {e: rng.choice(["x", "y", "z"]) for e in g.edges}
        poly = labeled_jacobian_polynomial(g, labels)
        brute = MultiPoly.zero()
        for tree in spanning_trees(g):
            mono = MultiPoly.const(1)
            for e in g.edges:
                if e not in tree:
                    mono = mono * MultiPoly.variable(labels[e])
            brute = brute + mono
        assert poly == brute


def test_subdivide_examples():
    theta = theta_graph()
    sub = subdivide(theta, {"e": 2})
    assert len(sub.vertices) == 3 and len(sub.edges) == 4
    assert len(spanning_trees(sub)) == 5
    assert evaluate(jacobian_polynomial(theta), {"e": 2, "f": 1, "g": 1}) == 5

    assert subdivide(theta, {}) == theta
    assert subdivide(theta, {"e": 1, "f": 1, "g": 1}) == theta

    dumb = dumbbell_graph()
    sub = subdivide(dumb, {"e1": 3})
    assert kirchhoff_count(sub) == 3
    assert evaluate(jacobian_polynomial(dumb), {"e1": 3, "e2": 1, "e3": 1}) == 3

    with pytest.raises(ValueError, match="positive"):
        subdivide(theta, {"e": 0})


def test_subdivide_refuses_what_metric_zeta_refuses():
    theta = theta_graph()
    with pytest.raises(ValueError, match="unknown edge 'zz'"):
        subdivide(theta, {"zz": 3})
    for bad in (True, 2.5, 0, "2"):
        with pytest.raises(ValueError, match="positive integer"):
            subdivide(theta, {"e": bad})


def test_subdivision_counts_random():
    rng = random.Random(23)
    for _ in range(10):
        g = random_connected_multigraph(rng, 4, 7)
        lengths = {e: rng.randint(1, 3) for e in g.edges}
        sub = subdivide(g, lengths)
        assert kirchhoff_count(sub) == evaluate(jacobian_polynomial(g), lengths)


def test_pushforward_examples():
    cover = build_cover(icosahedron_spec())
    report = pushforward_jacobian(cover)
    assert report.surjective
    assert report.kernel_order == 2_592_000

    trivial = build_cover(CoverSpec(base=theta_graph(), group=AbelianGroup((1,))))
    report = pushforward_jacobian(trivial)
    assert report.surjective and report.kernel_order == 1

    dumb = build_cover(dumbbell_z6_spec())
    report = pushforward_jacobian(dumb)
    assert report.surjective and report.kernel_order == 960


def test_pushforward_product_random():
    rng = random.Random(24)
    for _ in range(8):
        spec, cover = random_cover_spec(rng, max_vertices=4, max_edges=6)
        report = pushforward_jacobian(cover)
        assert report.surjective
        assert (
            report.kernel_order * jacobian_group(cover.base).order
            == jacobian_group(cover.total).order
        )


def test_jacobian_group_of_a_large_cover_matches_kirchhoff():
    cover = build_cover(icosahedron_spec(120))
    assert len(cover.total.vertices) == 242
    group = jacobian_group(cover.total)
    assert group.order == kirchhoff_count(cover.total)
    assert len(group.invariant_factors) == 5


def test_pushforward_on_a_large_cover_runs_dense_smith_on_the_remainder(monkeypatch):
    sizes = []
    dense = intmat.smith_normal_form

    def recording(rows, *args, **kwargs):
        sizes.append(len(rows))
        return dense(rows, *args, **kwargs)

    monkeypatch.setattr(intmat, "smith_normal_form", recording)
    spec = CoverSpec(
        base=theta_graph(), group=AbelianGroup((80,)), voltage={"f": (1,), "g": (3,)}
    )
    cover = build_cover(spec)
    report = pushforward_jacobian(cover)
    # the base and total critical groups, then the stacked [push | relations]
    assert len(sizes) == 3 and max(sizes) <= 12
    assert report.kernel_order * jacobian_group(cover.base).order == (
        jacobian_group(cover.total).order
    )


def test_theta_cover_at_z400_matches_the_twisted_laplacians():
    # a free Z/N cover of the theta graph (2 vertices, 3 edges, voltages
    # 0, 1, 3): 2N·κ(cover) = 2·3 · ∏_{a≠0} det L_a, where the twisted
    # Laplacian L_a = [[3, -t], [-t̄, 3]] has t = 1 + ω^a + ω^{3a}
    n = 400
    spec = CoverSpec(base=theta_graph(), group=AbelianGroup((n,)), voltage={"f": (1,), "g": (3,)})
    order = jacobian_group(build_cover(spec).total).order
    p = split_prime(n, 0)
    w = root_of_unity(n, p)
    product = 3 * pow(n, -1, p)
    for a in range(1, n):
        t = 1 + pow(w, a, p) + pow(w, 3 * a, p)
        t_bar = 1 + pow(w, -a, p) + pow(w, -3 * a, p)
        product = product * (9 - t * t_bar) % p
    assert order % p == product


def test_theta_cover_at_z2000_matches_the_twisted_laplacians(monkeypatch):
    # as at Z/400, with a group order of about 4,300 bits; the unit pivots
    # leave a small dense remainder of entries thousands of bits long
    sizes = []
    dense = intmat.smith_normal_form

    def recording(rows, *args, **kwargs):
        sizes.append(len(rows))
        return dense(rows, *args, **kwargs)

    monkeypatch.setattr(intmat, "smith_normal_form", recording)
    n = 2000
    spec = CoverSpec(base=theta_graph(), group=AbelianGroup((n,)), voltage={"f": (1,), "g": (3,)})
    order = jacobian_group(build_cover(spec).total).order
    assert len(sizes) == 1 and sizes[0] <= 12
    p = split_prime(n, 0)
    w = root_of_unity(n, p)
    product = 3 * pow(n, -1, p)
    for a in range(1, n):
        t = 1 + pow(w, a, p) + pow(w, 3 * a, p)
        t_bar = 1 + pow(w, -a, p) + pow(w, -3 * a, p)
        product = product * (9 - t * t_bar) % p
    assert order % p == product


def test_icosahedron_cover_at_z400_leaves_a_small_dense_remainder(monkeypatch):
    sizes = []
    dense = intmat.smith_normal_form

    def recording(rows, *args, **kwargs):
        sizes.append(len(rows))
        return dense(rows, *args, **kwargs)

    monkeypatch.setattr(intmat, "smith_normal_form", recording)
    cover = build_cover(icosahedron_spec(400))
    assert len(cover.total.vertices) == 802
    jacobian_group(cover.total)
    assert len(sizes) == 1 and sizes[0] <= 20


def _sparse_matrix_with_hubs(rng):
    """A random sparse integer matrix whose ±1 entries are scarce, with one
    or two hub columns that are nonzero in most rows."""
    nr, nc = rng.randint(2, 12), rng.randint(2, 12)
    hubs = rng.sample(range(nc), min(nc, rng.randint(1, 2)))
    m = [[0] * nc for _ in range(nr)]
    for row in m:
        for j in rng.sample(range(nc), rng.randint(0, min(nc, 3))):
            row[j] = rng.choice([-3, -2, -1, 1, 2, 2, 3, 4, 6])
        for j in hubs:
            if rng.random() < 0.8:
                row[j] = rng.choice([-2, -1, 2, 3, 4, 6])
    return m


def test_smith_diagonal_matches_dense_on_sparse_matrices_with_hubs():
    rng = random.Random(41)
    units = 0
    for _ in range(300):
        m = _sparse_matrix_with_hubs(rng)
        units += sum(abs(x) == 1 for row in m for x in row)
        assert smith_diagonal(m) == smith_normal_form(m)
    assert units


def test_unit_pivot_has_least_markowitz_cost(monkeypatch):
    search = intmat._unit_pivot
    searches = []

    def checked(live, holders, row_bucket, col_bucket, top):
        for i, row in live.items():
            assert i in row_bucket.get(len(row), ())
        counts = {j: len(holders[j]) for bucket in col_bucket.values() for j in bucket}
        for k, bucket in col_bucket.items():
            assert all(counts[j] == k for j in bucket)
        costs = [
            (len(row) - 1) * (counts[j] - 1)
            for row in live.values()
            for j, x in row.items()
            if x in (1, -1)
        ]
        pivot = search(live, holders, row_bucket, col_bucket, top)
        if pivot is None:
            assert not costs
        else:
            i, j = pivot
            assert live[i][j] in (1, -1)
            assert (len(live[i]) - 1) * (counts[j] - 1) == min(costs)
        searches.append(pivot)
        return pivot

    monkeypatch.setattr(intmat, "_unit_pivot", checked)
    rng = random.Random(42)
    for _ in range(60):
        m = _sparse_matrix_with_hubs(rng)
        assert smith_diagonal(m) == smith_normal_form(m)
    cover = build_cover(icosahedron_spec(60))
    assert jacobian_group(cover.total).order == kirchhoff_count(cover.total)
    assert len(searches) > 300 and None in searches


def test_kirchhoff_identities_random():
    rng = random.Random(25)
    for _ in range(15):
        g = random_connected_multigraph(rng, 6, 10)
        lap = laplacian(g)
        n = len(g.vertices)
        # any cofactor: delete a random row and the same column
        i = rng.randrange(n)
        reduced = [
            [lap[r][c] for c in range(n) if c != i] for r in range(n) if r != i
        ]
        cof = int_det(reduced)
        assert cof == kirchhoff_count(g)
        assert cof == jacobian_group(g).order
        assert cof == len(spanning_trees(g))
        assert cof == jacobian_polynomial(g).value_at_ones()


def test_contraction_lemma_every_edge():
    rng = random.Random(26)
    for _ in range(10):
        g = random_connected_multigraph(rng, 5, 8)
        p = jacobian_polynomial(g)
        for e in g.edges:
            contracted, _ = contract(g, [e])
            pc = jacobian_polynomial(contracted)
            if g.is_loop(e):
                assert pc == p.exact_divide(MultiPoly.variable(e))
            else:
                assert pc == substitute(p, e, 0)


def test_base_polynomial_divides_cover_polynomial():
    rng = random.Random(27)
    for _ in range(6):
        spec, cover = random_cover_spec(
            rng, max_vertices=3, max_edges=5, tree_cap=20_000
        )
        total_poly = specialized_jacobian_polynomial(cover)
        base_poly = jacobian_polynomial(spec.base)
        quotient = total_poly.exact_divide(base_poly)
        assert quotient * base_poly == total_poly


def test_divide_failure_reports_remainder():
    p = jacobian_polynomial(theta_graph())
    with pytest.raises(ExactDivisionError):
        p.exact_divide(MultiPoly.variable("e"))


def test_disconnected_inputs_error():
    g = build_graph(["a", "b"], [])
    with pytest.raises(ValueError):
        jacobian_group(g)
    with pytest.raises(ValueError):
        jacobian_polynomial(g)
    with pytest.raises(ValueError):
        kirchhoff_count(g)


def _bruteforce_tree_polynomial(g, labels):
    terms = Counter()
    for tree in spanning_trees_bruteforce(g):
        complement = Counter(labels[e] for e in g.edges if e not in tree)
        terms[tuple(sorted(complement.items()))] += 1
    return MultiPoly(terms)


def test_tree_sweep_matches_bruteforce_random():
    rng = random.Random(31)
    seen = Counter()
    for _ in range(300):
        g = random_connected_multigraph(rng, 6, 10)
        labels = {e: rng.choice("xyz") for e in g.edges}
        assert labeled_jacobian_polynomial(g, labels) == _bruteforce_tree_polynomial(g, labels)
        assert spanning_trees(g) == spanning_trees_bruteforce(g)
        bundles = Counter(
            (frozenset(g.ends[e]), labels[e]) for e in g.edges if not g.is_loop(e)
        )
        seen["loop"] += any(g.is_loop(e) for e in g.edges)
        seen["bundle"] += any(k > 1 for k in bundles.values())
        seen["one vertex"] += len(g.vertices) == 1
    # the population has loops, parallel edges sharing a label, single vertices
    assert min(seen.values()) > 0 and len(seen) == 3
    # wider graphs, whose frontiers free and refill slots, on two or three labels
    for _ in range(30):
        g = random_connected_multigraph(rng, 8, 13)
        names = "xyz"[: rng.randint(2, 3)]
        labels = {e: rng.choice(names) for e in g.edges}
        assert labeled_jacobian_polynomial(g, labels) == _bruteforce_tree_polynomial(g, labels)
    # "w" is carried by loops only, and "x" by 1, 2, 4 or 8 edges, a loop
    # among them from 2 on: a field sized by non-loop edges alone would
    # carry into its neighbour
    for total in (1, 2, 4, 8):
        for _ in range(15):
            others = total - (total > 1)
            g = random_connected_multigraph(rng, 5, 9)
            while len(g.edges) < others:
                g = random_connected_multigraph(rng, 5, 9)
            loops = [(f"l{i}", v, v) for i, v in enumerate(rng.choices(g.vertices, k=3))]
            x_edges = ["l2"] * (total > 1) + rng.sample(g.edges, others)
            g = build_graph(g.vertices, [(e, *g.ends[e]) for e in g.edges] + loops)
            labels = {e: rng.choice("yz") for e in g.edges}
            labels |= {"l0": "w", "l1": "w"} | dict.fromkeys(x_edges, "x")
            assert Counter(labels.values())["x"] == total
            assert labeled_jacobian_polynomial(g, labels) == _bruteforce_tree_polynomial(g, labels)
            assert spanning_trees(g) == spanning_trees_bruteforce(g)


def test_tree_enumeration_on_long_cycle():
    # one bundle per edge: far more bundles than the default recursion limit
    n = 1100
    names = [f"v{i:04d}" for i in range(n)]
    g = build_graph(names, [(f"e{i:04d}", names[i], names[(i + 1) % n]) for i in range(n)])
    assert jacobian_polynomial(g).value_at_ones() == 1100
    assert len(spanning_trees(g)) == 1100


def test_icosahedron_exact_polynomial_check(monkeypatch):
    monkeypatch.setattr(verify, "DEFAULT_ENUMERATION_CAP", 10**7)
    report = verify_main_theorem(icosahedron_spec())
    assert report.polynomial_checked
    assert report.lhs_polynomial == report.rhs_polynomial
    assert report.lhs_polynomial.value_at_ones() == 5_184_000
    assert report.equal


def test_tree_polynomials_refuse_a_disconnected_cover_in_the_sweep():
    cover = build_cover(CoverSpec(base=theta_graph(), group=AbelianGroup((2,))))
    assert len(connected_components(cover.total)) == 2
    for call in (
        lambda: labeled_jacobian_polynomial(cover.total, cover.edge_map),
        lambda: labeled_jacobian_polynomial(cover.total),
        lambda: specialized_jacobian_polynomial(cover),
    ):
        with pytest.raises(ValueError, match="connected"):
            call()


def test_tree_polynomial_makes_no_components_pass(monkeypatch):
    """The sweep decides connectivity itself: its two breadth-first searches
    per call are the only searches of the cover, so any extra connectivity
    pass (``is_connected``, or any other search) fails the count."""
    cover = build_cover(icosahedron_spec())
    searched = count_searches(monkeypatch)
    assert labeled_jacobian_polynomial(cover.total, cover.edge_map).value_at_ones() == 5_184_000
    assert searched == [len(cover.total.vertices)] * 2
    assert specialized_jacobian_polynomial(cover).value_at_ones() == 5_184_000
    assert searched == [len(cover.total.vertices)] * 4
