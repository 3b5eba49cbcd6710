import random
from fractions import Fraction
from math import gcd

import pytest

from galois_trees import (
    AbelianGroup,
    CoverSpec,
    CycInt,
    UniPoly,
    artin_l_reciprocal_three_term,
    build_cover,
    build_graph,
    characters,
    closed_path_census,
    free_resolution,
    genus,
    ihara_zeta_reciprocal,
    jacobian_polynomial,
    l_leading_at_one,
    metric_l_reciprocal,
    metric_zeta_reciprocal,
    subdivide,
    twisted_laplacian_det,
    weight_polynomial,
    zeta_leading_at_one,
)
from galois_trees.algebra import intmat, modular
from helpers import (
    count_calls,
    count_searches,
    dumbbell_graph,
    dumbbell_z6_spec,
    icosahedron_spec,
    random_connected_multigraph,
    random_cover_spec,
    theta_graph,
    triangle_graph,
)

S = UniPoly.monomial(1)


def test_triangle_zeta():
    two = metric_zeta_reciprocal(triangle_graph())
    three = ihara_zeta_reciprocal(triangle_graph())
    assert two == three == (1 - S**3) ** 2


def test_cycle_zeta_via_subdivision():
    loop = build_graph(["v"], [("e", "v", "v")])
    for n in (1, 2, 4, 5):
        cycle = subdivide(loop, {"e": n})
        assert metric_zeta_reciprocal(cycle) == (1 - S**n) ** 2
    # the same polynomial comes from the loop with length n
    assert metric_zeta_reciprocal(loop, {"e": 4}) == (1 - S**4) ** 2


def test_theta_two_vs_three_term():
    assert metric_zeta_reciprocal(theta_graph()) == ihara_zeta_reciprocal(theta_graph())
    assert metric_zeta_reciprocal(dumbbell_graph()) == ihara_zeta_reciprocal(
        dumbbell_graph()
    )


def test_two_vs_three_term_random():
    rng = random.Random(41)
    for _ in range(12):
        g = random_connected_multigraph(rng, 5, 8)
        assert metric_zeta_reciprocal(g) == ihara_zeta_reciprocal(g)


def test_l_at_trivial_character_is_zeta():
    spec = CoverSpec(base=theta_graph(), group=AbelianGroup((3,)), voltage={"e": (1,)})
    trivial = characters(spec.group)[0]
    assert metric_l_reciprocal(spec, trivial) == metric_zeta_reciprocal(theta_graph())
    assert artin_l_reciprocal_three_term(spec, trivial) == ihara_zeta_reciprocal(
        theta_graph()
    )
    # the untwisted forms are the trivial character's on any base, loops included
    rng = random.Random(46)
    loops = 0
    for _ in range(8):
        g = random_connected_multigraph(rng, 4, 7)
        loops += sum(g.is_loop(e) for e in g.edges)
        lengths = {e: rng.randint(1, 3) for e in g.edges}
        spec = CoverSpec(base=g, group=AbelianGroup((3,)))
        trivial = characters(spec.group)[0]
        assert metric_l_reciprocal(spec, trivial, lengths) == metric_zeta_reciprocal(
            g, lengths
        )
        assert artin_l_reciprocal_three_term(spec, trivial) == ihara_zeta_reciprocal(g)
    assert loops


def test_z2_loop_l_function():
    loop = build_graph(["v"], [("e", "v", "v")])
    spec = CoverSpec(base=loop, group=AbelianGroup((2,)), voltage={"e": (1,)})
    rho = characters(spec.group)[1]
    expected = (1 + S) ** 2
    assert metric_l_reciprocal(spec, rho) == expected
    assert artin_l_reciprocal_three_term(spec, rho) == expected


def test_z3_loop_three_term():
    loop = build_graph(["v"], [("e", "v", "v")])
    spec = CoverSpec(base=loop, group=AbelianGroup((3,)), voltage={"e": (1,)})
    rho = characters(spec.group)[1]
    assert artin_l_reciprocal_three_term(spec, rho) == 1 + S + S**2


def test_l_two_vs_three_term_random_free():
    rng = random.Random(42)
    for _ in range(8):
        spec, _ = random_cover_spec(rng, free=True, max_vertices=4, max_edges=6)
        for rho in characters(spec.group):
            assert metric_l_reciprocal(spec, rho) == artin_l_reciprocal_three_term(
                spec, rho
            )


def test_l_two_vs_three_term_dumbbell_resolution():
    resolved, _ = free_resolution(dumbbell_z6_spec())
    for rho in characters(resolved.group):
        assert metric_l_reciprocal(resolved, rho) == artin_l_reciprocal_three_term(
            resolved, rho
        )


def test_l_requires_free_cover():
    spec = dumbbell_z6_spec()
    rho = characters(spec.group)[1]
    with pytest.raises(ValueError, match="no dilation"):
        metric_l_reciprocal(spec, rho)
    with pytest.raises(ValueError, match="no dilation"):
        artin_l_reciprocal_three_term(spec, rho)
    with pytest.raises(ValueError, match="no dilation"):
        twisted_laplacian_det(spec, rho)


def test_lengths_must_be_positive_ints_not_bools():
    g = theta_graph()
    assert metric_zeta_reciprocal(g, {"e": 1}) == metric_zeta_reciprocal(g)
    for bad in (True, False, 0, -1, 1.0, "2"):
        with pytest.raises(ValueError, match="positive integer"):
            metric_zeta_reciprocal(g, {"e": bad})


@pytest.mark.parametrize("orders", [(5,), (8,), (12,), (2, 4)])
def test_l_functions_of_galois_conjugate_characters(orders):
    # L(s, rho^k) = sigma_k L(s, rho) and det(Q - A_{rho^k}) = sigma_k det(Q - A_rho):
    # sigma_k maps each twisted matrix to the one of rho^k
    group = AbelianGroup(orders)
    m = group.exponent
    units = [k for k in range(2, m) if gcd(k, m) == 1]
    rng = random.Random(sum(orders) * 101 + len(orders))
    for _ in range(2):
        spec, _ = random_cover_spec(
            rng, free=True, max_vertices=3, max_edges=4, groups=(group,)
        )
        lengths = {e: rng.randint(1, 2) for e in spec.base.edges}
        for rho in characters(group):
            l_rho = metric_l_reciprocal(spec, rho, lengths)
            assert all(isinstance(c, CycInt) and c.conductor == m for c in l_rho.coeffs)
            det = None if rho.is_trivial() else twisted_laplacian_det(spec, rho)
            for k in units:
                conjugate = UniPoly([c.galois(k) for c in l_rho.coeffs])
                assert metric_l_reciprocal(spec, rho.power(k), lengths) == conjugate
                if det is not None:
                    assert twisted_laplacian_det(spec, rho.power(k)) == det.galois(k)


def test_twisted_laplacian_examples():
    wedge = build_graph(["v"], [("a", "v", "v"), ("b", "v", "v")])
    spec = CoverSpec(base=wedge, group=AbelianGroup((5,)), voltage={"a": (1,)})
    from galois_trees import weight_of_root

    assert twisted_laplacian_det(spec, characters(spec.group)[1]) == weight_of_root(5, 1)

    loop = build_graph(["v"], [("e", "v", "v")])
    spec2 = CoverSpec(base=loop, group=AbelianGroup((2,)), voltage={"e": (1,)})
    assert twisted_laplacian_det(spec2, characters(spec2.group)[1]).as_int() == 4

    resolved, _ = free_resolution(icosahedron_spec())
    for rho in characters(resolved.group):
        if rho.is_trivial():
            continue
        det = twisted_laplacian_det(resolved, rho)
        assert det == weight_polynomial(resolved, rho).scalar
        assert det.conj() == det
        embedded = det.embed()
        assert abs(embedded.imag) < 1e-9 and embedded.real > 0

    with pytest.raises(ValueError, match="trivial"):
        twisted_laplacian_det(spec, characters(spec.group)[0])


def test_zeta_factorization_over_characters():
    rng = random.Random(43)
    for _ in range(5):
        spec, cover = random_cover_spec(rng, free=True, max_vertices=3, max_edges=4)
        lengths = {e: rng.randint(1, 2) for e in spec.base.edges}
        pulled = {te: lengths[spec_edge] for te, spec_edge in cover.edge_map.items()}
        lhs = metric_zeta_reciprocal(cover.total, pulled)
        rhs = UniPoly.const(1)
        for rho in characters(spec.group):
            rhs = rhs * metric_l_reciprocal(spec, rho, lengths)
        assert lhs == rhs


def test_zeta_taylor_theta():
    order, coeff = zeta_leading_at_one(theta_graph())
    assert order == 2 and coeff == -12
    order, coeff = zeta_leading_at_one(theta_graph(), {"e": 2, "f": 1, "g": 1})
    assert order == 2 and coeff == -20


def test_zeta_taylor_matches_tree_polynomial():
    rng = random.Random(44)
    for _ in range(8):
        g = random_connected_multigraph(rng, 4, 7, min_genus=2)
        lengths = {e: rng.randint(1, 3) for e in g.edges}
        gg = genus(g)
        order, coeff = zeta_leading_at_one(g, lengths)
        assert order == gg
        expected = (
            2**gg * (-1) ** (gg + 1) * (gg - 1) * jacobian_polynomial(g).evaluate(lengths)
        )
        assert coeff == expected


def test_zeta_taylor_rejects_low_genus():
    with pytest.raises(ValueError, match="genus"):
        zeta_leading_at_one(build_graph(["v"], [("e", "v", "v")]))


def test_three_term_forms_and_leading_order_search_the_graph_once(monkeypatch):
    spec = CoverSpec(base=theta_graph(), group=AbelianGroup((3,)), voltage={"f": (1,)})
    rho = characters(spec.group)[1]
    searched = count_searches(monkeypatch)
    for call in (
        lambda: ihara_zeta_reciprocal(spec.base),
        lambda: artin_l_reciprocal_three_term(spec, rho),
        lambda: zeta_leading_at_one(spec.base),
    ):
        searched.clear()
        call()
        assert searched == [2]  # the connectivity check; the genus is read after it


def test_l_taylor_matches_weight_polynomial():
    rng = random.Random(45)
    for _ in range(6):
        spec, _ = random_cover_spec(rng, free=True, max_vertices=4, max_edges=6)
        lengths = {e: rng.randint(1, 3) for e in spec.base.edges}
        gg = genus(spec.base)
        for rho in characters(spec.group):
            if rho.is_trivial():
                continue
            order, coeff = l_leading_at_one(spec, rho, lengths)
            assert order == gg - 1
            report = weight_polynomial(spec, rho)
            expected = (
                2 ** (gg - 1)
                * (-1) ** (gg - 1)
                * report.polynomial.evaluate(lengths)
            )
            assert coeff == expected


def test_l_taylor_dumbbell_resolution():
    resolved, _ = free_resolution(dumbbell_z6_spec())
    gg = genus(resolved.base)
    rho = characters(resolved.group)[2]
    order, coeff = l_leading_at_one(resolved, rho)
    assert order == gg - 1
    expected = 2 ** (gg - 1) * (-1) ** (gg - 1) * weight_polynomial(
        resolved, rho
    ).polynomial.value_at_ones()
    assert coeff == expected


def _unit_edge_matrix(g):
    oriented = [(e, d) for e in g.edges for d in (1, -1)]

    def tail(oe):
        s, t = g.ends[oe[0]]
        return s if oe[1] == 1 else t

    def head(oe):
        s, t = g.ends[oe[0]]
        return t if oe[1] == 1 else s

    size = len(oriented)
    w = [[0] * size for _ in range(size)]
    for i, a in enumerate(oriented):
        for j, b in enumerate(oriented):
            if tail(b) == head(a) and not (b[0] == a[0] and b[1] == -a[1]):
                w[i][j] = 1
    return w


def _matpow_trace(w, m):
    size = len(w)
    acc = [row[:] for row in w]
    for _ in range(m - 1):
        acc = [
            [sum(acc[i][k] * w[k][j] for k in range(size)) for j in range(size)]
            for i in range(size)
        ]
    return sum(acc[i][i] for i in range(size))


def test_census_examples():
    tri = triangle_graph()
    counts = closed_path_census(tri, 6)
    assert counts[3] == 6
    w = _unit_edge_matrix(tri)
    for m in range(1, 7):
        assert counts[m] == _matpow_trace(w, m)

    path = build_graph(["a", "b"], [("e", "a", "b")])
    assert all(v == 0 for v in closed_path_census(path, 6).values())

    loop = build_graph(["v"], [("e", "v", "v")])
    counts = closed_path_census(loop, 5)
    wl = _unit_edge_matrix(loop)
    for m in range(1, 6):
        assert counts[m] == _matpow_trace(wl, m)

    rng = random.Random(47)
    loops = parallel = 0
    for _ in range(8):
        g = random_connected_multigraph(rng, 4, 6)
        loops += sum(g.is_loop(e) for e in g.edges)
        parallel += len(g.edges) - len({frozenset(ends) for ends in g.ends.values()})
        counts = closed_path_census(g, 5)
        w = _unit_edge_matrix(g)
        for m in range(1, 6):
            assert counts[m] == _matpow_trace(w, m)
    assert loops and parallel

    bouquet = build_graph(["v"], [(f"e{i}", "v", "v") for i in range(4)])
    counts = closed_path_census(bouquet, 12)
    wb = _unit_edge_matrix(bouquet)
    for m in range(1, 13):
        assert counts[m] == _matpow_trace(wb, m)


def test_census_matches_log_series():
    # log of 1/det(I - W) should be sum N_m s^m / m, as a formal series
    max_len = 6
    for g in (triangle_graph(), theta_graph(), dumbbell_graph()):
        counts = closed_path_census(g, max_len)
        p = ihara_zeta_reciprocal(g).coeffs
        # -log(p) truncated: p = 1 + q
        q = [Fraction(c) for c in p]
        q[0] -= 1
        series = [Fraction(0)] * (max_len + 1)
        power = [Fraction(1)] + [Fraction(0)] * max_len
        for k in range(1, max_len + 1):
            new = [Fraction(0)] * (max_len + 1)
            for i, a in enumerate(power):
                if a:
                    for jj, b in enumerate(q):
                        if jj and i + jj <= max_len:
                            new[i + jj] += a * b
                        elif jj == 0 and b and i <= max_len:
                            new[i] += a * b
            power = new
            for idx in range(max_len + 1):
                series[idx] += Fraction((-1) ** (k + 1), k) * power[idx]
        for m in range(1, max_len + 1):
            assert -series[m] == Fraction(counts[m], m)


def test_census_bound():
    with pytest.raises(ValueError, match="cap"):
        closed_path_census(triangle_graph(), 13)
    for length in (0, -1):
        with pytest.raises(ValueError, match="at least 1"):
            closed_path_census(triangle_graph(), length)


def test_icosahedron_resolution_l_leading_consistency():
    resolved, _ = free_resolution(icosahedron_spec())
    rho = characters(resolved.group)[1]
    order, coeff = l_leading_at_one(resolved, rho)
    gg = genus(resolved.base)
    assert order == gg - 1
    expected = 2 ** (gg - 1) * (-1) ** (gg - 1) * weight_polynomial(
        resolved, rho
    ).polynomial.value_at_ones()
    assert coeff == expected


def _recorded_bounds(monkeypatch):
    """The bound B of each ``det_over_ring`` call, as its primes are chosen for it."""
    bounds, det_bound = [], intmat._det_bound
    monkeypatch.setattr(
        intmat, "_det_bound", lambda entries, m: (bounds.append(det_bound(entries, m)), bounds[-1])[1]
    )
    return bounds


def test_metric_zeta_of_a_32_edge_matrix_takes_one_prime(monkeypatch):
    rng = random.Random(2)
    spec, cover = random_cover_spec(
        rng, free=True, max_vertices=3, max_edges=4, groups=(AbelianGroup((4,)),)
    )
    while len(spec.base.edges) < 4:
        spec, cover = random_cover_spec(
            rng, free=True, max_vertices=3, max_edges=4, groups=(AbelianGroup((4,)),)
        )
    lengths = {e: rng.randint(1, 2) for e in cover.total.edges}
    expected = metric_zeta_reciprocal(cover.total, lengths)
    bounds, indices = _recorded_bounds(monkeypatch), []
    find_prime = modular.split_prime
    # no limit argument: a call for a prime below 2^30 would raise TypeError
    monkeypatch.setattr(
        modular, "split_prime", lambda m, i: (indices.append(i), find_prime(m, i))[1]
    )
    got = metric_zeta_reciprocal(cover.total, lengths)
    assert len(cover.total.edges) == 16 and got == expected
    # the Hadamard bound B has 2^30 <= 2B < 2^59: no prime below 2^30 exceeds
    # it and one prime below 2^60 does, for the CRT; index 1 is the extra check
    assert len(bounds) == 1 and 2**30 <= 2 * bounds[0] < 2**59
    assert indices == [0, 1]


def test_edge_matrix_determinant_is_one_charpoly_per_prime(monkeypatch):
    spec = CoverSpec(
        base=theta_graph(), group=AbelianGroup((16,)), voltage={"f": (1,), "g": (3,)}
    )
    total = build_cover(spec).total
    bounds = _recorded_bounds(monkeypatch)
    charpolys = count_calls(monkeypatch, intmat, "charpoly_mod")
    dets = count_calls(monkeypatch, intmat, "det_mod")
    zeta = metric_zeta_reciprocal(total)
    # 96 x 96 at unit lengths, 2^60 <= 2B < 2^118: two primes below 2^60 and
    # one embedding, then the check
    assert len(bounds) == 1 and 2**60 <= 2 * bounds[0] < 2**118
    assert charpolys == [modular.split_prime(1, 0), modular.split_prime(1, 1)]
    assert dets == [modular.split_prime(1, 2)]
    product = UniPoly.const(1)
    for rho in characters(spec.group):
        product = product * metric_l_reciprocal(spec, rho)
    assert product == zeta and zeta.degree == 96


def test_long_lengths_keep_interpolation(monkeypatch):
    from galois_trees.algebra import intmat

    lengths = {"e": 50, "f": 51, "g": 1}
    charpolys = count_calls(monkeypatch, intmat, "charpoly_mod")
    got = metric_zeta_reciprocal(theta_graph(), lengths)
    # N = 204 unit steps for a 6 x 6 matrix: 204^3 > 205 * 6^3
    assert not charpolys
    # the subdivided graph at unit lengths is 204 x 204 and takes the unit-step route
    assert got == metric_zeta_reciprocal(subdivide(theta_graph(), lengths))
    assert charpolys


def test_l_functions_reject_a_character_of_another_group():
    spec = CoverSpec(
        base=theta_graph(), group=AbelianGroup((4,)), voltage={"e": (1,), "f": (2,)}
    )
    rho = characters(AbelianGroup((6,)))[1]
    for entry in (metric_l_reciprocal, artin_l_reciprocal_three_term, twisted_laplacian_det):
        with pytest.raises(ValueError, match="different group"):
            entry(spec, rho)
    with pytest.raises(ValueError, match="different group"):
        l_leading_at_one(spec, rho)


def _trees():
    """A single vertex, a path and a star: the connected graphs of genus 0."""
    return [
        build_graph(["v"], []),
        build_graph(["a", "b", "c", "d"], [("e", "a", "b"), ("f", "b", "c"), ("g", "c", "d")]),
        build_graph(["o", "x", "y", "z"], [("e", "o", "x"), ("f", "o", "y"), ("g", "z", "o")]),
    ]


# a path of three vertices over Z/3, voltage 1 on one edge
PATH_Z3 = CoverSpec(
    base=build_graph(["a", "b", "c"], [("e", "a", "b"), ("f", "b", "c")]),
    group=AbelianGroup((3,)),
    voltage={"e": (1,)},
)


def test_zeta_reciprocals_of_trees_are_one():
    for g in _trees():
        assert genus(g) == 0
        got = ihara_zeta_reciprocal(g)
        assert got == UniPoly.const(1) and got == metric_zeta_reciprocal(g)
        assert got.coeffs == (1,) and type(got.coeffs[0]) is int


def test_l_reciprocals_on_a_tree_are_one():
    for rho in characters(PATH_Z3.group):
        got = artin_l_reciprocal_three_term(PATH_Z3, rho)
        assert got == UniPoly.const(1) and got == metric_l_reciprocal(PATH_Z3, rho)
        assert got.coeffs == (CycInt.from_int(3, 1),) and isinstance(got.coeffs[0], CycInt)


def test_determinant_on_a_tree_is_checked(monkeypatch):
    from galois_trees import zeta

    monkeypatch.setattr(zeta, "det_over_ring", lambda rows: UniPoly((1, 0, -1, 1)))
    with pytest.raises(AssertionError, match="on a tree"):
        ihara_zeta_reciprocal(_trees()[1])
    with pytest.raises(AssertionError, match="on a tree"):
        artin_l_reciprocal_three_term(PATH_Z3, characters(PATH_Z3.group)[1])


def test_twisted_laplacian_of_a_point_is_a_cycint():
    """A one-vertex edgeless base has no entry to carry the conductor: the
    diagonal still does (its Ihara reciprocal is checked with the trees)."""
    spec = CoverSpec(base=_trees()[0], group=AbelianGroup((3,)))
    det = twisted_laplacian_det(spec, characters(spec.group)[1])
    assert isinstance(det, CycInt) and det == CycInt.from_int(3, 0)


def _dense_three_term_and_laplacian(spec, rho):
    """The two-vertex reference: dense A_rho, each edge's value at (s, t) and
    its conjugate at (t, s); the 2 x 2 determinants written out."""
    g = spec.base
    assert len(g.vertices) == 2
    idx = {v: i for i, v in enumerate(g.vertices)}
    zero = CycInt.from_int(spec.group.exponent, 0)
    a = [[zero, zero], [zero, zero]]
    for e in g.edges:
        s, t = (idx[v] for v in g.ends[e])
        value = rho.cyc_value(spec.voltage_on(e))
        a[s][t] = a[s][t] + value
        a[t][s] = a[t][s] + value.conj()
    q = [g.valency(v) for v in g.vertices]
    m = [[(i == j) - a[i][j] * S + (i == j) * (q[i] - 1) * S**2 for j in (0, 1)] for i in (0, 1)]
    laplacian = [[(i == j) * q[i] - a[i][j] for j in (0, 1)] for i in (0, 1)]
    three_term = (m[0][0] * m[1][1] - m[0][1] * m[1][0]) * (1 - S**2) ** (genus(g) - 1)
    return a, three_term, laplacian[0][0] * laplacian[1][1] - laplacian[0][1] * laplacian[1][0]


def test_a_loop_of_value_i_cancels_its_diagonal_entry():
    """rho(eta) + rho(-eta) = i - i = 0 on the loop: the sparse rows must
    agree with the dense reference in both three-term forms and det(Q - A_rho)."""
    g = build_graph(["u", "w"], [("l", "u", "u"), ("e", "u", "w"), ("f", "u", "w")])
    spec = CoverSpec(base=g, group=AbelianGroup((4,)), voltage={"l": (1,), "f": (1,)})
    trivial, rho = characters(spec.group)[:2]
    a, three_term, laplacian_det = _dense_three_term_and_laplacian(spec, rho)
    assert a[0][0] == 0 and a[0][1] == CycInt.from_int(4, 1) + CycInt.root(4, 1)
    assert artin_l_reciprocal_three_term(spec, rho) == three_term == metric_l_reciprocal(spec, rho)
    assert twisted_laplacian_det(spec, rho) == laplacian_det == 6
    assert laplacian_det == weight_polynomial(spec, rho).scalar
    _, ihara, _ = _dense_three_term_and_laplacian(spec, trivial)
    assert ihara_zeta_reciprocal(g) == ihara == metric_zeta_reciprocal(g)
