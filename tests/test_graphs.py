import random

import pytest

from galois_trees import (
    build_graph,
    degree_sequence,
    genus,
    graphs,
)
from galois_trees.algebra.modular import PackedKeys
from galois_trees.graphs import _breadth_first, tree_sweep, valencies
from helpers import (
    count_calls,
    dumbbell_graph,
    icosahedron_quotient_graph,
    random_connected_multigraph,
    theta_graph,
    triangle_graph,
)
from oracles import (
    connected_components,
    contract,
    spanning_trees,
    spanning_trees_bruteforce,
    valency_adjacency,
)


def test_build_theta():
    g = theta_graph()
    assert g.vertices == ("u", "w")
    assert g.edges == ("e", "f", "g")
    assert len(g.half_edges) == 6
    for h in g.half_edges:
        assert g.involution(h) != h
        assert g.involution(g.involution(h)) == h
    assert g.root(("e", 0)) == "u" and g.root(("e", 1)) == "w"


def test_build_dumbbell_loops():
    g = dumbbell_graph()
    assert g.is_loop("e1") and g.is_loop("e2") and not g.is_loop("e3")
    assert valencies(g)["v1"] == 3


def test_build_single_vertex():
    g = build_graph(["v"], [])
    assert genus(g) == 0


def test_build_errors():
    with pytest.raises(ValueError, match="duplicate vertex"):
        build_graph(["v", "v"], [])
    with pytest.raises(ValueError, match="duplicate edge"):
        build_graph(["v"], [("e", "v", "v"), ("e", "v", "v")])
    with pytest.raises(ValueError, match="unknown endpoint"):
        build_graph(["v"], [("e", "v", "w")])


def test_genus_examples():
    assert genus(theta_graph()) == 2
    assert genus(icosahedron_quotient_graph()) == 3
    path = build_graph(["a", "b", "c"], [("e1", "a", "b"), ("e2", "b", "c")])
    assert genus(path) == 0


def test_genus_disconnected_errors():
    g = build_graph(["a", "b"], [])
    with pytest.raises(ValueError):
        genus(g)


def test_components_examples():
    theta_minus = build_graph(["u", "w"], [("e", "u", "w")])
    assert len(connected_components(theta_minus)) == 1

    dumb_minus = build_graph(["v1", "v2"], [("e1", "v1", "v1"), ("e2", "v2", "v2")])
    comps = connected_components(dumb_minus)
    assert len(comps) == 2
    assert [c.vertices for c in comps] == [("v1",), ("v2",)]

    two_triangles = build_graph(
        ["a", "b", "c", "d", "e", "f"],
        [
            ("p1", "a", "b"),
            ("p2", "b", "c"),
            ("p3", "a", "c"),
            ("q1", "d", "e"),
            ("q2", "e", "f"),
            ("q3", "d", "f"),
        ],
    )
    comps = connected_components(two_triangles)
    assert len(comps) == 2
    assert all(genus(c) == 1 for c in comps)


def test_contract_bridge_merges():
    g, proj = contract(dumbbell_graph(), ["e3"])
    assert len(g.vertices) == 1
    assert g.edges == ("e1", "e2")
    assert all(g.is_loop(e) for e in g.edges)
    assert proj["v1"] == proj["v2"]


def test_contract_loop_deletes():
    g, proj = contract(dumbbell_graph(), ["e1"])
    assert g.vertices == ("v1", "v2")
    assert g.edges == ("e2", "e3")
    assert proj == {"v1": "v1", "v2": "v2"}


def test_contract_nothing():
    g0 = dumbbell_graph()
    g, proj = contract(g0, [])
    assert g == g0
    assert proj == {"v1": "v1", "v2": "v2"}


def test_contract_unknown_edge():
    with pytest.raises(ValueError, match="unknown edge"):
        contract(dumbbell_graph(), ["nope"])


def test_spanning_trees_examples():
    assert spanning_trees(theta_graph()) == [("e",), ("f",), ("g",)]
    assert spanning_trees(dumbbell_graph()) == [("e3",)]
    assert spanning_trees(icosahedron_quotient_graph()) == [
        ("e1", "e3", "e6"),
        ("e1", "e4", "e6"),
    ]


def test_valency_adjacency_examples():
    q, a = valency_adjacency(dumbbell_graph())
    assert q == [[3, 0], [0, 3]]
    assert a == [[2, 1], [1, 2]]

    q, a = valency_adjacency(triangle_graph())
    assert q == [[2, 0, 0], [0, 2, 0], [0, 0, 2]]
    assert a == [[0, 1, 1], [1, 0, 1], [1, 1, 0]]

    loop = build_graph(["v"], [("e", "v", "v")])
    q, a = valency_adjacency(loop)
    assert q == [[2]] and a == [[2]]


def test_random_graph_invariants():
    rng = random.Random(1)
    for _ in range(40):
        g = random_connected_multigraph(rng, 6, 9)
        assert len(g.half_edges) == 2 * len(g.edges)
        valency = valencies(g)
        assert sum(valency[v] for v in g.vertices) == 2 * len(g.edges)
        assert degree_sequence(g) == tuple(sorted(valency[v] for v in g.vertices))
        q, a = valency_adjacency(g)
        n = len(g.vertices)
        for i in range(n):
            assert sum(q[i][j] - a[i][j] for j in range(n)) == 0


def test_spanning_trees_match_bruteforce():
    rng = random.Random(2)
    for _ in range(25):
        g = random_connected_multigraph(rng, 5, 8)
        assert spanning_trees(g) == spanning_trees_bruteforce(g)


def test_contract_genus_behaviour():
    rng = random.Random(3)
    for _ in range(30):
        g = random_connected_multigraph(rng, 5, 8)
        loops = [e for e in g.edges if g.is_loop(e)]
        non_loops = [e for e in g.edges if not g.is_loop(e)]
        if non_loops:
            # contracting a random forest preserves genus
            idx = {v: i for i, v in enumerate(g.vertices)}
            seen_roots = set()
            forest = []
            for e in sorted(non_loops, key=lambda _: rng.random()):
                s, t = g.ends[e]
                # greedily keep the subset acyclic via a naive component scan
                trial = forest + [e]
                comp = {v: v for v in g.vertices}

                def find(v):
                    while comp[v] != v:
                        v = comp[v]
                    return v

                acyclic = True
                for f in trial:
                    a, b = (find(x) for x in g.ends[f])
                    if a == b:
                        acyclic = False
                        break
                    comp[b] = a
                if acyclic and rng.random() < 0.7:
                    forest = trial
            contracted, _ = contract(g, forest)
            assert genus(contracted) == genus(g)
        if loops:
            e = rng.choice(loops)
            contracted, _ = contract(g, [e])
            assert genus(contracted) == genus(g) - 1


def _deletion_components(g, removed):
    keep = [e for e in g.edges if e not in removed]
    sub = build_graph(list(g.vertices), [(e, *g.ends[e]) for e in keep])
    return connected_components(sub)


def test_counting_lemma():
    # removing genus-1 edges leaves either all genus-one parts or a forest part,
    # and all-genus-one complements pin the removed count to genus-1
    rng = random.Random(4)
    from itertools import combinations

    for _ in range(25):
        g = random_connected_multigraph(rng, 4, 7, min_genus=1)
        gamma = genus(g)
        edge_list = list(g.edges)
        for removed in combinations(edge_list, gamma - 1):
            comps = _deletion_components(g, set(removed))
            genera = [len(c.edges) - len(c.vertices) + 1 for c in comps]
            assert all(x == 1 for x in genera) or any(x == 0 for x in genera)
        for size in range(len(edge_list) + 1):
            for removed in combinations(edge_list, size):
                comps = _deletion_components(g, set(removed))
                genera = [len(c.edges) - len(c.vertices) + 1 for c in comps]
                if genera and all(x == 1 for x in genera):
                    assert size == gamma - 1


def ladder_with_least_id_inside():
    """A ladder of six rungs with a loop at one end and a chord near the other;
    the least vertex id, "a", sits on the third rung, far from both ends."""
    names = ["p", "q", "a", "r", "s", "t"]
    top = ["a" if n == "a" else f"{n}0" for n in names]
    bottom = [f"{n}1" for n in names]
    edges = [(f"r{i}", top[i], bottom[i]) for i in range(6)]
    for i in range(5):
        edges += [(f"t{i}", top[i], top[i + 1]), (f"b{i}", bottom[i], bottom[i + 1])]
    edges += [("x", "p0", "p0"), ("y", "t1", "s1")]
    return build_graph(top + bottom, edges)


def test_sweep_starts_at_a_pseudo_peripheral_vertex(monkeypatch):
    g = ladder_with_least_id_inside()
    assert g.vertices[0] == "a"
    order = _breadth_first(g)
    assert sorted(order) == list(g.vertices)
    assert order[0] in {"p0", "p1", "t0", "t1"}  # an end of the ladder
    merges = count_calls(monkeypatch, graphs, "_add_into")
    complements = tree_sweep(g, PackedKeys(dict.fromkeys(g.edges, 1)).unit)
    assert sum(complements.values()) == 1351 == len(spanning_trees_bruteforce(g))
    # state merges: 206 in breadth-first order from "a", 81 from the far end
    assert len(merges) == 81


def test_sweep_refills_freed_slots(monkeypatch):
    """An entering vertex takes the least slot its departed predecessor freed:
    all 12 ladder vertices pass through a frontier of a few slots, so no
    state key is longer than that."""
    g = ladder_with_least_id_inside()
    lengths = []
    original = graphs._add_into

    def add_into(states, key, poly):
        lengths.append(len(key))
        original(states, key, poly)

    monkeypatch.setattr(graphs, "_add_into", add_into)
    complements = tree_sweep(g, PackedKeys(dict.fromkeys(g.edges, 1)).unit)
    assert sum(complements.values()) == 1351
    assert max(lengths) == 4 < len(g.vertices)


def test_sweep_refuses_two_components():
    g = build_graph(["a", "b", "c", "d"], [("e", "a", "b"), ("f", "c", "d"), ("g", "c", "d")])
    for call in (
        lambda: _breadth_first(g),
        lambda: tree_sweep(g, dict.fromkeys(g.edges, 1)),
        lambda: spanning_trees(g),
    ):
        with pytest.raises(ValueError, match="require a connected graph"):
            call()
