"""Shared fixtures: worked example inputs and seeded random generators."""

from __future__ import annotations

import random
from itertools import chain, permutations
from pathlib import Path

from galois_trees import (
    AbelianGroup,
    CoverSpec,
    build_cover,
    build_graph,
    graphs,
    is_connected_cover,
    jacobian_group,
    subgroup_from_generators,
)

SPEC_DIR = Path(__file__).resolve().parent.parent / "specs"


def theta_graph():
    return build_graph(["u", "w"], [("e", "u", "w"), ("f", "u", "w"), ("g", "u", "w")])


def dumbbell_graph():
    return build_graph(
        ["v1", "v2"], [("e1", "v1", "v1"), ("e2", "v2", "v2"), ("e3", "v1", "v2")]
    )


def triangle_graph():
    return build_graph(
        ["a", "b", "c"], [("e1", "a", "b"), ("e2", "b", "c"), ("e3", "a", "c")]
    )


def icosahedron_quotient_graph():
    return build_graph(
        ["v1", "v2", "v3", "v4"],
        [
            ("e1", "v1", "v2"),
            ("e2", "v2", "v2"),
            ("e3", "v2", "v3"),
            ("e4", "v2", "v3"),
            ("e5", "v3", "v3"),
            ("e6", "v3", "v4"),
        ],
    )


def icosahedron_spec(n: int = 5) -> CoverSpec:
    """The icosahedron as a Z/5 cover of its quotient; other orders n give
    larger covers of the same base (2n + 2 vertices)."""
    group = AbelianGroup((n,))
    full = subgroup_from_generators(group, [(1,)])
    return CoverSpec(
        base=icosahedron_quotient_graph(),
        group=group,
        dilation={"v1": full, "v4": full},
        voltage={"e2": (1,), "e3": (1,), "e5": (1,)},
    )


def dumbbell_z6_spec() -> CoverSpec:
    group = AbelianGroup((6,))
    return CoverSpec(
        base=dumbbell_graph(),
        group=group,
        dilation={
            "v1": subgroup_from_generators(group, [(2,)]),
            "v2": subgroup_from_generators(group, [(3,)]),
        },
        voltage={"e1": (1,), "e2": (1,)},
    )


def s3_cover_graph_and_labels():
    """The double hexagon covering the theta graph, with base edge labels."""

    def compose(a, b):
        return tuple(a[b[i]] for i in range(3))

    ident = (0, 1, 2)
    swap = (1, 0, 2)
    cycle = (1, 2, 0)
    elems = sorted(permutations(range(3)))
    name = {p: "".join(map(str, p)) for p in elems}
    vertices = [f"u{name[p]}" for p in elems] + [f"w{name[p]}" for p in elems]
    edges = []
    labels = {}
    for p in elems:
        for lab, volt in (("x", ident), ("y", swap), ("z", cycle)):
            eid = f"{lab}{name[p]}"
            edges.append((eid, f"u{name[p]}", f"w{name[compose(p, volt)]}"))
            labels[eid] = lab
    return build_graph(vertices, edges), labels


RANDOM_GROUPS = (
    AbelianGroup((2,)),
    AbelianGroup((3,)),
    AbelianGroup((4,)),
    AbelianGroup((5,)),
    AbelianGroup((6,)),
    AbelianGroup((2, 2)),
)


def random_connected_multigraph(
    rng: random.Random, max_vertices=5, max_edges=8, min_genus=0
):
    while True:
        nv = rng.randint(1, max_vertices)
        vids = [f"v{i}" for i in range(nv)]
        edges = []
        for i in range(1, nv):
            edges.append((f"t{i}", f"v{rng.randrange(i)}", f"v{i}"))
        low = max(nv - 1, nv - 1 + min_genus)
        if low > max_edges:
            continue
        ne = rng.randint(low, max_edges)
        k = 0
        while len(edges) < ne:
            edges.append((f"x{k}", f"v{rng.randrange(nv)}", f"v{rng.randrange(nv)}"))
            k += 1
        g = build_graph(vids, edges)
        if len(g.edges) - len(g.vertices) + 1 >= min_genus:
            return g


def random_element(rng: random.Random, group: AbelianGroup):
    return tuple(rng.randrange(n) for n in group.orders)


def random_cover_spec(
    rng: random.Random,
    *,
    free=False,
    max_vertices=5,
    max_edges=8,
    groups=RANDOM_GROUPS,
    dilation_prob=0.35,
    voltage_prob=0.8,
    tree_cap=None,
    max_tries=2000,
):
    """A random spec whose cover is connected (and small enough, when capped)."""
    for _ in range(max_tries):
        base = random_connected_multigraph(rng, max_vertices, max_edges)
        group = groups[rng.randrange(len(groups))]
        dilation = {}
        if not free:
            for v in base.vertices:
                if rng.random() < dilation_prob:
                    gens = [random_element(rng, group) for _ in range(rng.randint(1, 2))]
                    sub = subgroup_from_generators(group, gens)
                    if not sub.is_trivial():
                        dilation[v] = sub
        voltage = {}
        for e in base.edges:
            if rng.random() < voltage_prob:
                elt = random_element(rng, group)
                if any(elt):
                    voltage[e] = elt
        spec = CoverSpec(base=base, group=group, dilation=dilation, voltage=voltage)
        cover = build_cover(spec)
        if not is_connected_cover(cover):
            continue
        if tree_cap is not None and jacobian_group(cover.total).order > tree_cap:
            continue
        return spec, cover
    raise RuntimeError("no suitable random cover found within the retry budget")


def count_calls(monkeypatch, module, name):
    """Wrap module.name so that every call appends its last argument (the
    prime, for the modular kernels) to the returned list."""
    calls = []
    original = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: (calls.append(args[-1]), original(*args))[1])
    return calls


def count_searches(monkeypatch):
    """Wrap ``graphs._search``, the one graph search behind ``is_connected``
    and the tree sweep, so that every search appends the number of vertices
    of the graph it searched to the returned list."""
    searched = []
    original = graphs._search
    monkeypatch.setattr(
        graphs, "_search", lambda adj, start: (searched.append(len(adj)), original(adj, start))[1]
    )
    return searched


def smith_reference(rows: list[list[int]]) -> tuple[int, ...]:
    """Diagonal of the Smith normal form by least-entry rounds, the tests'
    reference for ``smith_normal_form``: the invariant factors d1 | d2 | ...,
    nonnegative, zeros after the rank, min(rows, columns) of them.

    The least nonzero |entry| moves to the corner as the pivot.  Row
    operations reduce its column and column operations its row; a nonzero
    remainder is smaller than the pivot and becomes the next one.  Once
    both are clear, a row holding an entry the pivot does not divide is
    added to the pivot row; otherwise |pivot| is emitted and its row and
    column are dropped.

    >>> smith_reference([[2, 4], [6, 8]])
    (2, 4)
    """
    a = [list(map(int, r)) for r in rows]
    nc = len(a[0]) if a else 0
    if any(len(r) != nc for r in a):
        raise ValueError("ragged matrix")
    size = min(len(a), nc)
    diagonal = []
    while least := min(map(abs, filter(None, chain.from_iterable(a))), default=0):
        for i, row in enumerate(a):
            if least in row or -least in row:
                break
        j = row.index(least) if least in row else row.index(-least)
        a[0], a[i] = a[i], a[0]
        if j:
            for r in a:
                r[0], r[j] = r[j], r[0]
        top, *rest = a
        p = top[0]
        # every nonzero entry is at least |p|, so a nonzero one gets a nonzero q
        dirty = False
        for r in rest:
            if q := r[0] // p:
                for k, x in enumerate(top):
                    r[k] -= q * x
                dirty = dirty or r[0]
        for k in range(1, len(top)):
            if q := top[k] // p:
                for r in a:
                    r[k] -= q * r[0]
                dirty = dirty or top[k]
        if dirty:
            continue
        for r in rest:
            if any(x % p for x in r):
                for k, x in enumerate(r):
                    top[k] += x
                break
        else:
            diagonal.append(least)
            a = [r[1:] for r in rest]
    return tuple(diagonal) + (0,) * (size - len(diagonal))
