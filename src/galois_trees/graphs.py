"""Multigraphs: vertex ids, edge ids, and one ordered endpoint pair per edge.

A graph stores its vertex ids, its edge ids, and for each edge id one
ordered endpoint pair (source, target), which is the edge's canonical
orientation.  Loops (source equal to target) and parallel edges are both
allowed and occur throughout; nothing in this package may assume simple
graphs.  All ids are caller-supplied strings, and every enumeration is
ordered lexicographically so results are reproducible across runs and
platforms.

One breadth-first search (``_search``) answers every reachability
question: ``is_connected`` and the vertex order of the tree sweep
(``_breadth_first``).  The sweep (``tree_sweep``) keys each partition of its
frontier by a str over fixed frontier slots, one character per slot, so a
merge of two blocks is one ``str.replace`` and a departure one slice.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping

EdgeSubset = tuple[str, ...]


@dataclass(frozen=True, eq=True)
class Graph:
    vertices: tuple[str, ...]
    edges: tuple[str, ...]
    ends: dict[str, tuple[str, str]]


def build_graph(
    vertex_ids: Iterable[str],
    edge_descriptions: Iterable[tuple[str, str, str]],
) -> Graph:
    """Build a graph from vertex ids and (edge-id, source, target) triples.

    The given source/target order is kept as the canonical orientation.
    """
    vertices = list(vertex_ids)
    vset = set(vertices)
    if len(vset) != len(vertices):
        raise ValueError("duplicate vertex id")
    if not vertices:
        raise ValueError("a graph needs at least one vertex")
    ends: dict[str, tuple[str, str]] = {}
    for eid, src, tgt in edge_descriptions:
        if eid in ends:
            raise ValueError(f"duplicate edge id {eid!r}")
        if src not in vset:
            raise ValueError(f"unknown endpoint vertex {src!r} on edge {eid!r}")
        if tgt not in vset:
            raise ValueError(f"unknown endpoint vertex {tgt!r} on edge {eid!r}")
        ends[eid] = (src, tgt)
    return Graph(tuple(sorted(vertices)), tuple(sorted(ends)), ends)


def _adjacency(g: Graph) -> dict[str, list[tuple[str, str]]]:
    adj: dict[str, list[tuple[str, str]]] = {v: [] for v in g.vertices}
    for e in g.edges:
        s, t = g.ends[e]
        adj[s].append((e, t))
        if s != t:
            adj[t].append((e, s))
    return adj


def _search(adj: dict[str, list[tuple[str, str]]], start: str) -> list[str]:
    """The vertices reachable from ``start``, in breadth-first order."""
    order = [start]
    seen = {start}
    for v in order:
        for _, w in adj[v]:
            if w not in seen:
                seen.add(w)
                order.append(w)
    return order


def is_connected(g: Graph) -> bool:
    """One search from the first vertex; no component graphs are built."""
    if not g.vertices:
        return False
    return len(_search(_adjacency(g), g.vertices[0])) == len(g.vertices)


def genus(g: Graph) -> int:
    """First Betti number |E| - |V| + 1 of a connected graph."""
    if not is_connected(g):
        raise ValueError("genus is defined here for connected graphs only")
    return _connected_genus(g)


def _connected_genus(g: Graph) -> int:
    """``genus`` of a graph already known to be connected, with no check."""
    return len(g.edges) - len(g.vertices) + 1


def edge_lengths(g: Graph, lengths: Mapping[str, int] | None) -> dict[str, int]:
    """Every edge's length, 1 where none is given; a length must be a positive
    int (not a bool) and name an edge of g, else ValueError."""
    if lengths:
        unknown = set(lengths) - set(g.edges)
        if unknown:
            raise ValueError(f"length given for unknown edge {sorted(unknown)[0]!r}")
    out = {}
    for e in g.edges:
        x = 1 if lengths is None else lengths.get(e, 1)
        if isinstance(x, bool) or not isinstance(x, int) or x < 1:
            raise ValueError(f"edge length for {e!r} must be a positive integer")
        out[e] = x
    return out


def _leave(key: str, slots: list[int]) -> str | None:
    r"""The key after the vertices at ``slots`` leave the frontier.

    Each departure writes the dead marker "\x00" into its slot.  When the
    slot led its block, the block's next live slot q takes over and the block
    is relabelled chr(q + 1); when there is none, the block has closed, and
    the result is None unless no live slot is left: no later edge can join
    the block to the others.

    >>> _leave("\x01\x01\x03", [0])  # slot 1 takes over block 1
    '\x00\x02\x03'
    >>> _leave("\x01\x02\x01", [1]) is None  # block 2 closes, block 1 is open
    True
    >>> _leave("\x00\x02\x02", [1, 2])  # the last block closes with the frontier
    '\x00\x00\x00'
    """
    for p in slots:
        label = key[p]
        key = key[:p] + "\x00" + key[p + 1:]
        if label == chr(p + 1):
            q = key.find(label)
            if q >= 0:
                key = key.replace(label, chr(q + 1))
            elif key.strip("\x00"):
                return None
    return key


def _add_into(states: dict, key, poly: dict[int, int]):
    dst = states.get(key)
    if dst is None:
        states[key] = poly
    else:
        get = dst.get
        for m, c in poly.items():
            dst[m] = get(m, 0) + c


def _breadth_first(g: Graph) -> list[str]:
    """The vertices in breadth-first order from a pseudo-peripheral vertex.

    A first search from ``g.vertices[0]`` checks connectivity (ValueError
    when it misses a vertex); the order returned is that of a second search
    from the last vertex the first one met, which lies at the greatest
    distance from the start (one step of Gibbs, Poole and Stockmeyer, SIAM
    J. Numer. Anal. 13, 1976).  Starting at the end of a long graph keeps
    the breadth-first levels, hence the sweep's frontier, narrow.
    """
    adj = _adjacency(g)
    first = _search(adj, g.vertices[0])
    if len(first) != len(g.vertices):
        raise ValueError("spanning trees require a connected graph")
    return _search(adj, first[-1])


def tree_sweep(g: Graph, unit: Mapping[str, int]) -> dict[int, int]:
    """Count spanning trees by their complements, as packed monomials.

    ``unit`` gives each edge the key of its variable in a
    ``modular.PackedKeys`` layout whose fields hold every edge carrying that
    variable.  Returns a map from packed complements (the product of the
    variables of the edges outside a tree) to the number of spanning trees
    with that complement.  A disconnected graph raises ValueError: the
    search that orders the vertices checks it, so callers need no pass of
    their own.

    A frontier sweep (Sekine, Imai and Tani, ISAAC 1995): parallel non-loop
    edges with one unit form a bundle, and the bundles are processed in
    the order of their ends' positions in a breadth-first order of the
    vertices from a pseudo-peripheral vertex (``_breadth_first``), which
    keeps the frontier narrow on long sparse graphs such as cyclic covers.
    The frontier holds the vertices already met that still have an
    unprocessed bundle, each in a fixed slot: an entering vertex takes the
    least free slot, and a slot is free again once its vertex has left.  A
    state is a partition of the frontier into blocks of the forest chosen
    so far, and maps to a polynomial counting the forests that reach it.
    Its key is a str with one character per slot: a live slot holds
    chr(1 + the least live slot of its block), a slot whose vertex has left
    holds chr(0).  The slot layout depends only on the step, so the keys of
    one step are comparable as they stand and no relabelling pass makes
    them canonical; characters, unlike bytes, do not run out at 255 slots.
    Every state starts from the product of all edge variables, loops
    included.  A bundle of k edges with variable x either stays out of the
    forest, or, when its ends lie in different blocks, puts one of its k
    edges in and merges the blocks, one ``str.replace`` of the higher label
    by the lower (times k, divided by x: its unit is subtracted).  A vertex
    leaves the frontier after its last bundle (``_leave``); if its block
    then has no frontier vertex left while another block does, the state
    can never become a tree and is dropped.  Only the states of two
    consecutive steps are alive, and nothing recurses.
    """
    idx = {v: i for i, v in enumerate(_breadth_first(g))}
    bundles: Counter[tuple[int, int, int]] = Counter()
    for e in g.edges:
        s, t = idx[g.ends[e][0]], idx[g.ends[e][1]]
        if s != t:
            bundles[(min(s, t), max(s, t), unit[e])] += 1
    blist = sorted(bundles.items())
    last: dict[int, int] = {}
    for step, ((i, j, _), _) in enumerate(blist):
        last[i] = last[j] = step

    slots: list[int | None] = []  # the frontier vertex at each slot, None once it has left
    states: dict[str, dict[int, int]] = {"": {sum(unit[e] for e in g.edges): 1}}
    for step, ((i, j, u), k) in enumerate(blist):
        entering = []
        for v in (i, j):
            if v not in slots:
                if None in slots:
                    slots[slots.index(None)] = v
                else:
                    slots.append(v)
                s = slots.index(v)
                entering.append((s, chr(s + 1)))
        pi, pj = slots.index(i), slots.index(j)
        leaving = [p for p, v in ((pi, i), (pj, j)) if last[v] == step]
        following: dict[str, dict[int, int]] = {}
        for key, poly in states.items():
            for s, label in entering:
                key = key[:s] + label + key[s + 1:]
            a, b = key[pi], key[pj]
            if a != b:
                merged = key.replace(a, b) if a > b else key.replace(b, a)
                if leaving:
                    merged = _leave(merged, leaving)
                if merged is not None:
                    _add_into(following, merged, {m - u: c * k for m, c in poly.items()})
            kept = _leave(key, leaving) if leaving else key
            if kept is not None:
                # ``poly`` is not read again, so the new state may take it over
                _add_into(following, kept, poly)
        for p in leaving:
            slots[p] = None
        states = following
    return states.get("\x00" * len(slots), {})


def valencies(g: Graph) -> Counter[str]:
    """Each vertex's valency from one pass over the edge ends; a loop counts
    twice."""
    return Counter(v for e in g.edges for v in g.ends[e])


def degree_sequence(g: Graph) -> tuple[int, ...]:
    valency = valencies(g)
    return tuple(sorted(valency[v] for v in g.vertices))
