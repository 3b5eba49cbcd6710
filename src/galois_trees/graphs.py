"""Multigraphs in half-edge form.

A graph is a set of vertices, a set of half-edges paired by a fixed-point
free involution, and a root map sending each half-edge to a vertex.  Loops
and parallel edges are both allowed and occur throughout; nothing in this
package may assume simple graphs.

Concretely we store each edge as an id together with an ordered endpoint
pair (source, target); that pair is the canonical orientation.  The half
edges of an edge ``e`` are ``(e, 0)`` (rooted at the source) and ``(e, 1)``
(rooted at the target), and the involution swaps the two.  All ids are
caller-supplied strings, and every enumeration is ordered lexicographically
so results are reproducible across runs and platforms.

One breadth-first search (``_search``) answers every reachability
question: ``is_connected``, ``connected_components`` and the vertex order
of the tree sweep (``_breadth_first``).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Mapping

from .algebra.modular import PackedKeys

HalfEdge = tuple[str, int]
EdgeSubset = tuple[str, ...]


@dataclass(frozen=True, eq=True)
class Graph:
    vertices: tuple[str, ...]
    edges: tuple[str, ...]
    ends: dict[str, tuple[str, str]]

    @property
    def half_edges(self) -> tuple[HalfEdge, ...]:
        return tuple((e, side) for e in self.edges for side in (0, 1))

    def involution(self, h: HalfEdge) -> HalfEdge:
        return (h[0], 1 - h[1])

    def root(self, h: HalfEdge) -> str:
        return self.ends[h[0]][h[1]]

    def is_loop(self, e: str) -> bool:
        s, t = self.ends[e]
        return s == t

    def valency(self, v: str) -> int:
        count = 0
        for e in self.edges:
            s, t = self.ends[e]
            count += (s == v) + (t == v)
        return count


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


def connected_components(g: Graph) -> list[Graph]:
    """Split a graph into its connected components, as graphs.

    Components are ordered by their smallest vertex id; every vertex and
    edge lands in exactly one component.
    """
    adj = _adjacency(g)
    seen: set[str] = set()
    parts: list[Graph] = []
    for start in g.vertices:
        if start in seen:
            continue
        vset = set(_search(adj, start))
        seen |= vset
        comp_edges = {e: g.ends[e] for e in g.edges if g.ends[e][0] in vset}
        parts.append(
            Graph(tuple(sorted(vset)), tuple(sorted(comp_edges)), comp_edges)
        )
    return parts


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


def contract(g: Graph, edge_ids: Iterable[str]) -> tuple[Graph, dict[str, str]]:
    """Contract a set of edges; returns the new graph and the vertex projection.

    Each connected component of the subgraph spanned by the contracted edges
    collapses to a single fresh vertex whose id concatenates the sorted member
    ids; loops inside the set simply vanish.  Surviving edges keep their ids
    and orientation sides.
    """
    fset = set(edge_ids)
    unknown = fset - set(g.edges)
    if unknown:
        raise ValueError(f"unknown edge id {sorted(unknown)[0]!r}")
    touched = sorted({v for e in fset for v in g.ends[e]})
    sub = Graph(
        tuple(touched), tuple(sorted(fset)), {e: g.ends[e] for e in fset}
    )
    projection = {v: v for v in g.vertices}
    new_vertices = [v for v in g.vertices if v not in set(touched)]
    existing = set(new_vertices)
    for comp in connected_components(sub) if fset else []:
        name = "+".join(comp.vertices)
        while name in existing:
            name += "'"
        existing.add(name)
        new_vertices.append(name)
        for v in comp.vertices:
            projection[v] = name
    ends = {}
    for e in g.edges:
        if e in fset:
            continue
        s, t = g.ends[e]
        ends[e] = (projection[s], projection[t])
    return Graph(tuple(sorted(new_vertices)), tuple(sorted(ends)), ends), projection


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


def valency_adjacency(g: Graph) -> tuple[list[list[int]], list[list[int]]]:
    """Valency matrix Q and adjacency matrix A, rows/columns in vertex order.

    A loop contributes 2 to both the valency and the diagonal adjacency
    entry of its vertex, so Q - A always has zero row sums.
    """
    idx = {v: i for i, v in enumerate(g.vertices)}
    n = len(g.vertices)
    q = [[0] * n for _ in range(n)]
    a = [[0] * n for _ in range(n)]
    for e in g.edges:
        s, t = g.ends[e]
        i, j = idx[s], idx[t]
        q[i][i] += 1
        q[j][j] += 1
        a[i][j] += 1
        a[j][i] += 1
    return q, a


class _UnionFind:
    __slots__ = ("parent", "size")

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.size = [1] * n

    def find(self, x: int) -> int:
        p = self.parent
        while p[x] != x:
            x = p[x]
        return x

    def union(self, x: int, y: int):
        """Union two roots, the smaller under the larger."""
        if self.size[x] < self.size[y]:
            x, y = y, x
        self.parent[y] = x
        self.size[x] += self.size[y]


def _canonical(key: tuple[int, ...]) -> tuple[int, ...]:
    """Renumber blocks in order of first occurrence."""
    relabel: dict[int, int] = {}
    return tuple([relabel.setdefault(b, len(relabel)) for b in key])


def _leave(key: tuple[int, ...], positions: list[int]) -> tuple[int, ...] | None:
    """Drop departing frontier positions, given in descending order.

    None when a block closes while another block is still open: no later
    edge can join them.
    """
    for p in positions:
        block = key[p]
        key = key[:p] + key[p + 1:]
        if key and block not in key:
            return None
    return _canonical(key)


def _add_into(states: dict, key, poly: dict[int, int]):
    dst = states.get(key)
    if dst is None:
        states[key] = poly
    else:
        for m, c in poly.items():
            dst[m] = dst.get(m, 0) + c


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
    The frontier is the list of vertices already met that still have an
    unprocessed bundle; a state is a partition of the frontier into blocks
    of the forest chosen so far, kept in canonical form, and maps to a
    polynomial counting the forests that reach it.  Every state starts
    from the product of all edge variables, loops included.  A bundle of k
    edges with variable x either stays out of the forest, or, when its ends
    lie in different blocks, puts one of its k edges in and merges the blocks
    (times k, divided by x: its unit is subtracted).  A vertex leaves the
    frontier after its last bundle; if its block then has no frontier vertex
    left while another block does, the state can never become a tree and is
    dropped.  Only the states of two consecutive steps are alive, and
    nothing recurses.
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

    frontier: list[int] = []
    states: dict[tuple[int, ...], dict[int, int]] = {(): {sum(unit[e] for e in g.edges): 1}}
    for step, ((i, j, u), k) in enumerate(blist):
        entering = [v for v in (i, j) if v not in frontier]
        frontier += entering
        pi, pj = frontier.index(i), frontier.index(j)
        leaving = sorted((frontier.index(v) for v in (i, j) if last[v] == step), reverse=True)
        following: dict[tuple[int, ...], dict[int, int]] = {}
        for key, poly in states.items():
            for _ in entering:
                key += (max(key, default=-1) + 1,)
            a, b = key[pi], key[pj]
            if a != b:
                low, high = min(a, b), max(a, b)
                merged = _leave(tuple([low if x == high else x for x in key]), leaving)
                if merged is not None:
                    _add_into(following, merged, {m - u: c * k for m, c in poly.items()})
            kept = _leave(key, leaving) if leaving else key
            if kept is not None:
                # ``poly`` is not read again, so the new state may take it over
                _add_into(following, kept, poly)
        for p in leaving:
            del frontier[p]
        states = following
    return states.get((), {})


def spanning_trees(g: Graph) -> list[EdgeSubset]:
    """All spanning trees, each a sorted tuple of edge ids, in lexicographic order.

    A by-product of ``tree_sweep`` with one variable, and one one-bit field,
    per edge: every complement it returns leaves out the edges of exactly
    one tree.  Loops never occur in a tree.  A disconnected graph raises
    ValueError from the sweep.
    """
    keys = PackedKeys(dict.fromkeys(g.edges, 1))
    outside = keys.unpack(tree_sweep(g, keys.unit)).terms
    return sorted(tuple(e for e in g.edges if e not in dict(mono)) for mono in outside)


def spanning_trees_bruteforce(g: Graph) -> list[EdgeSubset]:
    """Oracle variant: filter all (|V|-1)-subsets for acyclic spanning sets."""
    if not is_connected(g):
        raise ValueError("spanning trees require a connected graph")
    n = len(g.vertices)
    idx = {v: i for i, v in enumerate(g.vertices)}
    out = []
    for subset in combinations(g.edges, n - 1):
        uf = _UnionFind(n)
        ok = True
        for e in subset:
            ru, rv = uf.find(idx[g.ends[e][0]]), uf.find(idx[g.ends[e][1]])
            if ru == rv:
                ok = False
                break
            uf.union(ru, rv)
        if ok:
            out.append(subset)
    out.sort()
    return out


def degree_sequence(g: Graph) -> tuple[int, ...]:
    valency = Counter(v for e in g.edges for v in g.ends[e])
    return tuple(sorted(valency[v] for v in g.vertices))
