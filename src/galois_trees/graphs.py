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
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable

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

    def source(self, e: str) -> str:
        return self.ends[e][0]

    def target(self, e: str) -> str:
        return self.ends[e][1]

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
        stack = [start]
        seen.add(start)
        comp_vertices = []
        while stack:
            v = stack.pop()
            comp_vertices.append(v)
            for _, w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        vset = set(comp_vertices)
        comp_edges = {e: g.ends[e] for e in g.edges if g.ends[e][0] in vset}
        parts.append(
            Graph(tuple(sorted(comp_vertices)), tuple(sorted(comp_edges)), comp_edges)
        )
    return parts


def is_connected(g: Graph) -> bool:
    return len(connected_components(g)) == 1


def genus(g: Graph) -> int:
    """First Betti number |E| - |V| + 1 of a connected graph."""
    if not is_connected(g):
        raise ValueError("genus is defined here for connected graphs only")
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

    def union(self, x: int, y: int) -> int | None:
        """Union two roots; returns the absorbed root for undo, or None."""
        if self.size[x] < self.size[y]:
            x, y = y, x
        self.parent[y] = x
        self.size[x] += self.size[y]
        return y

    def undo(self, absorbed: int):
        root = self.parent[absorbed]
        self.size[root] -= self.size[absorbed]
        self.parent[absorbed] = absorbed


def spanning_trees(g: Graph) -> list[EdgeSubset]:
    """All spanning trees, each a sorted tuple of edge ids, in lexicographic order.

    Deletion/contraction backtracking over the edge list; a branch that can
    no longer connect the remaining components is pruned.  Loops never occur
    in a tree.
    """
    if not is_connected(g):
        raise ValueError("spanning trees require a connected graph")
    n = len(g.vertices)
    if n == 1:
        return [()]
    idx = {v: i for i, v in enumerate(g.vertices)}
    edges = [
        (e, idx[g.ends[e][0]], idx[g.ends[e][1]])
        for e in g.edges
        if not g.is_loop(e)
    ]
    uf = _UnionFind(n)
    out: list[EdgeSubset] = []
    chosen: list[str] = []

    def connectable(i: int) -> bool:
        roots = {}
        count = 0
        for v in range(n):
            r = uf.find(v)
            if r not in roots:
                roots[r] = r
                count += 1

        def f(x):
            while roots[x] != x:
                x = roots[x]
            return x

        for _, u, v in edges[i:]:
            ru, rv = f(uf.find(u)), f(uf.find(v))
            if ru != rv:
                roots[rv] = ru
                count -= 1
                if count == 1:
                    return True
        return count == 1

    def walk(i: int, ncomp: int):
        if ncomp == 1:
            out.append(tuple(chosen))
            return
        if i >= len(edges):
            return
        e, u, v = edges[i]
        ru, rv = uf.find(u), uf.find(v)
        if ru != rv:
            absorbed = uf.union(ru, rv)
            chosen.append(e)
            walk(i + 1, ncomp - 1)
            chosen.pop()
            uf.undo(absorbed)
        if connectable(i + 1):
            walk(i + 1, ncomp)

    if connectable(0):
        walk(0, n)
    out.sort()
    return out


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
