"""Reference implementations and the paper's constructions, for the tests.

The package keeps only what deciding the theorem needs: the base data
that gives the twisted matroid weights P_rho, and the cover that gives its
Smith form and tree sweep.  What the tests compare those paths against
lives here: brute-force spanning trees and matroid bases, an independence
oracle that deletes edges and inspects the components left, a checker of
the cover axioms, and the constructions the paper's lemmas are about
(contraction, subdivision, switching, Frobenius elements).  Each is the
direct construction, written for clarity rather than speed.
"""

from __future__ import annotations

import re
from collections import Counter
from itertools import combinations
from typing import Iterable, Mapping

from galois_trees import matroids
from galois_trees.algebra import CycInt, MultiPoly, weight_of_root
from galois_trees.algebra.modular import PackedKeys, to_residue
from galois_trees.algebra.multipoly import Monomial
from galois_trees.covers import Cover, CoverSpec, _deletion_components, _fmt
from galois_trees.graphs import (
    EdgeSubset,
    Graph,
    _adjacency,
    _search,
    build_graph,
    edge_lengths,
    genus,
    is_connected,
    tree_sweep,
)
from galois_trees.groups import (
    AbelianGroup,
    Character,
    Element,
    Subgroup,
    subgroup_from_generators,
    subgroup_sum,
)
from galois_trees.matroids import _seen_dilation

# -- graphs -------------------------------------------------------------


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


def spanning_trees_bruteforce(g: Graph) -> list[EdgeSubset]:
    """Filter all (|V|-1)-subsets for acyclic spanning sets."""
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


def subdivide(g: Graph, chain_lengths: Mapping[str, int]) -> Graph:
    """Replace each edge by a chain of the given length.

    Lengths follow ``edge_lengths`` (positive ints naming edges of g, 1 where
    none is given).  Length 1 keeps the edge untouched (same id); longer
    chains introduce fresh interior vertices named after the edge.
    """
    chain_lengths = edge_lengths(g, chain_lengths)
    vertices = list(g.vertices)
    used = set(vertices)
    edges = []
    for e in g.edges:
        n_e = chain_lengths[e]
        s, t = g.ends[e]
        if n_e == 1:
            edges.append((e, s, t))
            continue
        prev = s
        for i in range(1, n_e):
            w = f"{e}.n{i}"
            while w in used:
                w += "'"
            used.add(w)
            vertices.append(w)
            edges.append((f"{e}.{i}", prev, w))
            prev = w
        edges.append((f"{e}.{n_e}", prev, t))
    return build_graph(vertices, edges)


# -- groups -------------------------------------------------------------


def character_kills(rho: Character, h: Subgroup) -> bool:
    """True when the character is identically 1 on the subgroup."""
    if rho.group != h.group:
        raise ValueError("character and subgroup belong to different groups")
    return all(rho.value_exponent(a) == 0 for a in h.elements)


# -- covers -------------------------------------------------------------


def _check(ok: bool, message: str):
    if not ok:
        raise AssertionError(message)


# a total label as build_cover writes it: name@a with a printed by _fmt
_LABEL = re.compile(r".*@\d+(\.\d+)*")


def _translate(group: AbelianGroup, gelt: Element, label: str) -> str:
    """g·(x@a) = x@(g+a), reading a back from its ``_fmt`` text."""
    name, _, text = label.rpartition("@")
    a = tuple(int(x) for x in text.split(".")) if group.orders else ()
    return f"{name}@{_fmt(group.add(gelt, a))}"


def edge_fiber(cover: Cover, e: str) -> tuple[str, ...]:
    return tuple(sorted(te for te, be in cover.edge_map.items() if be == e))


def validate_cover(cover: Cover):
    """Check the defining invariants of a cover; raises AssertionError.

    Verifies fiber sizes, that the projection is a graph morphism, that
    translation acts by automorphisms commuting with the projection, freely
    and transitively on edge fibers and transitively on vertex fibers, and
    local balancing at every total vertex.  The vertex action is read off
    the ``e@a`` edge labels through the endpoints and must be well defined,
    so on a contracted cover the action must descend; a vertex with no
    incident edge is translated from the ``v@r`` members of its own label.
    """
    total, base, group = cover.total, cover.base, cover.group
    n = group.order
    for e in base.edges:
        _check(len(edge_fiber(cover, e)) == n, f"edge fiber over {e} has the wrong size")
    for v in base.vertices:
        fiber = cover.vertex_fiber(v)
        _check(n % len(fiber) == 0, f"vertex fiber over {v} has size {len(fiber)}")
        degrees = sum(cover.local_degrees[tv] for tv in fiber)
        _check(degrees == n, f"local degrees over {v} sum to {degrees}, not {n}")

    # projection is a graph morphism (endpoints commute with the maps)
    for te in total.edges:
        ends = tuple(cover.vertex_map[tv] for tv in total.ends[te])
        _check(ends == base.ends[cover.edge_map[te]], f"projection breaks {te}")

    # translation acts by automorphisms commuting with the projection
    incident = {tv for ends in total.ends.values() for tv in ends}
    edgeless = [tv for tv in total.vertices if tv not in incident]
    owner = {m: tv for tv in edgeless for m in tv.split("+") if _LABEL.fullmatch(m)}
    edge_orbits = {min(edge_fiber(cover, e)): set() for e in base.edges}
    vertex_orbits = {min(cover.vertex_fiber(v)): set() for v in base.vertices}
    for gelt in group.elements():
        pairs = []
        for te in total.edges:
            image = _translate(group, gelt, te)
            _check(cover.edge_map.get(image) == cover.edge_map[te], f"{te} leaves its fiber")
            pairs += zip(total.ends[te], total.ends[image])
        for m, tv in owner.items():
            if (image := _translate(group, gelt, m)) in owner:
                pairs.append((tv, owner[image]))
        vmap: dict[str, str] = {}
        for tv, tw in pairs:
            _check(vmap.setdefault(tv, tw) == tw, f"group action is not well defined at {tv}")
            _check(cover.vertex_map[tw] == cover.vertex_map[tv], f"{tv} leaves its fiber")
        for start, orbit in edge_orbits.items():
            orbit.add(_translate(group, gelt, start))
        for start, orbit in vertex_orbits.items():
            if start in vmap:
                orbit.add(vmap[start])

    # |G| distinct translates filling the fiber: free and transitive
    for start, orbit in edge_orbits.items():
        _check(
            len(orbit) == n and orbit == set(edge_fiber(cover, cover.edge_map[start])),
            f"translation is not free and transitive on the fiber of {start}",
        )
    for start, orbit in vertex_orbits.items():
        _check(
            orbit == set(cover.vertex_fiber(cover.vertex_map[start])),
            f"translation is not transitive on the fiber of {start}",
        )

    # local balancing: every base half-edge at p(tv) has d(tv) preimages at tv
    preimages = Counter(
        (total.ends[te][side], cover.edge_map[te], side)
        for te in total.edges
        for side in (0, 1)
    )
    for tv in total.vertices:
        d = cover.local_degrees[tv]
        for be in base.edges:
            for side in (0, 1):
                if base.ends[be][side] == cover.vertex_map[tv]:
                    count = preimages[tv, be, side]
                    _check(count == d, f"balancing at {tv} over ({be},{side}): {count} != {d}")


def frobenius(spec: CoverSpec, path: Iterable[tuple[str, int]]) -> Element:
    """Oriented voltage sum along a composable edge path.

    Each step is (edge id, +1) for the canonical orientation or (edge id, -1)
    for its reverse; consecutive steps must compose head to tail.
    """
    group = spec.group
    g = spec.base
    total = group.zero()
    prev_head = None
    for eid, direction in path:
        if eid not in g.ends:
            raise ValueError(f"unknown edge {eid!r} in path")
        if direction not in (1, -1):
            raise ValueError("step direction must be +1 or -1")
        s, t = g.ends[eid]
        tail, head = (s, t) if direction == 1 else (t, s)
        if prev_head is not None and prev_head != tail:
            raise ValueError(f"path does not compose at edge {eid!r}")
        prev_head = head
        eta = spec.voltage_on(eid)
        total = group.add(total, eta if direction == 1 else group.neg(eta))
    return total


def contract_cover(cover: Cover, edge_ids: Iterable[str]) -> Cover:
    """Contract base edges and all their preimages, keeping the cover structure.

    G still acts transitively on each fibre, so every local degree is the
    order of a stabilizer: |G| over the size of the vertex's fibre.
    Surviving edges keep their ``e@a`` ids, so the group action carries over;
    ``validate_cover`` checks that it descends to the contraction, and its
    balancing check tests the degrees independently.
    """
    fset = set(edge_ids)
    unknown = fset - set(cover.base.edges)
    if unknown:
        raise ValueError(f"unknown edge id {sorted(unknown)[0]!r}")
    base_c, base_proj = contract(cover.base, fset)
    pre = [te for te in cover.total.edges if cover.edge_map[te] in fset]
    total_c, total_proj = contract(cover.total, pre)

    vertex_map: dict[str, str] = {}
    for old, new in total_proj.items():
        image = base_proj[cover.vertex_map[old]]
        if vertex_map.setdefault(new, image) != image:
            raise AssertionError("projection is not well defined after contraction")
    edge_map = {te: be for te, be in cover.edge_map.items() if be not in fset}
    fibre = Counter(vertex_map.values())
    local_degrees = {tv: cover.group.order // fibre[bv] for tv, bv in vertex_map.items()}
    return Cover(
        total=total_c,
        base=base_c,
        group=cover.group,
        vertex_map=vertex_map,
        edge_map=edge_map,
        local_degrees=local_degrees,
        spec=None,
    )


def dilation_after_loop_contraction(spec: CoverSpec, loop_edge: str) -> Subgroup:
    """Dilation subgroup at the root after contracting a single loop.

    Contracting a voltage loop enlarges the root's dilation subgroup by the
    cyclic group generated by the loop voltage.
    """
    g = spec.base
    if loop_edge not in g.ends:
        raise ValueError(f"unknown edge {loop_edge!r}")
    s, t = g.ends[loop_edge]
    if s != t:
        raise ValueError(f"edge {loop_edge!r} is not a loop")
    loop_group = subgroup_from_generators(spec.group, [spec.voltage_on(loop_edge)])
    return subgroup_sum(spec.dilation_at(s), loop_group)


def switch_voltages(spec: CoverSpec, potentials: Mapping[str, Element]) -> CoverSpec:
    """Apply a vertex switching: eta'(e) = eta(e) + xi(target) - xi(source).

    Switching changes the stored representative but not the isomorphism
    class of the cover, so all computed invariants must agree.
    """
    group = spec.group
    g = spec.base
    xi = {v: group.reduce(potentials.get(v, group.zero())) for v in g.vertices}
    voltage = {}
    for e in g.edges:
        s, t = g.ends[e]
        eta = group.add(spec.voltage_on(e), group.add(xi[t], group.neg(xi[s])))
        if eta != group.zero():
            voltage[e] = eta
    return CoverSpec(base=g, group=group, dilation=dict(spec.dilation), voltage=voltage)


# -- matroids -----------------------------------------------------------


def _require_usable(spec: CoverSpec, character: Character | None = None, trivial_error=None):
    """``matroids._require_usable`` with the character check optional: with
    no character (the untwisted matroid) or no ``trivial_error``, only the
    trivial-group and connectivity checks run."""
    if character is not None and trivial_error:
        matroids._require_usable(spec, character, trivial_error)
    elif spec.group.is_trivial():
        raise ValueError("the matroid of a trivial cover is undefined")
    elif not spec.connected:
        raise ValueError("the matroid requires a connected cover")


def _image(spec: CoverSpec, character: Character | None):
    """``matroids._image``, or "nonzero in G" for the untwisted matroid
    (``character=None``); 0 or False means unseen."""
    if character is None:
        return any  # a reduced element is nonzero when some residue is
    return matroids._image(spec, character)


def _oracle(spec: CoverSpec, image):
    """Independence oracle of the matroid that sees G through ``image``: an edge
    set maps to (seen dilated vertices, cycle images; their number is the
    genus) per component of the base minus it, or to None when dependent.
    The components come from ``covers._deletion_components``, the balance
    test of Zaslavsky's bias matroid."""
    seen = _seen_dilation(spec, image)

    def pieces(removed):
        out = []
        for comp_v, voltages in _deletion_components(spec, set(removed)):
            dilated = sum(1 for v in comp_v if v in seen)
            cycles = [image(x) for x in voltages]
            if not dilated and not any(cycles):
                return None
            out.append((dilated, cycles))
        return out

    return pieces


def _weight(m: int, pieces, basis) -> CycInt:
    """Weight of a basis from its oracle pieces; raises unless each piece is one
    seen dilated vertex, or one cycle of image e != 0 weighing (1 - z^e)(1 - z^-e)."""
    if pieces is None:
        raise ValueError(f"{basis} is not a basis")
    weight = CycInt.from_int(m, 1)
    for dilated, cycles in pieces:
        if dilated == 0 and len(cycles) == 1:
            weight = weight * weight_of_root(m, cycles[0])
        elif dilated != 1 or cycles:
            raise ValueError(f"{basis} is not a basis")
    return weight


def is_independent(spec: CoverSpec, edge_set, character: Character | None = None) -> bool:
    """Independence oracle: deleting the edges must leave only visible components."""
    _require_usable(spec)
    removed = set(edge_set)
    unknown = removed - set(spec.base.edges)
    if unknown:
        raise ValueError(f"unknown edge id {sorted(unknown)[0]!r}")
    return _oracle(spec, _image(spec, character))(removed) is not None


def matroid_rank(spec: CoverSpec, character: Character | None = None) -> int:
    return genus(spec.base) - 1 + len(_seen_dilation(spec, _image(spec, character)))


def basis_weight(spec: CoverSpec, character: Character, basis) -> CycInt:
    """Weight of a single basis; errors if the set is not a basis."""
    _require_usable(spec, character, "weights require a nontrivial character")
    basis = tuple(sorted(basis))
    if len(basis) != matroid_rank(spec, character):
        raise ValueError(f"{basis} is not a basis")
    pieces = _oracle(spec, _image(spec, character))(basis)
    return _weight(spec.group.exponent, pieces, basis)


def untwisted_bases(spec: CoverSpec) -> tuple[EdgeSubset, ...]:
    """Bases of the untwisted matroid (voltages compared in the group itself)."""
    _require_usable(spec)
    pieces_of = _oracle(spec, any)
    subsets = combinations(spec.base.edges, matroid_rank(spec, None))
    return tuple(subset for subset in subsets if pieces_of(subset) is not None)


def max_independent_size(spec: CoverSpec, character: Character | None = None) -> int:
    """Largest independent set size by exhaustive search."""
    _require_usable(spec, character, "the twisted matroid requires a nontrivial character")
    pieces_of = _oracle(spec, _image(spec, character))
    edges = spec.base.edges
    for size in range(len(edges), -1, -1):
        for subset in combinations(edges, size):
            if pieces_of(subset) is not None:
                return size
    raise AssertionError("even the empty set is dependent")


# -- polynomials --------------------------------------------------------


def total_degree(p: MultiPoly) -> int:
    if not p.terms:
        return 0
    return max(sum(e for _, e in mono) for mono in p.terms)


def is_homogeneous(p: MultiPoly) -> bool:
    degrees = {sum(e for _, e in mono) for mono in p.terms}
    return len(degrees) <= 1


def evaluate(p: MultiPoly, values: Mapping[str, object]):
    """Evaluate at a point; every variable occurring must be assigned."""
    acc = 0
    for mono, c in p.terms.items():
        term = c
        for v, e in mono:
            if v not in values:
                raise ValueError(f"no value supplied for variable {v!r}")
            term = term * values[v] ** e
        acc = acc + term
    return acc


def value_mod(p: MultiPoly, point: Mapping[str, int], omega: int, modulus: int) -> int:
    """p at an integer point under zeta -> omega, mod modulus, term by term:
    one pow per variable of every term."""
    acc = 0
    for mono, c in p.terms.items():
        term = to_residue(c, omega, modulus)
        for v, e in mono:
            term = term * pow(point[v], e, modulus) % modulus
        acc += term
    return acc % modulus


def substitute(p: MultiPoly, var: str, replacement) -> MultiPoly:
    """Replace one variable by a variable name, scalar, or polynomial."""
    if isinstance(replacement, str):
        out: dict[Monomial, object] = {}
        for mono, c in p.terms.items():
            exps = dict(mono)
            if var in exps:
                e = exps.pop(var)
                exps[replacement] = exps.get(replacement, 0) + e
                mono = tuple(sorted(exps.items()))
            s = out.get(mono, 0) + c
            if s:
                out[mono] = s
            else:
                out.pop(mono, None)
        return MultiPoly(out)
    repl = p._coerce(replacement)
    if repl is None:
        raise TypeError(f"cannot substitute {replacement!r}")
    acc = MultiPoly()
    powers = {0: MultiPoly.const(1)}
    for mono, c in p.terms.items():
        exps = dict(mono)
        e = exps.pop(var, 0)
        rest = tuple(sorted(exps.items()))
        if e not in powers:
            powers[e] = repl**e
        acc = acc + MultiPoly({rest: c}) * powers[e]
    return acc
