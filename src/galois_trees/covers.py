"""Abelian covers of graphs from dilation data and voltage assignments.

A cover specification holds a base graph, a finite abelian group G, a
dilation datum (a subgroup D(v) per vertex, trivial when absent), and a
voltage assignment (a group element per edge, read against the canonical
orientation and only meaningful modulo D(source) + D(target)).  A
``CoverSpec`` checks its ids and elements when it is made; ``validate_spec``
only picks canonical voltage representatives (``build_cover`` calls it, and
keeps the edges whose voltage changed on the ``Cover``).  Whether the cover
is connected is read off the base, once per spec object
(``CoverSpec.connected``); ``is_connected_cover`` searches a built cover.

The total graph is built fiberwise: the fiber over a vertex v is the coset
space G/D(v), the fiber over an edge is G itself, the source map forgets
down to the coset, and the target map first adds the edge voltage.  G acts
on every fiber by translation; the action is transitive on vertex fibers
and free and transitive on edge fibers, and the projection is harmonic with
local degree |D(v)| over v.

Total edges are labelled ``e@a`` and total vertices ``v@r`` with r the
smallest member of its coset.  No action table is stored: a translation is
computed from a label when it is needed (``_translate``), so a cover holds
only data linear in N·(|V| + |E|) of the base.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping, NamedTuple

from .graphs import Graph, build_graph, contract, is_connected
from .groups import (
    AbelianGroup,
    Element,
    Subgroup,
    minimal_generators,
    subgroup_from_generators,
    subgroup_sum,
    trivial_subgroup,
)


@dataclass(frozen=True)
class CoverSpec:
    """A cover specification, checked when made (ValueError): dilation ids are
    base vertices with subgroups of ``group``, voltage ids are base edges with
    elements of the group's arity.  ``validate_spec`` normalizes it."""

    base: Graph
    group: AbelianGroup
    dilation: dict[str, Subgroup] = field(default_factory=dict)
    voltage: dict[str, Element] = field(default_factory=dict)

    def __post_init__(self):
        for v, sub in self.dilation.items():
            if v not in self.base.vertices:
                raise ValueError(f"dilation names unknown vertex {v!r}")
            if sub.group != self.group:
                raise ValueError(f"dilation subgroup at {v!r} has a different parent group")
        for e, eta in self.voltage.items():
            if e not in self.base.ends:
                raise ValueError(f"voltage names unknown edge {e!r}")
            self.group.reduce(eta)  # raises on a wrong arity

    def dilation_at(self, v: str) -> Subgroup:
        sub = self.dilation.get(v)
        return sub if sub is not None else trivial_subgroup(self.group)

    def voltage_on(self, e: str) -> Element:
        return self.voltage.get(e, self.group.zero())

    def is_free(self) -> bool:
        return all(sub.is_trivial() for sub in self.dilation.values())

    @cached_property
    def connected(self) -> bool:
        """Whether the cover is connected, read off the base: no cover is built.

        That is so exactly when the base is connected and its cycle voltages
        together with the dilation subgroups generate G (Gross and Tucker,
        Topological Graph Theory, 1987): one ``_deletion_components`` pass
        and one subgroup closure, made once per spec object.
        """
        comps = _deletion_components(self, ())
        if len(comps) != 1:
            return False
        gens = comps[0][1] + [d for sub in self.dilation.values() for d in sub.elements]
        return subgroup_from_generators(self.group, gens).order == self.group.order


def _deletion_components(spec: CoverSpec, removed) -> list[tuple[list[str], list]]:
    """(vertices, cycle voltages) of each component of the base minus ``removed``.

    One union-find pass over the kept edges.  A link from a root to its
    parent carries the potential difference pot(root) - pot(parent); an
    edge s -> t of voltage eta either links the roots of s and t so that
    pot(t) = pot(s) + eta, or, inside one component, closes a cycle of
    voltage pot(s) + eta - pot(t).  The cycles closed in a component form a
    basis of its cycle space.
    """
    group = spec.group
    up: dict[str, tuple[str, tuple]] = {}  # non-root -> (parent, pot difference)
    members = {v: [v] for v in spec.base.vertices}
    cycles: dict[str, list] = {v: [] for v in spec.base.vertices}

    def find(v):
        pot = group.zero()
        while v in up:
            v, step = up[v]
            pot = group.add(pot, step)
        return v, pot

    for e in spec.base.edges:
        if e in removed:
            continue
        s, t = spec.base.ends[e]
        (rs, ps), (rt, pt) = find(s), find(t)
        value = group.add(group.add(ps, spec.voltage_on(e)), group.neg(pt))
        if rs == rt:
            cycles[rs].append(value)
        else:
            up[rt] = (rs, value)
            members[rs] += members.pop(rt)
            cycles[rs] += cycles.pop(rt)
    return [(members[r], cycles[r]) for r in members]


class NormalizedSpec(NamedTuple):
    spec: CoverSpec
    reduced_edges: tuple[str, ...]


def validate_spec(spec: CoverSpec) -> NormalizedSpec:
    """Rewrite voltages as canonical coset reps (``CoverSpec`` checks the ids).

    The canonical representative of a voltage class modulo
    D(source) + D(target) is its lexicographically smallest member; zero
    voltages and trivial dilation entries are dropped entirely.  The edges
    whose stored representative changed are reported.  Twisted matroids and
    L-functions do not depend on the representative and take a spec as made.
    An edge with no dilated end keeps its voltage, and the joint subgroup of
    a pair of dilated ends is closed once.
    """
    g = spec.base
    group = spec.group
    dilation = {v: sub for v, sub in spec.dilation.items() if not sub.is_trivial()}
    voltage: dict[str, Element] = {}
    reduced = []
    joints: dict[tuple[str, str], Subgroup] = {}
    for e in sorted(spec.voltage):
        eta = group.reduce(spec.voltage[e])
        s, t = sorted(g.ends[e])
        if s in dilation or t in dilation:
            if (s, t) not in joints:
                joints[s, t] = subgroup_sum(spec.dilation_at(s), spec.dilation_at(t))
            rep = min(group.add(eta, d) for d in joints[s, t].elements)
        else:
            rep = eta
        if rep != eta:
            reduced.append(e)
        if rep != group.zero():
            voltage[e] = rep
    out = CoverSpec(base=g, group=group, dilation=dilation, voltage=voltage)
    return NormalizedSpec(out, tuple(reduced))


def _fmt(t: Element) -> str:
    return ".".join(map(str, t)) if t else "0"


# a total label as build_cover writes it: name@a with a printed by _fmt
_LABEL = re.compile(r".*@\d+(\.\d+)*")


def _translate(group: AbelianGroup, gelt: Element, label: str) -> str:
    """g·(x@a) = x@(g+a), reading a back from its ``_fmt`` text."""
    name, _, text = label.rpartition("@")
    a = tuple(int(x) for x in text.split(".")) if group.orders else ()
    return f"{name}@{_fmt(group.add(gelt, a))}"


@dataclass(frozen=True)
class Cover:
    """A built cover: total graph, projection and local degrees.

    ``spec`` is the normalized spec it was built from, and ``reduced_edges``
    the edges whose voltage normalizing changed (``validate_spec``); a
    contracted cover has neither.  No action table is stored: translations
    are computed from the ``e@a`` edge labels, which survive contraction
    (see ``_translate``).
    """

    total: Graph
    base: Graph
    group: AbelianGroup
    vertex_map: dict[str, str]
    edge_map: dict[str, str]
    local_degrees: dict[str, int]
    spec: CoverSpec | None = None
    reduced_edges: tuple[str, ...] = ()

    def vertex_fiber(self, v: str) -> tuple[str, ...]:
        return tuple(sorted(tv for tv, bv in self.vertex_map.items() if bv == v))

    def edge_fiber(self, e: str) -> tuple[str, ...]:
        return tuple(sorted(te for te, be in self.edge_map.items() if be == e))

    @property
    def degree(self) -> int:
        return self.group.order


def build_cover(spec: CoverSpec) -> Cover:
    """Construct the total graph of a cover specification fiber by fiber."""
    spec, reduced_edges = validate_spec(spec)
    g = spec.base
    group = spec.group
    elements = group.elements()

    # elements run in ascending order, so a coset is first met at its least member
    vertex_map: dict[str, str] = {}
    local_degrees: dict[str, int] = {}
    name: dict[str, dict[Element, str]] = {}
    for v in g.vertices:
        d = spec.dilation_at(v)
        name[v] = {}
        for a in elements:
            if a not in name[v]:
                tv = f"{v}@{_fmt(a)}"
                vertex_map[tv] = v
                local_degrees[tv] = d.order
                for h in d.elements:
                    name[v][group.add(a, h)] = tv

    edge_descriptions = []
    edge_map = {}
    for e in g.edges:
        s, t = g.ends[e]
        eta = spec.voltage_on(e)
        for a in elements:
            te = f"{e}@{_fmt(a)}"
            edge_descriptions.append((te, name[s][a], name[t][group.add(a, eta)]))
            edge_map[te] = e
    total = build_graph(vertex_map, edge_descriptions)

    return Cover(
        total=total,
        base=g,
        group=group,
        vertex_map=vertex_map,
        edge_map=edge_map,
        local_degrees=local_degrees,
        spec=spec,
        reduced_edges=reduced_edges,
    )


def is_connected_cover(cover: Cover) -> bool:
    """Search the built cover: once it is built, this is about half the cost
    of ``cover.spec.connected``, whose subgroup closure spans all of G."""
    return is_connected(cover.total)


def _check(ok: bool, message: str):
    if not ok:
        raise AssertionError(message)


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
        _check(len(cover.edge_fiber(e)) == n, f"edge fiber over {e} has the wrong size")
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
    edge_orbits = {min(cover.edge_fiber(e)): set() for e in base.edges}
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
            len(orbit) == n and orbit == set(cover.edge_fiber(cover.edge_map[start])),
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


class FreeResolution(NamedTuple):
    spec: CoverSpec
    added_edges: tuple[str, ...]


def free_resolution(spec: CoverSpec) -> FreeResolution:
    """Trade every dilated vertex for voltage loops generating its subgroup.

    Contracting the added loops in the resolved cover reproduces the
    original cover's invariants.  Generators are the canonical greedy
    generating set of each dilation subgroup, so the construction is
    deterministic.
    """
    spec = validate_spec(spec).spec
    g = spec.base
    new_edges = [(e, *g.ends[e]) for e in g.edges]
    voltage = dict(spec.voltage)
    added = []
    used = set(g.edges)
    for v in sorted(spec.dilation):
        sub = spec.dilation[v]
        for k, gen in enumerate(minimal_generators(sub)):
            eid = f"{v}.res{k}"
            while eid in used:
                eid += "'"
            used.add(eid)
            added.append(eid)
            new_edges.append((eid, v, v))
            voltage[eid] = gen
    base = build_graph(g.vertices, new_edges)
    return FreeResolution(
        CoverSpec(base=base, group=spec.group, dilation={}, voltage=voltage),
        tuple(added),
    )


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
