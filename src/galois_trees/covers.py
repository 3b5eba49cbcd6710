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
smallest member of its coset.  No action table is stored: a label carries
its element, so g·(e@a) = e@(g+a) can be read off it, and a cover holds
only data linear in N·(|V| + |E|) of the base.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

from .graphs import Graph, build_graph, is_connected
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


@dataclass(frozen=True)
class Cover:
    """A built cover: total graph, projection and local degrees.

    ``spec`` is the normalized spec it was built from, and ``reduced_edges``
    the edges whose voltage normalizing changed (``validate_spec``); a cover
    assembled by other means than ``build_cover`` has neither.  No action
    table is stored: translations are read off the ``e@a`` edge labels.
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
    # each element's "@" suffix, formatted once per build, not once per lift
    labels = {a: f"@{_fmt(a)}" for a in group.elements()}

    # elements run in ascending order, so a coset is first met at its least member
    vertex_map: dict[str, str] = {}
    local_degrees: dict[str, int] = {}
    name: dict[str, dict[Element, str]] = {}
    for v in g.vertices:
        d = spec.dilation_at(v)
        name[v] = {}
        for a, label in labels.items():
            if a not in name[v]:
                tv = v + label
                vertex_map[tv] = v
                local_degrees[tv] = d.order
                for h in d.elements:
                    name[v][group.add(a, h)] = tv

    edge_descriptions = []
    edge_map = {}
    for e in g.edges:
        s, t = g.ends[e]
        eta = spec.voltage_on(e)
        for a, label in labels.items():
            te = e + label
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
