"""Character-twisted dual matroids of an abelian cover.

An edge set F of the base graph is independent when every connected
component left after deleting F still carries something the chosen
character can see: a vertex whose dilation subgroup has nontrivial image,
or a cycle whose voltage sum has nontrivial image.  Bases are the
independent sets of size

    rank = genus(base) - 1 + #(vertices with character-visible dilation),

and each basis gets a weight: the product over the complementary genus-one
components of (1 - value)(1 - conjugate value) at the component's cycle
voltage, an exact cyclotomic integer.  Passing ``character=None`` runs the
same machinery against the group itself instead of a character image,
giving the untwisted matroid.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .algebra import CycInt, MultiPoly, weight_of_root
from .covers import CoverSpec, validate_spec
from .graphs import EdgeSubset, Graph, connected_components, genus
from .groups import Character, character_kills, subgroup_from_generators

__all__ = [
    "TwistedMatroid",
    "WeightReport",
    "bases",
    "basis_weight",
    "is_independent",
    "max_independent_size",
    "weight_polynomial",
]


def _deletion_components(g: Graph, removed: set[str]) -> list[tuple[list[str], list[str]]]:
    """Connected components (vertices, edges) of the graph minus an edge set."""
    kept = tuple(e for e in g.edges if e not in removed)
    rest = Graph(g.vertices, kept, {e: g.ends[e] for e in kept})
    return [(list(c.vertices), list(c.edges)) for c in connected_components(rest)]


def _cycle_voltages(spec: CoverSpec, comp_vertices: list[str], comp_edges: list[str]):
    """Voltage sums along the fundamental cycles of one component."""
    group = spec.group
    g = spec.base
    potential = {comp_vertices[0]: group.zero()}
    tree_edges: set[str] = set()
    adj: dict[str, list[tuple[str, str, int]]] = {v: [] for v in comp_vertices}
    for e in comp_edges:
        s, t = g.ends[e]
        adj[s].append((e, t, 1))
        if s != t:
            adj[t].append((e, s, -1))
    stack = [comp_vertices[0]]
    while stack:
        v = stack.pop()
        for e, w, direction in adj[v]:
            if w in potential:
                continue
            eta = spec.voltage_on(e)
            step = eta if direction == 1 else group.neg(eta)
            potential[w] = group.add(potential[v], step)
            tree_edges.add(e)
            stack.append(w)
    values = []
    for e in comp_edges:
        if e in tree_edges:
            continue
        s, t = g.ends[e]
        eta = spec.voltage_on(e)
        # closing the tree path: potential(s) + eta - potential(t)
        values.append(group.add(group.add(potential[s], eta), group.neg(potential[t])))
    return values


def _component_is_visible(spec, rho, comp_v, comp_e) -> bool:
    if rho is None:
        if any(not spec.dilation_at(v).is_trivial() for v in comp_v):
            return True
        zero = spec.group.zero()
        return any(val != zero for val in _cycle_voltages(spec, comp_v, comp_e))
    if any(not character_kills(rho, spec.dilation_at(v)) for v in comp_v):
        return True
    return any(
        rho.value_exponent(val) != 0 for val in _cycle_voltages(spec, comp_v, comp_e)
    )


def _require_usable(spec: CoverSpec):
    """The cover must be connected: read off the base, no cover is built.

    The cover is connected exactly when the base is, and the fundamental
    cycle voltages together with the dilation subgroups generate G.
    """
    if spec.group.is_trivial():
        raise ValueError("the matroid of a trivial cover is undefined")
    comps = _deletion_components(spec.base, set())
    if len(comps) != 1:
        raise ValueError("the matroid requires a connected cover")
    gens = set(_cycle_voltages(spec, *comps[0]))
    gens.update(d for sub in spec.dilation.values() for d in sub.elements)
    if subgroup_from_generators(spec.group, gens).order != spec.group.order:
        raise ValueError("the matroid requires a connected cover")


def is_independent(spec: CoverSpec, edge_set, character: Character | None = None) -> bool:
    """Independence oracle: deleting the edges must leave only visible components."""
    spec = validate_spec(spec).spec
    _require_usable(spec)
    removed = set(edge_set)
    unknown = removed - set(spec.base.edges)
    if unknown:
        raise ValueError(f"unknown edge id {sorted(unknown)[0]!r}")
    return all(
        _component_is_visible(spec, character, cv, ce)
        for cv, ce in _deletion_components(spec.base, removed)
    )


def matroid_rank(spec: CoverSpec, character: Character | None = None) -> int:
    g = genus(spec.base)
    if character is None:
        dilated = sum(1 for v in spec.base.vertices if not spec.dilation_at(v).is_trivial())
    else:
        dilated = sum(
            1
            for v in spec.base.vertices
            if not character_kills(character, spec.dilation_at(v))
        )
    return g - 1 + dilated


@dataclass(frozen=True)
class TwistedMatroid:
    spec: CoverSpec
    character: Character | None
    rank: int
    bases: tuple[EdgeSubset, ...]
    weights: tuple[CycInt, ...]

    def weight_of(self, basis: EdgeSubset) -> CycInt:
        return self.weights[self.bases.index(tuple(basis))]


def _basis_weight_checked(spec, rho, removed) -> CycInt:
    """Weight of a presumed basis; raises if a component has the wrong shape."""
    m = spec.group.exponent
    weight = CycInt.from_int(m, 1)
    for comp_v, comp_e in _deletion_components(spec.base, set(removed)):
        if rho is None:
            raise ValueError("weights are defined for characters only")
        visible = [
            v for v in comp_v if not character_kills(rho, spec.dilation_at(v))
        ]
        comp_genus = len(comp_e) - len(comp_v) + 1
        if len(visible) == 1 and comp_genus == 0:
            continue
        if not visible and comp_genus == 1:
            cycles = _cycle_voltages(spec, comp_v, comp_e)
            exponent = rho.value_exponent(cycles[0])
            if exponent == 0:
                raise ValueError(f"{tuple(removed)} is not a basis")
            weight = weight * weight_of_root(m, exponent)
            continue
        raise ValueError(f"{tuple(removed)} is not a basis")
    return weight


def basis_weight(spec: CoverSpec, character: Character, basis) -> CycInt:
    """Weight of a single basis; errors if the set is not a basis."""
    spec = validate_spec(spec).spec
    _require_usable(spec)
    if character.is_trivial():
        raise ValueError("weights require a nontrivial character")
    basis = tuple(sorted(basis))
    if len(basis) != matroid_rank(spec, character):
        raise ValueError(f"{basis} is not a basis")
    return _basis_weight_checked(spec, character, basis)


def bases(spec: CoverSpec, character: Character) -> TwistedMatroid:
    """Enumerate all bases of the twisted matroid, with weights.

    Brute force over rank-sized edge subsets against the component oracle;
    output is lexicographic.
    """
    spec = validate_spec(spec).spec
    _require_usable(spec)
    if character.is_trivial():
        raise ValueError("the twisted matroid requires a nontrivial character")
    rank = matroid_rank(spec, character)
    found = []
    weights = []
    for subset in combinations(spec.base.edges, rank):
        removed = set(subset)
        comps = _deletion_components(spec.base, removed)
        if all(
            _component_is_visible(spec, character, cv, ce) for cv, ce in comps
        ):
            found.append(subset)
            weights.append(_basis_weight_checked(spec, character, subset))
    return TwistedMatroid(
        spec=spec,
        character=character,
        rank=rank,
        bases=tuple(found),
        weights=tuple(weights),
    )


def untwisted_bases(spec: CoverSpec) -> tuple[EdgeSubset, ...]:
    """Bases of the untwisted matroid (voltages compared in the group itself)."""
    spec = validate_spec(spec).spec
    _require_usable(spec)
    rank = matroid_rank(spec, None)
    return tuple(
        subset
        for subset in combinations(spec.base.edges, rank)
        if all(
            _component_is_visible(spec, None, cv, ce)
            for cv, ce in _deletion_components(spec.base, set(subset))
        )
    )


def max_independent_size(spec: CoverSpec, character: Character | None = None) -> int:
    """Largest independent set size by exhaustive search (test oracle)."""
    spec = validate_spec(spec).spec
    _require_usable(spec)
    if character is not None and character.is_trivial():
        raise ValueError("the twisted matroid requires a nontrivial character")
    edges = spec.base.edges
    for size in range(len(edges), -1, -1):
        for subset in combinations(edges, size):
            if all(
                _component_is_visible(spec, character, cv, ce)
                for cv, ce in _deletion_components(spec.base, set(subset))
            ):
                return size
    raise AssertionError("even the empty set is dependent")


@dataclass(frozen=True)
class WeightReport:
    matroid: TwistedMatroid
    polynomial: MultiPoly
    scalar: CycInt


def weight_polynomial(spec: CoverSpec, character: Character) -> WeightReport:
    """Basis-generating polynomial with cyclotomic weights, and its value at 1."""
    matroid = bases(spec, character)
    terms = {}
    for basis, weight in zip(matroid.bases, matroid.weights):
        mono = tuple((e, 1) for e in basis)
        terms[mono] = terms.get(mono, 0) + weight
    poly = MultiPoly(terms)
    scalar = poly.value_at_ones()
    if isinstance(scalar, int):
        scalar = CycInt.from_int(spec.group.exponent, scalar)
    return WeightReport(matroid=matroid, polynomial=poly, scalar=scalar)
