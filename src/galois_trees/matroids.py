"""Character-twisted dual matroids of an abelian cover.

An edge set F of the base graph is independent when every connected
component left after deleting F still carries something the chosen
character can see: a vertex whose dilation subgroup has nontrivial image,
or a cycle whose voltage sum has nontrivial image.  Bases are the
independent sets of size

    rank = genus(base) - 1 + #(vertices with character-visible dilation),

and each basis gets a weight: the product over the complementary genus-one
components of (1 - value)(1 - conjugate value) at the component's cycle
voltage, an exact cyclotomic integer.  One oracle serves every entry
point: it sees G through an image map (the character's value exponent, or
"nonzero in G" for the untwisted matroid, ``character=None``), and a
basis's weight is read off the component pass that found it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .algebra import CycInt, MultiPoly, weight_of_root
from .covers import CoverSpec, validate_spec
from .graphs import EdgeSubset, Graph, connected_components, genus
from .groups import Character, subgroup_from_generators

__all__ = [
    "TwistedMatroid",
    "WeightReport",
    "bases",
    "basis_weight",
    "is_independent",
    "matroid_rank",
    "max_independent_size",
    "untwisted_bases",
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
    adj: dict[str, list[tuple[str, str, tuple]]] = {v: [] for v in comp_vertices}
    for e in comp_edges:
        s, t = g.ends[e]
        adj[s].append((e, t, spec.voltage_on(e)))
        adj[t].append((e, s, group.neg(spec.voltage_on(e))))
    stack = [comp_vertices[0]]
    while stack:
        v = stack.pop()
        for e, w, step in adj[v]:
            if w not in potential:
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


def _usable(spec: CoverSpec, character: Character | None = None, trivial_error=None):
    """Validate a public entry's spec; ``trivial_error`` also rejects rho = 1."""
    spec = validate_spec(spec).spec
    _require_usable(spec)
    if trivial_error and character is not None and character.is_trivial():
        raise ValueError(trivial_error)
    return spec


def _image(spec: CoverSpec, character: Character | None):
    """The map the matroid sees G through; 0 or False means unseen."""
    if character is None:
        return any  # a reduced element is nonzero when some residue is
    if character.group != spec.group:
        raise ValueError("character and subgroup belong to different groups")
    return character.value_exponent


def _seen_dilation(spec: CoverSpec, image) -> set[str]:
    """Vertices whose dilation subgroup has an element of nonzero image."""
    return {
        v for v in spec.base.vertices if any(map(image, spec.dilation_at(v).elements))
    }


def _oracle(spec: CoverSpec, image):
    """Independence oracle of the matroid that sees G through ``image``: an edge
    set maps to (seen dilated vertices, cycle images; their number is the
    genus) per component of the base minus it, or to None when dependent."""
    seen = _seen_dilation(spec, image)

    def pieces(removed):
        out = []
        for comp_v, comp_e in _deletion_components(spec.base, set(removed)):
            dilated = sum(1 for v in comp_v if v in seen)
            cycles = [image(x) for x in _cycle_voltages(spec, comp_v, comp_e)]
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
    spec = _usable(spec)
    removed = set(edge_set)
    unknown = removed - set(spec.base.edges)
    if unknown:
        raise ValueError(f"unknown edge id {sorted(unknown)[0]!r}")
    return _oracle(spec, _image(spec, character))(removed) is not None


def matroid_rank(spec: CoverSpec, character: Character | None = None) -> int:
    return genus(spec.base) - 1 + len(_seen_dilation(spec, _image(spec, character)))


@dataclass(frozen=True)
class TwistedMatroid:
    spec: CoverSpec
    character: Character | None
    rank: int
    bases: tuple[EdgeSubset, ...]
    weights: tuple[CycInt, ...]


def basis_weight(spec: CoverSpec, character: Character, basis) -> CycInt:
    """Weight of a single basis; errors if the set is not a basis."""
    spec = _usable(spec, character, "weights require a nontrivial character")
    basis = tuple(sorted(basis))
    if len(basis) != matroid_rank(spec, character):
        raise ValueError(f"{basis} is not a basis")
    pieces = _oracle(spec, _image(spec, character))(basis)
    return _weight(spec.group.exponent, pieces, basis)


def bases(spec: CoverSpec, character: Character) -> TwistedMatroid:
    """Enumerate all bases of the twisted matroid, with weights.

    Brute force over rank-sized edge subsets against the component oracle,
    each weight read off the pass that found its basis; output is
    lexicographic.
    """
    spec = _usable(spec, character, "the twisted matroid requires a nontrivial character")
    rank = matroid_rank(spec, character)
    pieces_of = _oracle(spec, _image(spec, character))
    found = []
    weights = []
    for subset in combinations(spec.base.edges, rank):
        pieces = pieces_of(subset)
        if pieces is not None:
            found.append(subset)
            weights.append(_weight(spec.group.exponent, pieces, subset))
    return TwistedMatroid(
        spec=spec,
        character=character,
        rank=rank,
        bases=tuple(found),
        weights=tuple(weights),
    )


def untwisted_bases(spec: CoverSpec) -> tuple[EdgeSubset, ...]:
    """Bases of the untwisted matroid (voltages compared in the group itself)."""
    spec = _usable(spec)
    pieces_of = _oracle(spec, any)
    subsets = combinations(spec.base.edges, matroid_rank(spec, None))
    return tuple(subset for subset in subsets if pieces_of(subset) is not None)


def max_independent_size(spec: CoverSpec, character: Character | None = None) -> int:
    """Largest independent set size by exhaustive search (test oracle)."""
    spec = _usable(spec, character, "the twisted matroid requires a nontrivial character")
    pieces_of = _oracle(spec, _image(spec, character))
    edges = spec.base.edges
    for size in range(len(edges), -1, -1):
        for subset in combinations(edges, size):
            if pieces_of(subset) is not None:
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
    poly = MultiPoly(
        {tuple((e, 1) for e in b): w for b, w in zip(matroid.bases, matroid.weights)}
    )
    scalar = sum(matroid.weights, CycInt.from_int(spec.group.exponent, 0))
    return WeightReport(matroid=matroid, polynomial=poly, scalar=scalar)
