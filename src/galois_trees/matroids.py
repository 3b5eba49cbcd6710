"""Character-twisted dual matroids of an abelian cover.

An edge set F of the base graph is independent when every connected
component left after deleting F still carries something the chosen
character can see: a vertex whose dilation subgroup has nontrivial image,
or a cycle whose voltage sum has nontrivial image.  Bases are the
independent sets of size

    rank = genus(base) - 1 + #(vertices with character-visible dilation),

and each basis gets a weight: the product over the complementary genus-one
components of (1 - value)(1 - conjugate value) at the component's cycle
voltage, an exact cyclotomic integer.  The oracle sees G through an image
map (the character's value exponent, or "nonzero in G" for the untwisted
matroid, ``character=None``) and runs one union-find over the kept edges
with voltage potentials, the balance test of Zaslavsky's bias matroid
(``_deletion_components``).  ``bases`` runs it on integer images mod m:
a basis leaves exactly one root (a seen dilated vertex or a cycle of
nonzero image) in each component, so a subset is dropped at the first kept
edge that closes a cycle of image 0 or gives a component a second root.

Every entry point first requires a connected cover (``_require_usable``).
That is decided from base data once per spec object and kept on the spec,
so the Galois orbits of one verification share one check.

Specs are taken as made, never normalized: changing a voltage by an element
of D(source) + D(target) changes no cycle image in a component without a
seen dilated vertex, so neither independence nor any weight depends on the
coset representative.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .algebra import CycInt, MultiPoly, weight_of_root
from .covers import CoverSpec
from .graphs import EdgeSubset, _connected_genus, genus
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


def _require_usable(spec: CoverSpec, character: Character | None = None, trivial_error=None):
    """The cover must be connected: read off the base, no cover is built.

    The cover is connected exactly when the base is, and the fundamental
    cycle voltages together with the dilation subgroups generate G.  That
    verdict, either way, is decided by one ``_deletion_components`` pass
    per spec object and kept on the spec (``CoverSpec._connected``); a
    normalized spec is new on every ``build_cover``, so the memo lasts one
    verification.  The trivial-group and ``trivial_error`` checks (the
    latter rejects the trivial character) run on every call.
    """
    if spec.group.is_trivial():
        raise ValueError("the matroid of a trivial cover is undefined")
    if spec._connected is None:
        comps = _deletion_components(spec, set())
        connected = len(comps) == 1
        if connected:
            gens = set(comps[0][1])
            gens.update(d for sub in spec.dilation.values() for d in sub.elements)
            connected = subgroup_from_generators(spec.group, gens).order == spec.group.order
        object.__setattr__(spec, "_connected", connected)  # a memo on a frozen spec
    if not spec._connected:
        raise ValueError("the matroid requires a connected cover")
    if trivial_error and character is not None and character.is_trivial():
        raise ValueError(trivial_error)


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


@dataclass(frozen=True)
class TwistedMatroid:
    spec: CoverSpec
    character: Character | None
    rank: int
    bases: tuple[EdgeSubset, ...]
    weights: tuple[CycInt, ...]


def basis_weight(spec: CoverSpec, character: Character, basis) -> CycInt:
    """Weight of a single basis; errors if the set is not a basis."""
    _require_usable(spec, character, "weights require a nontrivial character")
    basis = tuple(sorted(basis))
    if len(basis) != matroid_rank(spec, character):
        raise ValueError(f"{basis} is not a basis")
    pieces = _oracle(spec, _image(spec, character))(basis)
    return _weight(spec.group.exponent, pieces, basis)


def bases(spec: CoverSpec, character: Character) -> TwistedMatroid:
    """Enumerate all bases of the twisted matroid, with weights, in lexicographic order.

    Each rank-sized subset costs one union-find over the |E| - rank =
    |V| - #seen edges it keeps, with potentials mod m.  By that count the
    components left have (cycles + seen dilated vertices - 1) summing to 0,
    no term negative, so a basis leaves exactly one root in each: a seen
    dilated vertex or one cycle of nonzero image c, weighing
    (1 - z^c)(1 - z^-c).  A subset is dropped at the first kept edge that
    closes a cycle of image 0 or in a rooted component, or joins two rooted
    components; by the same count, one that survives roots every component.
    """
    _require_usable(spec, character, "the twisted matroid requires a nontrivial character")
    image = _image(spec, character)
    m = spec.group.exponent
    seen = _seen_dilation(spec, image)
    edges = spec.base.edges
    rank = _connected_genus(spec.base) - 1 + len(seen)  # the base is connected by now
    arcs = [(e, *spec.base.ends[e], image(spec.voltage_on(e))) for e in edges]
    one = CycInt.from_int(m, 1)
    root_weight = {}
    found = []
    # kept sets in lexicographic order are the complements of the bases in reverse order
    for kept in combinations(arcs, len(arcs) - rank):
        up = {}  # non-root -> (parent, pot(self) - pot(parent))
        rooted = set(seen)
        cycles = []
        for _, s, t, x in kept:
            while s in up:
                s, step = up[s]
                x += step
            while t in up:
                t, step = up[t]
                x -= step
            x %= m  # cycle image, or pot(t's root) - pot(s's root) after a link
            if s == t:
                if not x or s in rooted:
                    break
                rooted.add(s)
                cycles.append(x)
            elif t in rooted:
                if s in rooted:
                    break
                up[s] = (t, -x)
            else:
                up[t] = (s, x)
        else:
            kept_ids = {e for e, *_ in kept}
            weight = one
            for c in cycles:
                if c not in root_weight:
                    root_weight[c] = weight_of_root(m, c)
                weight = weight * root_weight[c]
            found.append((tuple(e for e in edges if e not in kept_ids), weight))
    found.reverse()
    return TwistedMatroid(
        spec=spec,
        character=character,
        rank=rank,
        bases=tuple(b for b, _ in found),
        weights=tuple(w for _, w in found),
    )


def untwisted_bases(spec: CoverSpec) -> tuple[EdgeSubset, ...]:
    """Bases of the untwisted matroid (voltages compared in the group itself)."""
    _require_usable(spec)
    pieces_of = _oracle(spec, any)
    subsets = combinations(spec.base.edges, matroid_rank(spec, None))
    return tuple(subset for subset in subsets if pieces_of(subset) is not None)


def max_independent_size(spec: CoverSpec, character: Character | None = None) -> int:
    """Largest independent set size by exhaustive search (test oracle)."""
    _require_usable(spec, character, "the twisted matroid requires a nontrivial character")
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
