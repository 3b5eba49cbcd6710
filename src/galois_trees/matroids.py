"""Character-twisted dual matroids of an abelian cover.

An edge set F of the base graph is independent when every connected
component left after deleting F still carries something the chosen
character can see: a vertex whose dilation subgroup has nontrivial image,
or a cycle whose voltage sum has nontrivial image.  Bases are the
independent sets of size

    rank = genus(base) - 1 + #(vertices with character-visible dilation),

and each basis gets a weight: the product over the complementary genus-one
components of (1 - value)(1 - conjugate value) at the component's cycle
voltage, an exact cyclotomic integer.  The matroid sees G through an
image map (the character's value exponent), and independence is the balance
test of Zaslavsky's bias matroid: one union-find over the kept edges with
voltage potentials.  ``bases`` runs it on integer images mod m: a basis
leaves exactly one root (a seen dilated vertex or a cycle of nonzero image)
in each component, so a subset is dropped at the first kept edge that
closes a cycle of image 0 or gives a component a second root.  The
reference oracle, which inspects the components left by deleting an edge
set (``covers._deletion_components``), lives with the tests, in
``tests/oracles.py``, as does the untwisted matroid, which sees G through
"nonzero in G".

Every entry point first requires a connected cover (``_require_usable``):
it reads ``CoverSpec.connected``, a property decided from base data once
per spec object, so the Galois orbits of one verification, and the
verification itself, share one check.

Specs are taken as made, never normalized: changing a voltage by an element
of D(source) + D(target) changes no cycle image in a component without a
seen dilated vertex, so neither independence nor any weight depends on the
coset representative.

One record, ``TwistedMatroid``, carries a character's bases and weights from
``bases`` to every report; the weight polynomial and its value at 1 are read
off them, and ``galois(k)`` makes the record of rho^k (same kernel, same
bases, P_{rho^k} = sigma_k(P_rho)) by one sigma_k pass over the weights.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from itertools import combinations

from .algebra import CycInt, MultiPoly, weight_of_root
from .covers import CoverSpec
from .graphs import EdgeSubset, _connected_genus
from .groups import Character

__all__ = ["TwistedMatroid", "bases", "weight_polynomial"]


def _require_usable(spec: CoverSpec, character: Character, trivial_error: str):
    """The cover must be connected (``CoverSpec.connected``, decided from base
    data once per spec object; a normalized spec is new on every
    ``build_cover``, so the verdict lasts one verification).  The
    trivial-group and trivial-character checks run on every call; the
    latter raises ``trivial_error``.
    """
    if spec.group.is_trivial():
        raise ValueError("the matroid of a trivial cover is undefined")
    if not spec.connected:
        raise ValueError("the matroid requires a connected cover")
    if character.is_trivial():
        raise ValueError(trivial_error)


def _image(spec: CoverSpec, character: Character):
    """The map the matroid sees G through; 0 means unseen."""
    if character.group != spec.group:
        raise ValueError("character and subgroup belong to different groups")
    return character.value_exponent


def _seen_dilation(spec: CoverSpec, image) -> set[str]:
    """Vertices whose dilation subgroup has an element of nonzero image."""
    return {
        v for v in spec.base.vertices if any(map(image, spec.dilation_at(v).elements))
    }


@dataclass(frozen=True)
class TwistedMatroid:
    """Bases of one character's matroid in lexicographic order, with their weights."""

    spec: CoverSpec
    character: Character
    rank: int
    bases: tuple[EdgeSubset, ...]
    weights: tuple[CycInt, ...]

    @cached_property
    def polynomial(self) -> MultiPoly:
        """Basis-generating polynomial with cyclotomic weights."""
        return MultiPoly(
            {tuple((e, 1) for e in b): w for b, w in zip(self.bases, self.weights)}
        )

    @cached_property
    def scalar(self) -> CycInt:
        """The weight polynomial at 1: the sum of the weights."""
        return sum(self.weights, CycInt.from_int(self.spec.group.exponent, 0))

    def galois(self, k: int) -> TwistedMatroid:
        """The matroid of rho^k: rho's bases and rank, every weight mapped by sigma_k."""
        weights = tuple(w.galois(k) for w in self.weights)
        return replace(self, character=self.character.power(k), weights=weights)


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


weight_polynomial = bases  # the record carries the polynomial and its value at 1
