"""Laplacians, critical groups, and spanning-tree polynomials.

The Jacobian (critical) group of a connected graph is the torsion of the
Laplacian cokernel; its order is the number of spanning trees.  Its
invariant factors come from the Smith form of ``algebra.smith_diagonal``,
fed the Laplacian's sparse rows built straight from the edge list (no n x n
table): the ±1 pivots are eliminated first, each found by a bounded
Markowitz search, and the dense Smith form runs only on the small
remainder, so a cover with hundreds of vertices costs milliseconds rather
than the entry blow-up of a dense elimination.  The tree
polynomial refines the count: one term per spanning tree, multiplying the
variables of the edges *outside* the tree, hence homogeneous of degree equal
to the genus.  A labeled variant maps edge variables through an arbitrary
relabeling, which is what expressing a cover's polynomial in base variables
needs.  Trees are counted as coefficients by a frontier sweep over the
edges (``graphs.tree_sweep``), never visited one by one, so the cost
follows the frontier partitions and the terms kept for each, not the
number of trees.  The sweep counts complements directly, as keys of a
``modular.PackedKeys`` layout sized by the label counts; for a cover
labeled by base edges that is {base edge: N}, the layout the right-hand
side of ``verify.assemble_rhs`` uses.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import prod
from typing import Mapping

from .algebra import MultiPoly, int_det, smith_diagonal
from .algebra.intmat import _sparse_smith_diagonal
from .algebra.modular import PackedKeys
from .covers import Cover
from .graphs import Graph, is_connected, tree_sweep


def laplacian(g: Graph) -> list[list[int]]:
    """Q - A; symmetric with zero row sums, loops contributing nothing net."""
    n = len(g.vertices)
    lap = [[0] * n for _ in range(n)]
    for out, row in zip(lap, _laplacian_rows(g)):
        for j, x in row.items():
            out[j] = x
    return lap


def _laplacian_rows(g: Graph) -> list[dict[int, int]]:
    """The nonzero entries of ``laplacian(g)``, row by row as {column: entry},
    from the edge list: no n x n table is built."""
    idx = {v: i for i, v in enumerate(g.vertices)}
    rows: list[dict[int, int]] = [{} for _ in idx]
    for s, t in g.ends.values():
        if s != t:
            i, j = idx[s], idx[t]
            rows[i][j] = rows[i].get(j, 0) - 1
            rows[j][i] = rows[j].get(i, 0) - 1
    for i, row in enumerate(rows):
        if row:
            row[i] = -sum(row.values())
    return rows


def kirchhoff_count(g: Graph) -> int:
    """Number of spanning trees as a Laplacian cofactor (exact integers)."""
    if not is_connected(g):
        raise ValueError("tree count requires a connected graph")
    lap = laplacian(g)
    n = len(g.vertices)
    reduced = [row[1:] for row in lap[1:]]
    return int_det(reduced) if n > 1 else 1


@dataclass(frozen=True)
class JacobianGroup:
    """Invariant factors (each > 1, divisibility chain) and group order."""

    invariant_factors: tuple[int, ...]
    order: int


def jacobian_group(g: Graph) -> JacobianGroup:
    """Critical group of a connected graph from the Smith form of its Laplacian.

    The Laplacian is built as sparse rows from the edge list and goes to the
    sparse core of ``algebra.smith_diagonal``.  Its corank is the number of
    components, so the zero count of the diagonal checks connectivity.
    """
    diag = _sparse_smith_diagonal(_laplacian_rows(g), len(g.vertices))
    if diag.count(0) != 1:
        raise ValueError("the critical group requires a connected graph")
    factors = tuple(d for d in diag if d > 1)
    return JacobianGroup(factors, prod(factors) if factors else 1)


def labeled_jacobian_polynomial(g: Graph, labels: Mapping[str, str] | None = None) -> MultiPoly:
    """Sum over spanning trees of the product of complementary edge variables.

    ``labels`` renames the variable attached to each edge; distinct edges may
    share a label, in which case exponents add and coefficients count the
    trees sharing a complement.  The trees are counted, not visited, by the
    frontier sweep of ``graphs.tree_sweep``, which returns the complements
    packed in a ``PackedKeys`` layout with one field per label, wide enough
    for all of the label's edges (loops too: they are in every complement).
    The sweep's vertex order checks connectivity: a disconnected graph
    raises ValueError there, with no separate pass.
    """
    if labels is None:
        labels = {e: e for e in g.edges}
    keys = PackedKeys(Counter(labels[e] for e in g.edges))
    return keys.unpack(tree_sweep(g, {e: keys.unit[labels[e]] for e in g.edges}))


def jacobian_polynomial(g: Graph) -> MultiPoly:
    """Tree polynomial with one variable per edge; value 1 on each tree's
    complement, homogeneous of degree genus(g)."""
    return labeled_jacobian_polynomial(g)


def specialized_jacobian_polynomial(cover: Cover) -> MultiPoly:
    """Tree polynomial of the total graph in base edge variables; ValueError
    when the total graph is disconnected."""
    return labeled_jacobian_polynomial(cover.total, cover.edge_map)


@dataclass(frozen=True)
class PushforwardReport:
    surjective: bool
    kernel_order: int


def pushforward_jacobian(cover: Cover) -> PushforwardReport:
    """Induced map on critical groups: verify surjectivity, compute |kernel|.

    Both groups are presented as cokernels of reduced Laplacians; the divisor
    pushforward of the (vertex - basepoint) generators gives the induced map,
    and the Smith form of the stacked matrix [pushforward | relations]
    measures the cokernel of the image.  Every Smith form here, the two
    critical groups included, eliminates the unit pivots first and runs the
    dense routine on the remainder (``algebra.smith_diagonal``).
    """
    if not is_connected(cover.total):
        raise ValueError("the cover is disconnected")
    if not is_connected(cover.base):
        raise ValueError("the base is disconnected")
    base, total = cover.base, cover.total
    jac_base = jacobian_group(base).order
    jac_total = jacobian_group(total).order

    bq, tq = base.vertices[0], total.vertices[0]
    rows = [v for v in base.vertices if v != bq]
    cols = [tv for tv in total.vertices if tv != tq]
    anchor = cover.vertex_map[tq]
    push = [
        [
            (1 if cover.vertex_map[tv] == u else 0) - (1 if anchor == u else 0)
            for tv in cols
        ]
        for u in rows
    ]
    lap = laplacian(base)
    bidx = {v: i for i, v in enumerate(base.vertices)}
    reduced = [
        [lap[bidx[u]][bidx[w]] for w in rows]
        for u in rows
    ]
    stacked = [push_row + red_row for push_row, red_row in zip(push, reduced)]
    diag = smith_diagonal(stacked)
    if any(d == 0 for d in diag):
        raise AssertionError("image lattice lost full rank")
    coker = prod(diag)
    surjective = coker == 1
    image_order, rem = divmod(jac_base, coker)
    if rem:
        raise AssertionError("cokernel order does not divide the base group order")
    kernel_order, rem = divmod(jac_total, image_order)
    if rem:
        raise AssertionError("image order does not divide the total group order")
    return PushforwardReport(surjective=surjective, kernel_order=kernel_order)
