"""Graph zeta and L-function reciprocals as exact polynomial determinants.

Everything is a polynomial in one variable s; no analytic machinery.  One
follower table maps each oriented edge to the oriented edges that may come
next: those leaving its head, except its own reversal.  The two-term form
det(I - W) stamps row e of W from it, with s^(length of e) at every
follower f, and the closed-path census walks the same table.  The
three-term form at unit lengths is
(1 - s^2)^(genus - 1) * det(I - s*A + s^2*(Q - I)).  On a tree (genus 0)
nothing is divided: the determinant is checked to equal 1 - s^2, and a
mismatch raises AssertionError; the reciprocal is 1.  Twisting by a
character multiplies row e of W by the character value of e's voltage,
read along e, and replaces A by A_rho; that is defined for covers with no
dilation (honest coverings) only.  Each zeta reciprocal is the trivial
character's case: each matrix is made by one function for both, with the
value 1 in place of rho.  ``_adjacency`` gives A and A_rho as sparse rows, from
which both three-term matrices and the twisted Laplacian Q - A_rho of
``twisted_laplacian_det`` are stamped; a loop puts rho(eta) + rho(-eta)
on the diagonal, which is 0 when rho(eta) = ±i.

Every determinant is one ``det_over_ring`` call on a matrix over
Z[zeta_m][s], taken modulo primes p ≡ 1 (mod m) under every embedding
zeta -> omega^k and lifted by CRT; the 2|E| x 2|E| edge matrix goes in as
sparse rows {column: entry}.  I - W is I - diag(s^length) B: one
Hessenberg reduction of the N x N unit-step edge matrix, N the total
length, unless N^3 > (N + 1) n^3 with n = 2|E|; then, as for the
three-term matrix, elimination at s = 0..d and interpolation.  An L
reciprocal at rho^k is sigma_k of the one at rho, because the matrices
are.  Edge lengths follow ``graphs.edge_lengths``: positive ints, bools
refused.
"""

from __future__ import annotations

from typing import Mapping

from .algebra import CycInt, UniPoly, det_over_ring
from .covers import CoverSpec
from .graphs import Graph, _connected_genus, edge_lengths, genus, is_connected
from .groups import Character

OrientedEdge = tuple[str, int]


def _followers(g: Graph) -> dict[OrientedEdge, list[OrientedEdge]]:
    """Each oriented edge (e, 1), (e, -1), in edge order, to the oriented
    edges that may follow it: those leaving its head, except its reversal."""
    leaving: dict[str, list[OrientedEdge]] = {v: [] for v in g.vertices}
    for e in g.edges:
        s, t = g.ends[e]
        leaving[s].append((e, 1))
        leaving[t].append((e, -1))
    # the head of (e, 1) is ends[e][1], the head of (e, -1) is ends[e][0]
    return {
        (e, d): [b for b in leaving[g.ends[e][(1 + d) // 2]] if b != (e, -d)]
        for e in g.edges
        for d in (1, -1)
    }


def _require_connected(g: Graph):
    """Refuse a disconnected graph: the one search a zeta function makes."""
    if not is_connected(g):
        raise ValueError("zeta functions require a connected graph")


def _metric(g: Graph, lengths: Mapping[str, int] | None, value) -> UniPoly:
    """det(I - W), W[a][b] = value(a) * s^(length of a) when b follows a;
    the callers have checked that g is connected."""
    lengths = edge_lengths(g, lengths)
    followers = _followers(g)
    index = {a: i for i, a in enumerate(followers)}
    rows = []  # {column: entry}: a row has one entry per follower, and the diagonal
    for a, after in followers.items():
        row = dict.fromkeys((index[b] for b in after), UniPoly.monomial(lengths[a[0]], -value(a)))
        row[index[a]] = row.get(index[a], UniPoly()) + 1
        rows.append(row)
    det = det_over_ring(rows)
    # an edgeless graph gives the 0x0 matrix, whose determinant is the int 1
    return det if isinstance(det, UniPoly) else UniPoly.const(det)


def metric_zeta_reciprocal(g: Graph, lengths: Mapping[str, int] | None = None) -> UniPoly:
    """det(I - W) with entries s^(edge length): the metric zeta reciprocal."""
    _require_connected(g)
    return _metric(g, lengths, lambda a: 1)


def _adjacency(g: Graph, value) -> list[dict]:
    """A as sparse rows {column: entry}, vertices in order: an edge s -> t
    adds value((e, 1)) at (s, t) and value((e, -1)) at (t, s), both on the
    diagonal for a loop."""
    index = {v: i for i, v in enumerate(g.vertices)}
    rows: list[dict] = [{} for _ in index]
    for e in g.edges:
        i, j = (index[v] for v in g.ends[e])
        rows[i][j] = rows[i].get(j, 0) + value((e, 1))
        rows[j][i] = rows[j].get(i, 0) + value((e, -1))
    return rows


def _three_term(g: Graph, adjacency: list[dict]) -> UniPoly:
    """(1 - s^2)^(genus - 1) det(I - s A + s^2 (Q - I)) with A = adjacency."""
    _require_connected(g)
    rows = [{j: UniPoly.monomial(1, -x) for j, x in row.items()} for row in adjacency]
    for i, v in enumerate(g.vertices):
        rows[i][i] = rows[i].get(i, UniPoly()) + UniPoly((1, 0, g.valency(v) - 1))
    det = det_over_ring(rows)
    one_minus_s2 = UniPoly((1, 0, -1))
    gg = _connected_genus(g)
    if gg >= 1:
        return det * one_minus_s2 ** (gg - 1)
    # a tree: no closed reduced walks, and A_rho is A conjugated by a diagonal
    # of roots of unity, so the determinant is 1 - s^2 and the reciprocal 1
    if det != one_minus_s2:
        raise AssertionError(f"the determinant on a tree is {det}, not 1 - s^2")
    return UniPoly.const(det.coeffs[0])


def ihara_zeta_reciprocal(g: Graph) -> UniPoly:
    """(1 - s^2)^(g-1) det(I - sA + s^2(Q - I)); equals the two-term form at
    unit lengths."""
    return _three_term(g, _adjacency(g, lambda a: 1))


def _require_free(spec: CoverSpec, rho: Character):
    """Refuse dilation, or a character of another group; the spec is taken as made."""
    if not spec.is_free():
        raise ValueError("L-functions are defined for covers with no dilation")
    if rho.group != spec.group:
        raise ValueError("the character belongs to a different group than the cover")


def _oriented_values(spec: CoverSpec, rho: Character):
    """The oriented edge (e, d) to rho of its voltage read along d."""

    def value(a: OrientedEdge) -> CycInt:
        e, d = a
        eta = spec.voltage_on(e)
        return rho.cyc_value(eta if d == 1 else spec.group.neg(eta))

    return value


def metric_l_reciprocal(
    spec: CoverSpec, rho: Character, lengths: Mapping[str, int] | None = None
) -> UniPoly:
    """det(I - W_rho) for a dilation-free cover; the trivial character gives
    back the metric zeta reciprocal."""
    _require_free(spec, rho)
    _require_connected(spec.base)
    return _metric(spec.base, lengths, _oriented_values(spec, rho))


def artin_l_reciprocal_three_term(spec: CoverSpec, rho: Character) -> UniPoly:
    """(1 - s^2)^(g-1) det(I - s A_rho + s^2 (Q - I)) for a dilation-free cover."""
    _require_free(spec, rho)
    return _three_term(spec.base, _adjacency(spec.base, _oriented_values(spec, rho)))


def twisted_laplacian_det(spec: CoverSpec, rho: Character) -> CycInt:
    """det(Q - A_rho); nonzero for a connected dilation-free cover and a
    nontrivial character, and equal to the scalar matroid weight."""
    _require_free(spec, rho)
    if rho.is_trivial():
        raise ValueError("the twisted Laplacian of the trivial character is singular")
    g = spec.base
    if not is_connected(g):
        raise ValueError("the twisted Laplacian requires a connected base")
    zero = CycInt.from_int(spec.group.exponent, 0)
    rows = [{j: -x for j, x in row.items()} for row in _adjacency(g, _oriented_values(spec, rho))]
    for i, v in enumerate(g.vertices):
        rows[i][i] = rows[i].get(i, zero) + g.valency(v)
    # a CycInt on every diagonal: the determinant is a CycInt
    return det_over_ring(rows)


def zeta_leading_at_one(
    g: Graph, lengths: Mapping[str, int] | None = None
) -> tuple[int, int]:
    """(vanishing order, leading coefficient) of the metric zeta reciprocal
    at s = 1; requires genus at least two (the statement degenerates below)."""
    if genus(g) < 2:
        raise ValueError("the expansion at s = 1 needs genus at least 2")
    return _metric(g, lengths, lambda a: 1).vanishing_order_at_one()


def l_leading_at_one(
    spec: CoverSpec, rho: Character, lengths: Mapping[str, int] | None = None
) -> tuple[int, CycInt]:
    """(vanishing order, leading coefficient) of the metric L reciprocal at
    s = 1 for a dilation-free cover and nontrivial character."""
    _require_free(spec, rho)
    if rho.is_trivial():
        raise ValueError("use the zeta expansion for the trivial character")
    _require_connected(spec.base)
    det = _metric(spec.base, lengths, _oriented_values(spec, rho))
    order, coeff = det.vanishing_order_at_one()
    if isinstance(coeff, int):
        coeff = CycInt.from_int(spec.group.exponent, coeff)
    return order, coeff


def closed_path_census(g: Graph, max_length: int) -> dict[int, int]:
    """Counts of closed, cyclically reduced paths by length, up to max_length
    (from 1 to 12).

    A path is a sequence of oriented edges, consecutive ones composing head
    to tail, closing up, and never immediately backtracking (including
    around the closure).  Counted with starting edge and direction, so this
    matches the trace of powers of the unit-length edge matrix.  Walks are
    counted, not listed: for each first edge, the number of walks ending at
    each last edge is stepped along the follower table, and a walk closes
    when the first edge follows its last one.
    """
    if max_length < 1:
        raise ValueError("census length must be at least 1")
    if max_length > 12:
        raise ValueError("census length is capped at 12")
    followers = _followers(g)
    counts = dict.fromkeys(range(1, max_length + 1), 0)
    for first in followers:
        walks = {first: 1}  # last edge -> walks of the current length from first
        for length in counts:
            counts[length] += sum(c for last, c in walks.items() if first in followers[last])
            step: dict[OrientedEdge, int] = {}
            for last, c in walks.items():
                for nxt in followers[last]:
                    step[nxt] = step.get(nxt, 0) + c
            walks = step
    return counts
