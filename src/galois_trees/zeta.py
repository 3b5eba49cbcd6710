"""Graph zeta and L-function reciprocals as exact polynomial determinants.

Everything is a polynomial in one variable s; no analytic machinery.  One
follower table maps each oriented edge to the oriented edges that may come
next: those leaving its head, except its own reversal.  The two-term form
det(I - W) stamps row e of W from it, with s^(length of e) at every
follower f.  The three-term form at unit lengths is
(1 - s^2)^(genus - 1) * det(I - s*A + s^2*(Q - I)), the power taken as
genus - 1 passes of c_k <- c_k - c_(k-2).  On a tree (genus 0)
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

No polynomial product is taken.  The closed-path census N_k comes from
the Ihara reciprocal's coefficients by Newton's identities, since
zeta(s) = exp sum N_k s^k / k (Bass, 1992), and the leading term at s = 1
by synthetic division by s - 1 (``UniPoly.vanishing_order_at_one``).

Every determinant is one ``det_over_ring`` call: det(I - diag(s^l) B) for
a scalar B over Z[zeta_m] in sparse rows {column: entry}, taken modulo
primes p ≡ 1 (mod m) under every embedding zeta -> omega^k and lifted by
CRT.  For I - W, B is 2|E| x 2|E| with value(a) at each follower of a, and
l is the length of a's edge.  The three-term matrix takes the
2|V| x 2|V| T = [[A, I - Q], [I, 0]] at unit lengths: by the Schur
complement of its lower-right I, det(I - sT) = det(I - sA + s^2 (Q - I)).
The twisted Laplacian is det(I - T) with T = I - Q + A_rho, the value at
s = 1.  Each is one Hessenberg reduction of the N x N unit-step matrix,
N = sum l, unless N^3 > (N + 1) n^3 for B n x n (long edges); then
elimination at s = 0..d and interpolation.  An L reciprocal at rho^k is
sigma_k of the one at rho, because the matrices are.  Edge lengths follow
``graphs.edge_lengths``: positive ints, bools refused.
"""

from __future__ import annotations

from typing import Mapping

from .algebra import CycInt, UniPoly, det_over_ring
from .covers import CoverSpec
from .graphs import Graph, _connected_genus, edge_lengths, genus, is_connected, valencies
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
    """det(I - diag(s^length) B), B[a][b] = value(a) when b follows a;
    the callers have checked that g is connected."""
    lengths = edge_lengths(g, lengths)
    followers = _followers(g)
    index = {a: i for i, a in enumerate(followers)}
    rows = [dict.fromkeys((index[b] for b in after), value(a)) for a, after in followers.items()]
    return det_over_ring(rows, [lengths[e] for e, _ in followers])


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
    """(1 - s^2)^(genus - 1) det(I - s A + s^2 (Q - I)) with A = adjacency.

    The determinant is det(I - sT) with T = [[A, I - Q], [I, 0]], 2n x 2n:
    the Schur complement of its lower-right I is I - sA + s^2 (Q - I)."""
    _require_connected(g)
    n = len(adjacency)
    valency = valencies(g)
    rows = [{**row, n + i: 1 - valency[v]} for i, (row, v) in enumerate(zip(adjacency, g.vertices))]
    rows += ({i: 1} for i in range(n))
    det = det_over_ring(rows, [1] * (2 * n))
    gg = _connected_genus(g)
    if gg >= 1:
        coeffs = list(det.coeffs) + [0, 0] * (gg - 1)
        for _ in range(gg - 1):  # times 1 - s^2: c_k <- c_k - c_(k-2), from the top
            for k in range(len(coeffs) - 1, 1, -1):
                coeffs[k] -= coeffs[k - 2]
        return UniPoly(coeffs)
    # a tree: no closed reduced walks, and A_rho is A conjugated by a diagonal
    # of roots of unity, so the determinant is 1 - s^2 and the reciprocal 1
    if det != UniPoly((1, 0, -1)):
        raise AssertionError(f"the determinant on a tree is {det!r}, not 1 - s^2")
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
    valency = valencies(g)
    rows = _adjacency(g, _oriented_values(spec, rho))
    for i, v in enumerate(g.vertices):
        rows[i][i] = rows[i].get(i, zero) + 1 - valency[v]
    # T = I - Q + A_rho has det(I - T) = det(Q - A_rho), at s = 1; a CycInt
    # on every diagonal makes it a CycInt
    return det_over_ring(rows, [1] * len(rows)).evaluate(1)


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


def closed_path_census(reciprocal: UniPoly, max_length: int) -> dict[int, int]:
    """Counts of closed, cyclically reduced paths by length, up to max_length
    (from 1 to 12), in a connected graph, read off its Ihara reciprocal
    (``ihara_zeta_reciprocal``, which refuses a disconnected graph).

    A path is a sequence of oriented edges, consecutive ones composing head
    to tail, closing up, and never immediately backtracking (including
    around the closure).  Counted with starting edge and direction, so this
    matches the trace of powers of the unit-length edge matrix.  These are
    the power sums N_k of the reciprocal roots of the Ihara reciprocal
    1 + c_1 s + c_2 s^2 + ..., so Newton's identities give them:
    N_k = -k c_k - sum_(0<i<k) c_i N_(k-i), with c_i = 0 past the degree.
    """
    if max_length < 1:
        raise ValueError("census length must be at least 1")
    if max_length > 12:
        raise ValueError("census length is capped at 12")
    c = reciprocal.coeffs + (0,) * max_length
    counts: dict[int, int] = {}
    for k in range(1, max_length + 1):
        counts[k] = -k * c[k] - sum(c[i] * counts[k - i] for i in range(1, k))
    return counts
