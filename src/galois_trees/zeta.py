"""Graph zeta and L-function reciprocals as exact polynomial determinants.

Everything is a polynomial in one variable s; no analytic machinery.  The
two-term form is det(I - W) over the doubled (oriented-edge) index set with
W[(e), (f)] = s^(length of e) whenever the head of e is the tail of f and f
is not the reversal of e.  The three-term form at unit lengths is
(1 - s^2)^(genus - 1) * det(I - s*A + s^2*(Q - I)).  Twisting by a character
multiplies entries by the character value of the source edge's voltage;
that is defined for covers with no dilation (honest coverings) only.

Every determinant is one ``det_over_ring`` call on a matrix over
Z[zeta_m][s], which evaluates it modulo primes p ≡ 1 (mod m), at the
points s = 0..d and under every embedding zeta -> omega^k, and lifts the
interpolated coefficients by CRT.  An L reciprocal at rho^k is
sigma_k of the one at rho, because the matrices are.  Edge lengths are
positive ints; bools are refused.
"""

from __future__ import annotations

from typing import Mapping

from .algebra import CycInt, UniPoly, det_over_ring
from .covers import CoverSpec
from .graphs import Graph, genus, is_connected, valency_adjacency
from .groups import Character

OrientedEdge = tuple[str, int]


def _oriented_edges(g: Graph) -> list[OrientedEdge]:
    return [(e, d) for e in g.edges for d in (1, -1)]


def _tail(g: Graph, oe: OrientedEdge) -> str:
    e, d = oe
    s, t = g.ends[e]
    return s if d == 1 else t


def _head(g: Graph, oe: OrientedEdge) -> str:
    e, d = oe
    s, t = g.ends[e]
    return t if d == 1 else s


def _check_lengths(g: Graph, lengths: Mapping[str, int] | None) -> dict[str, int]:
    if lengths:
        unknown = set(lengths) - set(g.edges)
        if unknown:
            raise ValueError(f"length given for unknown edge {sorted(unknown)[0]!r}")
    out = {}
    for e in g.edges:
        x = 1 if lengths is None else lengths.get(e, 1)
        if isinstance(x, bool) or not isinstance(x, int) or x < 1:
            raise ValueError(f"edge length for {e!r} must be a positive integer")
        out[e] = x
    return out


def _edge_matrix(g: Graph, lengths: dict[str, int], rho_of=None) -> list[list]:
    """I - W over the oriented edges; rho_of maps an oriented edge to a CycInt."""
    oriented = _oriented_edges(g)
    n = len(oriented)
    rows = []
    for i, a in enumerate(oriented):
        head = _head(g, a)
        coeff = 1 if rho_of is None else rho_of(a)
        w = UniPoly.monomial(lengths[a[0]], coeff)
        row = []
        for j, b in enumerate(oriented):
            entry = UniPoly.const(1) if i == j else UniPoly()
            if _tail(g, b) == head and not (b[0] == a[0] and b[1] == -a[1]):
                entry = entry - w
            row.append(entry)
        rows.append(row)
    return rows


def metric_zeta_reciprocal(g: Graph, lengths: Mapping[str, int] | None = None) -> UniPoly:
    """det(I - W) with entries s^(edge length): the metric zeta reciprocal."""
    if not is_connected(g):
        raise ValueError("zeta functions require a connected graph")
    lengths = _check_lengths(g, lengths)
    det = det_over_ring(_edge_matrix(g, lengths))
    return det if isinstance(det, UniPoly) else UniPoly.const(det)


def _three_term(g: Graph, a_matrix, power_base: UniPoly) -> UniPoly:
    idx_n = len(g.vertices)
    q, _ = valency_adjacency(g)
    rows = []
    for i in range(idx_n):
        row = []
        for j in range(idx_n):
            entry = UniPoly.const(1) if i == j else UniPoly()
            entry = entry - UniPoly.monomial(1, a_matrix[i][j])
            diag = q[i][i] - 1 if i == j else 0
            if diag:
                entry = entry + UniPoly.monomial(2, diag)
            row.append(entry)
        rows.append(row)
    det = det_over_ring(rows)
    gg = genus(g)
    if gg >= 1:
        return det * power_base ** (gg - 1)
    return det.exact_div(power_base ** (1 - gg))


def ihara_zeta_reciprocal(g: Graph) -> UniPoly:
    """(1 - s^2)^(g-1) det(I - sA + s^2(Q - I)); equals the two-term form at
    unit lengths."""
    if not is_connected(g):
        raise ValueError("zeta functions require a connected graph")
    _, a = valency_adjacency(g)
    one_minus_s2 = UniPoly((1, 0, -1))
    return _three_term(g, a, one_minus_s2)


def _require_free(spec: CoverSpec, rho: Character):
    """Refuse dilation, or a character of another group; the spec is taken as made."""
    if not spec.is_free():
        raise ValueError("L-functions are defined for covers with no dilation")
    if rho.group != spec.group:
        raise ValueError("the character belongs to a different group than the cover")


def metric_l_reciprocal(
    spec: CoverSpec, rho: Character, lengths: Mapping[str, int] | None = None
) -> UniPoly:
    """det(I - W_rho) for a dilation-free cover; the trivial character gives
    back the metric zeta reciprocal."""
    _require_free(spec, rho)
    g = spec.base
    if not is_connected(g):
        raise ValueError("zeta functions require a connected graph")
    lengths = _check_lengths(g, lengths)

    def rho_of(oe: OrientedEdge) -> CycInt:
        e, d = oe
        eta = spec.voltage_on(e)
        if d == -1:
            eta = spec.group.neg(eta)
        return rho.cyc_value(eta)

    det = det_over_ring(_edge_matrix(g, lengths, rho_of))
    return det if isinstance(det, UniPoly) else UniPoly.const(det)


def twisted_adjacency(spec: CoverSpec, rho: Character) -> list[list[CycInt]]:
    """A_rho: each edge contributes its character value once, plus the
    conjugate in the transposed slot (both on the diagonal for a loop)."""
    g = spec.base
    idx = {v: i for i, v in enumerate(g.vertices)}
    m = spec.group.exponent
    zero = CycInt.from_int(m, 0)
    n = len(g.vertices)
    a = [[zero] * n for _ in range(n)]
    for e in g.edges:
        s, t = g.ends[e]
        val = rho.cyc_value(spec.voltage_on(e))
        i, j = idx[s], idx[t]
        a[i][j] = a[i][j] + val
        a[j][i] = a[j][i] + val.conj()
    return a


def artin_l_reciprocal_three_term(spec: CoverSpec, rho: Character) -> UniPoly:
    """(1 - s^2)^(g-1) det(I - s A_rho + s^2 (Q - I)) for a dilation-free cover."""
    _require_free(spec, rho)
    g = spec.base
    if not is_connected(g):
        raise ValueError("zeta functions require a connected graph")
    a_rho = twisted_adjacency(spec, rho)
    one_minus_s2 = UniPoly((1, 0, -1))
    return _three_term(g, a_rho, one_minus_s2)


def twisted_laplacian(spec: CoverSpec, rho: Character) -> list[list[CycInt]]:
    g = spec.base
    m = spec.group.exponent
    a_rho = twisted_adjacency(spec, rho)
    qdiag, _ = valency_adjacency(g)
    n = len(g.vertices)
    return [
        [
            (CycInt.from_int(m, qdiag[i][i]) if i == j else CycInt.from_int(m, 0))
            - a_rho[i][j]
            for j in range(n)
        ]
        for i in range(n)
    ]


def twisted_laplacian_det(spec: CoverSpec, rho: Character) -> CycInt:
    """det(Q - A_rho); nonzero for a connected dilation-free cover and a
    nontrivial character, and equal to the scalar matroid weight."""
    _require_free(spec, rho)
    if rho.is_trivial():
        raise ValueError("the twisted Laplacian of the trivial character is singular")
    if not is_connected(spec.base):
        raise ValueError("the twisted Laplacian requires a connected base")
    det = det_over_ring(twisted_laplacian(spec, rho))
    if isinstance(det, int):
        det = CycInt.from_int(spec.group.exponent, det)
    return det


def zeta_leading_at_one(
    g: Graph, lengths: Mapping[str, int] | None = None
) -> tuple[int, int]:
    """(vanishing order, leading coefficient) of the metric zeta reciprocal
    at s = 1; requires genus at least two (the statement degenerates below)."""
    if genus(g) < 2:
        raise ValueError("the expansion at s = 1 needs genus at least 2")
    return metric_zeta_reciprocal(g, lengths).vanishing_order_at_one()


def l_leading_at_one(
    spec: CoverSpec, rho: Character, lengths: Mapping[str, int] | None = None
) -> tuple[int, CycInt]:
    """(vanishing order, leading coefficient) of the metric L reciprocal at
    s = 1 for a dilation-free cover and nontrivial character."""
    _require_free(spec, rho)
    if rho.is_trivial():
        raise ValueError("use the zeta expansion for the trivial character")
    order, coeff = metric_l_reciprocal(spec, rho, lengths).vanishing_order_at_one()
    if isinstance(coeff, int):
        coeff = CycInt.from_int(spec.group.exponent, coeff)
    return order, coeff


def closed_path_census(g: Graph, max_length: int) -> dict[int, int]:
    """Counts of closed, cyclically reduced paths by length, up to max_length
    (from 1 to 12).

    A path is a sequence of oriented edges, consecutive ones composing head
    to tail, closing up, and never immediately backtracking (including
    around the closure).  Counted with starting edge and direction, so this
    matches the trace of powers of the unit-length edge matrix.  Explicit
    enumeration, no matrix involved.
    """
    if max_length < 1:
        raise ValueError("census length must be at least 1")
    if max_length > 12:
        raise ValueError("census length is capped at 12")
    oriented = _oriented_edges(g)
    followers: dict[OrientedEdge, list[OrientedEdge]] = {
        a: [
            b
            for b in oriented
            if _tail(g, b) == _head(g, a) and not (b[0] == a[0] and b[1] == -a[1])
        ]
        for a in oriented
    }
    counts = {m: 0 for m in range(1, max_length + 1)}

    def extend(first: OrientedEdge, current: OrientedEdge, length: int):
        if length <= max_length:
            if (
                _head(g, current) == _tail(g, first)
                and not (first[0] == current[0] and first[1] == -current[1])
            ):
                counts[length] += 1
        if length == max_length:
            return
        for nxt in followers[current]:
            extend(first, nxt, length + 1)

    for a in oriented:
        extend(a, a, 1)
    return counts
