"""End-to-end verification of the tree-polynomial factorization of a cover.

For a connected cover with nontrivial abelian group G of order N, the
claimed identity is

    J_total(x) = (1/N) * prod_v |D(v)|^(N/|D(v)|) * J_base(x) * prod_rho P_rho(x)

where J_total is the total graph's tree polynomial pushed down to base edge
variables, J_base is the base tree polynomial, and P_rho ranges over the
weight polynomials of the character-twisted matroids at the N-1 nontrivial
characters.  The right-hand side is assembled from base data only, one
Galois orbit of characters at a time: rho^k (k prime to the exponent m of G)
has rho's kernel, hence rho's bases, and P_{rho^k} = sigma_k(P_rho), so each
orbit's product is rational with integer coefficients.  The left side is
computed from the built cover, by exhaustive tree enumeration when the tree
count is small enough, and by the Smith-form tree count otherwise (then
equality is decided at the integer level and reported as such).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import gcd

from .algebra import MultiPoly
from .covers import Cover, CoverSpec, build_cover, is_connected_cover, validate_spec
from .graphs import degree_sequence, genus
from .groups import Character, characters
from .jacobians import (
    JacobianGroup,
    jacobian_group,
    jacobian_polynomial,
    specialized_jacobian_polynomial,
)
from .matroids import WeightReport, weight_polynomial

DEFAULT_ENUMERATION_CAP = 200_000


@dataclass(frozen=True)
class CharacterReport(WeightReport):
    """A weight report read per character; rank and basis count are its matroid's."""

    character = property(lambda self: self.matroid.character)
    rank = property(lambda self: self.matroid.rank)
    basis_count = property(lambda self: len(self.matroid.bases))

    def galois(self, k: int) -> CharacterReport:
        """The report of rho^k: rho's bases and rank, every weight mapped by sigma_k."""
        weights = tuple(w.galois(k) for w in self.matroid.weights)
        matroid = replace(self.matroid, character=self.character.power(k), weights=weights)
        poly = self.polynomial.map_coefficients(lambda c: c.galois(k))
        return CharacterReport(matroid, poly, self.scalar.galois(k))


@dataclass(frozen=True)
class VerificationReport:
    spec: CoverSpec
    cover: Cover
    base_tree_count: int
    base_polynomial: MultiPoly
    characters: tuple[CharacterReport, ...]
    prefactor: Fraction
    rhs_polynomial: MultiPoly
    rhs_tree_count: int
    lhs_tree_count: int
    cover_jacobian: JacobianGroup
    lhs_polynomial: MultiPoly | None
    polynomial_checked: bool
    equal: bool

    def summary(self) -> dict:
        return {
            "schema": "galois-trees/1",
            "cover": {
                "vertices": len(self.cover.total.vertices),
                "edges": len(self.cover.total.edges),
                "genus": genus(self.cover.total),
                "degree_sequence": list(degree_sequence(self.cover.total)),
            },
            "base_tree_count": self.base_tree_count,
            "base_polynomial": self.base_polynomial.to_jsonable(),
            "characters": [
                {
                    "exponents": list(rep.character.exponents),
                    "rank": rep.rank,
                    "basis_count": rep.basis_count,
                    "weight_polynomial": rep.polynomial.to_jsonable(),
                    "scalar_weight": rep.scalar.to_jsonable(),
                }
                for rep in self.characters
            ],
            "prefactor": {
                "numerator": self.prefactor.numerator,
                "denominator": self.prefactor.denominator,
            },
            "rhs_polynomial": self.rhs_polynomial.to_jsonable(),
            "rhs_tree_count": self.rhs_tree_count,
            "lhs_tree_count": self.lhs_tree_count,
            "cover_invariant_factors": list(self.cover_jacobian.invariant_factors),
            "lhs_polynomial": (
                self.lhs_polynomial.to_jsonable() if self.lhs_polynomial is not None else None
            ),
            "polynomial_checked": self.polynomial_checked,
            "equal": self.equal,
        }


def assemble_rhs(spec: CoverSpec) -> tuple[MultiPoly, Fraction, tuple[CharacterReport, ...], MultiPoly, int]:
    """Base polynomial, prefactor, per-character reports, RHS polynomial, RHS count.

    Bases are enumerated once per Galois orbit of characters, and the other
    reports of the orbit are sigma_k conjugates.  Each orbit's product is
    converted to int coefficients, and the orbit products multiply over Z.
    """
    group = spec.group
    n, m = group.order, group.exponent
    base_poly = jacobian_polynomial(spec.base)
    prefactor_num = 1
    for v in spec.base.vertices:
        d = spec.dilation_at(v).order
        if n % d:
            raise AssertionError("subgroup order must divide the group order")
        prefactor_num *= d ** (n // d)
    prefactor = Fraction(prefactor_num, n)

    nontrivial = [rho for rho in characters(group) if not rho.is_trivial()]
    found: dict[Character, CharacterReport] = {}
    product = base_poly * prefactor_num
    for rho in nontrivial:
        if rho in found:
            continue
        first = CharacterReport(**vars(weight_polynomial(spec, rho)))
        # every k with rho^k = conj gives its report: rho takes ord(rho)-th roots as values
        orbit = {rho.power(k): k for k in range(1, m) if gcd(k, m) == 1}
        orbit_product = MultiPoly.const(1)
        for conj, k in orbit.items():
            found[conj] = first.galois(k)
            orbit_product = orbit_product * found[conj].polynomial
        coeffs = {mono: c.as_int() for mono, c in orbit_product.terms.items()}
        if None in coeffs.values():
            raise AssertionError(f"the product over the orbit of {rho.exponents} is not rational")
        product = product * MultiPoly(coeffs)

    if any(c % n for c in product.terms.values()):
        raise AssertionError("the right-hand side must be divisible by |G|")
    rhs = MultiPoly({mono: c // n for mono, c in product.terms.items()})
    reports = tuple(found[rho] for rho in nontrivial)
    return base_poly, prefactor, reports, rhs, rhs.value_at_ones()


def verify_main_theorem(
    spec: CoverSpec, max_tree_enumeration: int = DEFAULT_ENUMERATION_CAP
) -> VerificationReport:
    """Check the factorization for one cover specification.

    The cover polynomial is enumerated exactly when its tree count (known in
    advance from the Smith form) does not exceed ``max_tree_enumeration``;
    otherwise only the integer identity is decided and ``polynomial_checked``
    is False in the report.
    """
    spec = validate_spec(spec).spec
    if spec.group.is_trivial():
        raise ValueError("verification needs a nontrivial group")
    cover = build_cover(spec)
    if not is_connected_cover(cover):
        raise ValueError("verification needs a connected cover")

    base_poly, prefactor, reports, rhs, rhs_count = assemble_rhs(spec)
    cover_jac = jacobian_group(cover.total)
    lhs_count = cover_jac.order

    lhs_poly = None
    polynomial_checked = False
    equal = lhs_count == rhs_count
    if equal and lhs_count <= max_tree_enumeration:
        lhs_poly = specialized_jacobian_polynomial(cover)
        polynomial_checked = True
        equal = lhs_poly == rhs
        if lhs_poly.value_at_ones() != lhs_count:
            raise AssertionError("tree enumeration disagrees with the Smith form count")

    return VerificationReport(
        spec=spec,
        cover=cover,
        base_tree_count=base_poly.value_at_ones(),
        base_polynomial=base_poly,
        characters=reports,
        prefactor=prefactor,
        rhs_polynomial=rhs,
        rhs_tree_count=rhs_count,
        lhs_tree_count=lhs_count,
        cover_jacobian=cover_jac,
        lhs_polynomial=lhs_poly,
        polynomial_checked=polynomial_checked,
        equal=equal,
    )
