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
orbit's product is rational with integer coefficients.  The product is
taken modulo primes that split completely in Q(zeta_m), never in Z[zeta_m]
(see ``assemble_rhs``).  The left side is computed from the built cover: its
tree polynomial by the frontier sweep of ``graphs.tree_sweep`` when the tree
count is small enough, and only the Smith-form tree count otherwise (then
equality is decided at the integer level and reported as such).  Whether
the cover is connected is decided once, from base data
(``CoverSpec.connected`` on the normalized spec), and the per-character
matroids read the same verdict; the built cover is not searched for it.
Each orbit's first ``matroids.TwistedMatroid`` is enumerated; the others
come from ``TwistedMatroid.galois``, one sigma_k pass over the weights each.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import MultiPoly
from .algebra.modular import (
    PackedKeys,
    galois_exponents,
    mul_mod,
    product_bound,
    root_of_unity,
    split_modulus,
    value_mod,
)
from .covers import Cover, CoverSpec, build_cover
from .graphs import _connected_genus, degree_sequence
from .groups import Character, characters
from .jacobians import (
    JacobianGroup,
    jacobian_group,
    jacobian_polynomial,
    specialized_jacobian_polynomial,
)
from .matroids import TwistedMatroid, weight_polynomial
from .specfile import SCHEMA

DEFAULT_ENUMERATION_CAP = 200_000


@dataclass(frozen=True)
class VerificationReport:
    spec: CoverSpec
    cover: Cover
    base_tree_count: int
    base_polynomial: MultiPoly
    characters: tuple[TwistedMatroid, ...]
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
            "schema": SCHEMA,
            "cover": {
                "vertices": len(self.cover.total.vertices),
                "edges": len(self.cover.total.edges),
                "genus": _connected_genus(self.cover.total),  # verify_main_theorem checked it
                "degree_sequence": list(degree_sequence(self.cover.total)),
            },
            "base_tree_count": self.base_tree_count,
            "base_polynomial": self.base_polynomial.to_jsonable(),
            "characters": [
                {
                    "exponents": list(rep.character.exponents),
                    "rank": rep.rank,
                    "basis_count": len(rep.bases),
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


def assemble_rhs(spec: CoverSpec) -> tuple[MultiPoly, Fraction, tuple[TwistedMatroid, ...], MultiPoly, int]:
    """Base polynomial, prefactor, per-character matroids, RHS polynomial, RHS count.

    Bases are enumerated once per Galois orbit of characters, and the other
    records of the orbit are made by ``TwistedMatroid.galois``.  No product
    is taken in Z[zeta_m] (m the exponent of G); the product is taken modulo
    split primes instead:

    - Ring map.  Primes p ≡ 1 (mod m) split completely in Q(zeta_m), so
      with M a product of such primes and omega a primitive m-th root of
      unity modulo each (combined by CRT), zeta -> omega is a ring map
      Z[zeta_m] -> Z/M (``modular.split_modulus``).
    - Bound.  The product N * RHS = prefactor_num * J_base * prod_rho P_rho
      has integer coefficients, each at most B = prefactor_num * l1(J_base)
      * prod_rho l1(P_rho) in size, where l1 sums |power-basis coefficient|
      over all terms: |sigma(c)| <= l1(c) in every embedding and
      l1(f g) <= l1(f) l1(g) (``modular.product_bound``).  M > 2B, so the
      symmetric lift of the product mod M is the product over Z.
    - Packed keys.  Monomials are ints with one bit field per base edge,
      wide enough for N (``modular.PackedKeys``): an edge variable has
      exponent at most 1 in J_base and in each of the N - 1 P_rho.  That
      is the layout of the left side's tree sweep too.  Each orbit's
      product is taken first, then its product with prefactor_num * J_base;
      the result is lifted, checked and divided by N over Z with its keys
      still packed, and unpacked once.

    Two checks raise AssertionError explicitly, so they hold under
    ``python -O``.  Rationality: an orbit product is rational because the
    orbit is Galois-stable and P_{rho^k} = sigma_k(P_rho), so modulo the
    first prime its image under zeta -> omega^j (the least j > 1 prime to
    m) must equal its image under zeta -> omega.  That one sigma_j generates
    Gal(Q(zeta_m)/Q) only when (Z/m)^* is cyclic; at m = 12 or 24 a product
    that is sigma_j-invariant but not rational passes it.  Extra prime:
    modulo one more split prime, unused by the CRT, the lifted product at the
    point x_v = 2^unit_v must equal prefactor_num * J_base * prod_rho P_rho
    there (``modular.value_mod`` evaluates each packed dict, one pow per
    term); this is the check that rejects such a product.
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
    found: dict[Character, TwistedMatroid] = {}
    orbits: list[tuple[Character, list[MultiPoly]]] = []
    for rho in nontrivial:
        if rho in found:
            continue
        first = weight_polynomial(spec, rho)
        # every k with rho^k = conj gives its report: rho takes ord(rho)-th roots as values
        orbit = {rho.power(k): k for k in galois_exponents(m)}
        for conj, k in orbit.items():
            found[conj] = first if conj == rho else first.galois(k)  # sigma_1 is the identity
        orbits.append((rho, [found[conj].polynomial for conj in orbit]))
    reports = tuple(found[rho] for rho in nontrivial)
    factors = [base_poly] + [rep.polynomial for rep in reports]

    modulus, omega, primes = split_modulus(m, product_bound(prefactor_num, factors))
    keys = PackedKeys(dict.fromkeys(spec.base.edges, n))

    def product_of(polys, root, mod):
        out = {0: 1}
        for poly in polys:
            out = mul_mod(out, keys.residues(poly, root, mod), mod)
        return out

    p, q = primes[0], primes[-1]
    j = next(iter(galois_exponents(m)[1:]), None)
    product = mul_mod({0: prefactor_num}, keys.residues(base_poly, omega, modulus), modulus)
    for rho, polys in orbits:
        orbit_product = product_of(polys, omega, modulus)
        if j is not None:  # a rational product is the same under zeta -> omega^j
            at_p = {k: r for k, c in orbit_product.items() if (r := c % p)}
            if product_of(polys, pow(omega, j, p), p) != at_p:
                raise AssertionError(
                    f"the product over the orbit of {rho.exponents} is not rational"
                )
        product = mul_mod(product, orbit_product, modulus)

    half = modulus // 2
    lifted = {k: c - modulus if c > half else c for k, c in product.items()}
    omega_q = root_of_unity(m, q)
    expected = prefactor_num  # every value at x_v = 2^unit_v
    for f in factors:
        expected = expected * value_mod(keys.residues(f, omega_q, q), 2, q) % q
    if value_mod(lifted, 2, q) != expected:
        raise AssertionError("the multimodular right-hand side disagrees modulo an extra prime")
    if any(c % n for c in lifted.values()):
        raise AssertionError("the right-hand side must be divisible by |G|")
    rhs = keys.unpack({k: c // n for k, c in lifted.items()})
    return base_poly, prefactor, reports, rhs, rhs.value_at_ones()


def verify_main_theorem(spec: CoverSpec) -> VerificationReport:
    """Check the factorization for one cover specification.

    The cover polynomial is enumerated exactly when its tree count (known in
    advance from the Smith form) does not exceed ``DEFAULT_ENUMERATION_CAP``;
    otherwise only the integer identity is decided and ``polynomial_checked``
    is False in the report.
    """
    if spec.group.is_trivial():
        raise ValueError("verification needs a nontrivial group")
    cover = build_cover(spec)
    spec = cover.spec  # normalized once, by build_cover
    if not spec.connected:  # read off the base; the matroids read the same verdict
        raise ValueError("verification needs a connected cover")

    base_poly, prefactor, reports, rhs, rhs_count = assemble_rhs(spec)
    cover_jac = jacobian_group(cover.total)
    lhs_count = cover_jac.order

    lhs_poly = None
    polynomial_checked = False
    equal = lhs_count == rhs_count
    if equal and lhs_count <= DEFAULT_ENUMERATION_CAP:
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
