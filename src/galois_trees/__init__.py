"""Exact abelian Galois covers of multigraphs.

Constructs covers from dilation and voltage data, computes critical groups
and spanning-tree polynomials, enumerates character-twisted matroid bases
with exact cyclotomic weights, evaluates graph zeta and L-function
reciprocals by determinant formulas, and verifies the factorization of the
cover's tree polynomial into base and per-character factors as an exact
polynomial identity.
"""

from .algebra import (
    CycInt,
    MultiPoly,
    UniPoly,
    cyclotomic_polynomial,
    det_over_ring,
    euler_phi,
    int_det,
    smith_diagonal,
    smith_normal_form,
    weight_of_root,
)
from .covers import (
    Cover,
    CoverSpec,
    build_cover,
    contract_cover,
    dilation_after_loop_contraction,
    free_resolution,
    frobenius,
    is_connected_cover,
    switch_voltages,
    validate_cover,
    validate_spec,
)
from .graphs import (
    Graph,
    build_graph,
    connected_components,
    contract,
    degree_sequence,
    genus,
    is_connected,
    spanning_trees,
    spanning_trees_bruteforce,
    valency_adjacency,
)
from .groups import (
    AbelianGroup,
    Character,
    Subgroup,
    character_kills,
    characters,
    minimal_generators,
    subgroup_from_generators,
    subgroup_sum,
    trivial_subgroup,
)
from .jacobians import (
    JacobianGroup,
    PushforwardReport,
    jacobian_group,
    jacobian_polynomial,
    kirchhoff_count,
    labeled_jacobian_polynomial,
    laplacian,
    pushforward_jacobian,
    specialized_jacobian_polynomial,
    subdivide,
)
from .matroids import (
    TwistedMatroid,
    bases,
    basis_weight,
    is_independent,
    matroid_rank,
    max_independent_size,
    untwisted_bases,
    weight_polynomial,
)
from .specfile import parse_spec, serialize_spec, spec_to_dict
from .verify import VerificationReport, assemble_rhs, verify_main_theorem
from .zeta import (
    artin_l_reciprocal_three_term,
    closed_path_census,
    ihara_zeta_reciprocal,
    l_leading_at_one,
    metric_l_reciprocal,
    metric_zeta_reciprocal,
    twisted_laplacian_det,
    zeta_leading_at_one,
)

__version__ = "0.1.0"
