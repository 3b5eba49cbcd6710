"""Exact arithmetic: cyclotomic integers, polynomials, integer matrices."""

from .cyclotomic import CycInt, cyclotomic_polynomial, euler_phi, weight_of_root
from .intmat import SmithForm, det_over_ring, int_det, smith_diagonal, smith_normal_form
from .multipoly import MultiPoly
from .unipoly import UniPoly

__all__ = [
    "CycInt",
    "MultiPoly",
    "SmithForm",
    "UniPoly",
    "cyclotomic_polynomial",
    "det_over_ring",
    "euler_phi",
    "int_det",
    "smith_diagonal",
    "smith_normal_form",
    "weight_of_root",
]
