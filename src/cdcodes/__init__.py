"""Consta-dihedral and dihedral codes over finite fields."""

from .algebra import AlgElem, Component, Mat2, SubfieldView, TwistedDihedralAlgebra, solve_norm_equation
from .codes import (
    BetaVector,
    KtField,
    LinearCode,
    assemble_code,
    build_C0,
    build_Ct,
    build_lcd_code,
    build_plain_code,
    build_self_dual_code,
    dual_code,
    enumerate_beta,
    hull_dimension,
    k_star_size,
    kt_fields,
)
from .cyclic import CyclicElem, IdempotentSet, conj_pairing, lambda_n, primitive_idempotents
from .dihedral import (
    count_Cab_codes,
    counterexample_check,
    dihedral_algebra,
    enumerate_simple_left_ideals,
    f_ab,
    mat2_simple_left_ideals,
)
from .field import (
    ExtField,
    Field,
    Poly,
    PrimeField,
    cyclotomic_cosets,
    factor_xn_minus_1,
    field_from_order,
    field_make,
    mult_order,
    sqrt_minus_one,
)

__version__ = "0.1.0"
