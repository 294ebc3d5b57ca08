"""Consta-dihedral and dihedral codes over finite fields."""

from .algebra import AlgElem, Component, SubfieldView, TwistedDihedralAlgebra, solve_norm_equation
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
    hull_dimension,
    k_star_size,
    kt_fields,
)
from .cyclic import CyclicElem, IdempotentSet, conj_pairing, lambda_n, primitive_idempotents
from .dihedral import count_Cab_codes, counterexample_check, f_ab
from .field import (
    ExtField,
    Field,
    Poly,
    PrimeField,
    cyclotomic_cosets,
    field_from_order,
    mult_order,
    sqrt_minus_one,
)

__version__ = "0.1.0"
