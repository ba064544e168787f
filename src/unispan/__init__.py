"""Trace-preserving conditional expectations onto type I subalgebras of
``M_n(C)`` and explicit decompositions of orthogonal-complement elements
into linear combinations of unitaries lying in that complement.
"""

from .algebra import (
    BlockSpec,
    ClassKind,
    SpecClass,
    TypeISubalgebraSpec,
    algebra_dimension,
    complement_basis,
    complement_project,
    conditional_expectation,
    membership_residual,
    random_algebra_element,
    validate_spec,
)
from .decompose import (
    Decomposition,
    Provenance,
    UnitaryTerm,
    VerificationReport,
    amplify_entry,
    four_unitary,
    masa_quadrant_decomp,
    selfadjoint_corner_dilation,
    two_unitary_selfadjoint,
    type_one_decomp,
    verify_decomposition,
    witness_unitary,
    zero_piece_diagonal_decomp,
)
from .linalg import (
    HermEig,
    gram_rank,
    hermitian_eig,
    hs_inner,
    hs_norm,
    normalized_trace,
    operator_norm,
    sqrt_defect,
    trace,
    unitarity_residual,
)

__version__ = "0.1.0"

__all__ = [
    "BlockSpec",
    "ClassKind",
    "Decomposition",
    "HermEig",
    "Provenance",
    "SpecClass",
    "TypeISubalgebraSpec",
    "UnitaryTerm",
    "VerificationReport",
    "algebra_dimension",
    "amplify_entry",
    "complement_basis",
    "complement_project",
    "conditional_expectation",
    "four_unitary",
    "gram_rank",
    "hermitian_eig",
    "hs_inner",
    "hs_norm",
    "masa_quadrant_decomp",
    "membership_residual",
    "normalized_trace",
    "operator_norm",
    "random_algebra_element",
    "selfadjoint_corner_dilation",
    "sqrt_defect",
    "trace",
    "two_unitary_selfadjoint",
    "type_one_decomp",
    "unitarity_residual",
    "validate_spec",
    "verify_decomposition",
    "witness_unitary",
    "zero_piece_diagonal_decomp",
]
