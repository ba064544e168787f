"""Trace-preserving conditional expectations onto type I subalgebras of
``M_n(C)`` and explicit decompositions of orthogonal-complement elements
into linear combinations of unitaries lying in that complement.
"""

from .algebra import (
    BlockSpec,
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
    DecompositionStack,
    Provenance,
    UnitaryTerm,
    VerificationReport,
    four_unitary,
    masa_quadrant_decomp,
    selfadjoint_corner_dilation,
    type_one_decomp,
    type_one_stack,
    verify_decomposition,
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
    unitarity_residual,
)

__version__ = "0.1.0"

__all__ = [
    "BlockSpec",
    "Decomposition",
    "DecompositionStack",
    "HermEig",
    "Provenance",
    "TypeISubalgebraSpec",
    "UnitaryTerm",
    "VerificationReport",
    "algebra_dimension",
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
    "type_one_decomp",
    "type_one_stack",
    "unitarity_residual",
    "validate_spec",
    "verify_decomposition",
]
