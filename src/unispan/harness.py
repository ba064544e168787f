"""Programmatic entry points behind the CLI: decompose-and-verify on an
instance, span certificates, and deterministic random instances.
"""

from dataclasses import dataclass

import numpy as np

from . import algebra
from .algebra import TypeISubalgebraSpec, algebra_dimension, complement_basis
from .decompose import (
    RECON_TOL,
    Decomposition,
    VerificationReport,
    type_one_decomp,
    type_one_stack,
    verify_decomposition,
)
from .linalg import RANK_TOL, as_matrix, gram_rank, hs_norm
from .serialize import decomposition_to_json, instance_to_json, report_to_json, spec_to_json


# reverify's tolerance for a recomputed report to match the stored one
MATCH_TOL = 1e-12


def report_within(rep: VerificationReport, tol: float = RECON_TOL) -> bool:
    """The acceptance gate: the reconstruction residual is within ``tol``
    and every unitarity and membership residual within ``tol / 10``."""
    return (
        rep.recon_residual <= tol
        and rep.max_unitarity_residual <= tol / 10
        and rep.max_membership_residual <= tol / 10
    )


def run_decompose(spec: TypeISubalgebraSpec, matrix, tol: float = RECON_TOL):
    """Project ``matrix`` onto the complement, decompose and verify it.

    Returns ``(doc, ok)`` where ``doc`` is the serializable result document
    (terms, verification report, projection residual) and ``ok`` is
    :func:`report_within` at ``tol``.  The document carries a warning when
    the projection removed more than ``RECON_TOL * max(1, ||matrix||_2)``.
    """
    e = algebra.conditional_expectation(spec, matrix)
    x = as_matrix(matrix) - e
    projection_residual = hs_norm(e)
    d = type_one_decomp(spec, x)
    rep = verify_decomposition(spec, x, d)
    ok = report_within(rep, tol)
    doc = decomposition_to_json(d, rep)
    doc["projection_residual"] = float(projection_residual)
    if projection_residual > RECON_TOL * max(1.0, hs_norm(matrix)):
        doc["warning"] = (
            "input was not in the complement; its projection was decomposed"
        )
    return doc, ok


@dataclass(frozen=True)
class SpanCertificate:
    """Numerical witness that the produced unitaries span the complement."""

    spec: TypeISubalgebraSpec
    basis_size: int
    pooled_unitary_count: int
    gram_rank: int
    expected_rank: int
    passed: bool
    residual_summary: VerificationReport

    def to_json(self) -> dict:
        return {
            "n": int(self.spec.dimension),
            "spec": spec_to_json(self.spec),
            "basis_size": self.basis_size,
            "pooled_unitary_count": self.pooled_unitary_count,
            "gram_rank": self.gram_rank,
            "expected_rank": self.expected_rank,
            "pass": self.passed,
            "residual_summary": report_to_json(self.residual_summary),
        }


def run_spancert(spec: TypeISubalgebraSpec, rank_tol: float = RANK_TOL,
                 tol: float = RECON_TOL) -> SpanCertificate:
    """Decompose a whole complement basis in one :func:`type_one_stack` call
    and certify the span of the pooled unitaries: the verifier's report over all the decompositions
    passes :func:`report_within` at ``tol`` and the Gram rank, counted at
    the relative threshold ``rank_tol``, equals ``n**2 - dim A`` exactly."""
    n = spec.dimension
    algebra.supported_class(spec, n)
    basis = complement_basis(spec)
    expected = n * n - algebra_dimension(spec)
    ds = type_one_stack(spec, basis)
    rep = verify_decomposition(spec, basis, ds)
    pooled = rep.term_count
    rank = gram_rank(np.concatenate([d.unitaries for d in ds]), rank_tol=rank_tol) if pooled else 0
    passed = report_within(rep, tol) and rank == expected
    return SpanCertificate(spec, len(basis), pooled, rank, expected, passed, rep)


def run_random_instance(spec: TypeISubalgebraSpec, seed: int) -> dict:
    """Deterministic Gaussian complement instance, ready to serialize."""
    algebra.supported_class(spec, spec.dimension)
    x = algebra.random_complement_element(spec, seed)
    return instance_to_json(spec, x, seed=seed)


def reverify(spec, target, d: Decomposition, stored: VerificationReport,
             tol: float = RECON_TOL):
    """Re-verify a stored decomposition and compare against its stored report.

    Returns ``(report, matches_stored, ok)``; ``ok`` is :func:`report_within`
    at ``tol``.
    """
    rep = verify_decomposition(spec, target, d)
    matches = (
        abs(rep.recon_residual - stored.recon_residual) <= MATCH_TOL
        and abs(rep.max_unitarity_residual - stored.max_unitarity_residual) <= MATCH_TOL
        and abs(rep.max_membership_residual - stored.max_membership_residual) <= MATCH_TOL
        and rep.term_count == stored.term_count
        and abs(rep.coeff_sum - stored.coeff_sum) <= MATCH_TOL * max(1.0, stored.coeff_sum)
    )
    return rep, matches, report_within(rep, tol)


def random_hermitian(n: int, seed: int) -> np.ndarray:
    """Deterministic Gaussian Hermitian matrix (Philox-keyed)."""
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 0x48], dtype=np.uint64)))
    g = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
    return (g + g.conj().T) / 2
