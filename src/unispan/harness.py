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
    DecompositionStack,
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


_U = 2.0**-53  # the unit roundoff of binary64


def _gamma(k: int) -> float:
    """Higham's ``gamma_k = k u / (1 - k u)`` at the unit roundoff ``u``."""
    return k * _U / (1.0 - k * _U)


def span_rank(basis, pool: DecompositionStack, rep: VerificationReport,
              rank_tol: float = RANK_TOL) -> int:
    """The Gram rank of ``pool.unitaries`` at ``rank_tol``, where ``pool``
    decomposes the complement basis ``basis`` and ``rep`` is its verifier
    report: ``N = len(basis)`` when the bound below proves it, otherwise
    :func:`gram_rank` of the pool, unchanged.  An empty pool has rank 0.

    The bound.  Norms are normalized HS norms.  ``B`` is the ``N x n**2``
    matrix of basis rows, ``U`` the ``T x n**2`` matrix of pooled unitaries,
    ``G = U U*`` their Gram matrix and ``C`` the ``N x T`` coefficients
    (one nonzero per column: each term has one target), so ``B = C U + R``
    with every row of ``R`` at most ``eps`` long.  With ``eta >= ||B B* -
    I||_2`` and Weyl's perturbation inequality for singular values (Golub &
    Van Loan, *Matrix Computations*, Cor. 8.6.2),
    ``sigma_N(C U) >= sigma_N(B) - ||R||_2 >= 1 - eta - sqrt(N) eps``, while
    ``sigma_N(C U) <= ||C||_2 sigma_N(U)`` and ``||C||_2**2 <= S c`` (the
    largest row sum ``S`` of ``|C|``, a coefficient sum, times the largest
    column sum ``c``, a largest ``|coeff|``).  Every ``||u_t||**2`` lies
    within the unitarity residual ``rho`` of 1, so ``1 - rho <= lambda_max
    <= tr G <= T (1 + rho)``.  Hence::

        lambda_N / lambda_max >= (1 - eta - sqrt(N) eps)**2 / (S c T (1 + rho))

    Every ``u_t`` lies within ``delta`` of the ``N``-dimensional complement
    (the range of ``1 - E_A``, with ``E_A`` as the package computes it), so
    by Weyl again ``lambda_{N+1} <= T delta**2`` and::

        lambda_{N+1} / lambda_max <= T delta**2 / (1 - rho)

    When the first ratio is above ``2 rank_tol`` and the second below
    ``rank_tol / 2``, the Gram matrix has exactly ``N`` eigenvalues above
    ``rank_tol lambda_max``.  ``eps``, ``delta``, ``rho``, ``T`` and ``S``
    are the report's, ``c`` is one reduction over the pool, and ``eta`` is
    the Frobenius norm of the dense ``N x N`` Gram matrix of the basis,
    minus the identity.

    Rounding.  Write ``g = gamma_K`` (:func:`_gamma`) for ``K = T + n**2 +
    N**2 + 8``, at least the length of every sum and dot product behind
    the inputs, and ``b = 1/(1 - g)``.  A computed complex dot product of
    length ``k`` errs by at most ``gamma_{k+2}`` times the dot product of
    the moduli, and a computed norm or sum of moduli by at most
    ``gamma_k`` relative (Higham, *Accuracy and Stability of Numerical
    Algorithms*, 2nd ed., sections 3.1 and 3.6).  So each computed input
    ``q^`` bounds the exact ``q`` as follows:

    * ``S <= b S^`` and ``c <= b c^``;
    * ``rho <= (b rho^ + g sqrt(n)) / (1 - g sqrt(n))``: the entries of
      ``u* u`` err by ``g |u|* |u|``, whose norm is at most ``sqrt(n)
      ||u||**2 <= sqrt(n) (1 + rho)``;
    * ``eps <= b eps^ + g S sqrt(1 + rho)``: each reconstruction errs by
      ``g sum_t |c_t| |u_t|``;
    * ``delta <= b delta^ + 3 g n sqrt(1 + rho)``: ``E_A`` conjugates by
      ``W``, averages and conjugates back, and each step errs by ``g`` times
      a product of moduli of norm at most ``n ||u||``;
    * ``eta <= b eta^ + 2 g tr(G_B^)``: each entry of the basis Gram matrix
      ``G_B^`` errs by ``g`` times that of ``|B| |B|* / n``, whose Frobenius
      norm is at most ``tr(G_B) <= 2 tr(G_B^)``.

    The last few flops of the two ratios round by far less than the factor
    2 on either side of ``rank_tol`` allows, so in exact arithmetic the
    pool's Gram matrix has rank ``N`` at ``rank_tol``.  :func:`gram_rank`
    counts the eigenvalues of a rounded Gram matrix, which move by about
    ``(T + n**2) u lambda_max`` (dot products of length ``T``, then a
    backward-stable eigensolver of order ``n**2``); the factor 2 keeps both
    counts equal while that is below ``rank_tol lambda_max / 8``.  So the
    bound decides only for ``rank_tol >= 8 (T + n**2) u`` and ``rho < 1``;
    at smaller tolerances :func:`gram_rank` counts rounding noise, and it
    runs.
    """
    count = rep.term_count
    if not count:
        return 0
    size, n = len(basis), basis.shape[-1]
    g = _gamma(count + n * n + size * size + 8)
    b = 1.0 / (1.0 - g)
    rho = (b * rep.max_unitarity_residual + g * np.sqrt(n)) / (1.0 - g * np.sqrt(n))
    if rank_tol >= 8 * (count + n * n) * _U and rho < 1.0:
        flat = basis.reshape(size, n * n)
        gram = (flat @ flat.conj().T) / n
        eta = b * np.linalg.norm(gram - np.eye(size)) + 2 * g * float(np.trace(gram).real)
        unit = np.sqrt(1.0 + rho)
        s = b * rep.coeff_sum
        c = b * float(np.max(np.abs(pool.coeffs)))
        eps = b * rep.recon_residual + g * s * unit
        delta = b * rep.max_membership_residual + 3 * g * n * unit
        margin = 1.0 - eta - np.sqrt(size) * eps
        if (margin > 0.0 and margin**2 / (s * c * count * (1.0 + rho)) > 2 * rank_tol
                and count * delta**2 / (1.0 - rho) < rank_tol / 2):
            return size
    return gram_rank(pool.unitaries, rank_tol=rank_tol)


def run_spancert(spec: TypeISubalgebraSpec, rank_tol: float = RANK_TOL,
                 tol: float = RECON_TOL) -> SpanCertificate:
    """Certify that the unitaries decomposing a complement basis span it.

    The whole basis goes through one :func:`type_one_stack` call, and the
    certificate passes when the verifier's report over the pool passes
    :func:`report_within` at ``tol`` and the pool's Gram rank at the
    relative threshold ``rank_tol`` (:func:`span_rank`) is exactly
    ``n**2 - dim A``."""
    n = spec.dimension
    algebra.validate_spec(spec)
    basis = complement_basis(spec)
    expected = n * n - algebra_dimension(spec)
    ds = type_one_stack(spec, basis)
    rep = verify_decomposition(spec, basis, ds)
    rank = span_rank(basis, ds, rep, rank_tol)
    passed = report_within(rep, tol) and rank == expected
    return SpanCertificate(spec, len(basis), rep.term_count, rank, expected, passed, rep)


def run_random_instance(spec: TypeISubalgebraSpec, seed: int) -> dict:
    """Deterministic Gaussian complement instance, ready to serialize."""
    algebra.validate_spec(spec)
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
