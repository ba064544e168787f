"""Numeric-core tests.

Oracle policy: ``hermitian_eig`` and ``operator_norm`` are thin wrappers
over numpy.linalg, so comparing them with eigvalsh / svd / matrix_rank
only checks the wrapping (symmetrization, ordering, the norm taken on
``x`` rather than ``x* x``).  The oracle-free checks carry the weight:
reconstruction ``v diag(w) v* = h`` and orthonormality ``v* v = 1`` over
1000 random Hermitian matrices, and the defect identity
``r**2 + h**2 = 1`` with ``h r = r h`` for ``r = sqrt_defect(h)``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import e_unit, random_complex, random_hermitian, random_unitary
from unispan import linalg
from unispan.errors import DimensionMismatch, NormExceedsOne, NotSelfAdjoint

PAULI = [
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]]),
    np.array([[1, 0], [0, -1]], dtype=complex),
]


class TestTrace:
    def test_identity(self):
        assert linalg.normalized_trace(np.eye(3)) == 1

    def test_symmetric_diagonal(self):
        assert linalg.trace(np.diag([1.0, -1.0])) == 0

    def test_hand_sum(self):
        x = np.array([[1, 2], [3, 4]], dtype=complex)
        assert linalg.trace(x) == 5
        assert linalg.normalized_trace(x) == 2.5


class TestHSInner:
    def test_identity(self):
        assert linalg.hs_inner(np.eye(2), np.eye(2)) == pytest.approx(1)

    def test_orthogonal_units(self):
        assert linalg.hs_inner(e_unit(2, 0, 1), e_unit(2, 1, 0)) == 0

    def test_unit_self_inner(self):
        # tau(e21 e12) = tau(e22) = 1/2
        assert linalg.hs_inner(e_unit(2, 0, 1), e_unit(2, 0, 1)) == pytest.approx(0.5)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            linalg.hs_inner(np.eye(2), np.eye(3))


class TestHSNorm:
    @pytest.mark.parametrize("scale", [1e-300, 1e-200, 1e200, 1e300])
    def test_identity_at_extreme_scales(self, scale):
        assert abs(linalg.hs_norm(scale * np.eye(2)) - scale) <= 1e-15 * scale


class TestOperatorNorm:
    def test_identity(self):
        assert linalg.operator_norm(np.eye(4)) == pytest.approx(1, abs=1e-12)

    def test_nilpotent(self):
        # x*x = diag(0, 4)
        assert linalg.operator_norm([[0, 2], [0, 0]]) == pytest.approx(2, abs=1e-12)

    def test_diagonal(self):
        assert linalg.operator_norm(np.diag([0.5, -0.5])) == pytest.approx(0.5, abs=1e-14)

    @pytest.mark.parametrize("scale", [1e-200, 1e-160, 1e-100, 1e100, 1e160, 1e200])
    def test_nilpotent_at_extreme_scales(self, scale):
        x = scale * np.array([[0, 2], [0, 0]], dtype=complex)
        assert abs(linalg.operator_norm(x) - 2 * scale) <= 1e-15 * 2 * scale

    def test_against_svd_oracle(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 17))
            x = random_complex(rng, (n, n))
            expected = np.linalg.svd(x, compute_uv=False)[0]
            assert linalg.operator_norm(x) == pytest.approx(expected, rel=1e-11)


class TestHermitianEig:
    def test_diagonal_sorted(self):
        w, v = linalg.hermitian_eig(np.diag([3.0, 1.0]))
        np.testing.assert_allclose(w, [1.0, 3.0])

    def test_symmetric_offdiagonal(self):
        w, _ = linalg.hermitian_eig([[0, 1], [1, 0]])
        np.testing.assert_allclose(w, [-1.0, 1.0], atol=1e-14)

    def test_imaginary_offdiagonal(self):
        w, _ = linalg.hermitian_eig([[0, -1j], [1j, 0]])
        np.testing.assert_allclose(w, [-1.0, 1.0], atol=1e-14)

    def test_reconstruction_1000_randoms(self, rng):
        worst = 0.0
        for _ in range(1000):
            n = int(rng.integers(1, 17))
            h = random_hermitian(rng, n)
            w, v = linalg.hermitian_eig(h)
            scale = max(linalg.hs_norm(h), 1e-300)
            worst = max(
                worst,
                linalg.hs_norm(v @ np.diag(w) @ v.conj().T - h) / scale,
                linalg.hs_norm(v.conj().T @ v - np.eye(n)),
            )
        assert worst <= linalg.EIG_TOL

    def test_eigenvalues_against_numpy_oracle(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 17))
            h = random_hermitian(rng, n)
            w, _ = linalg.hermitian_eig(h)
            np.testing.assert_allclose(
                w, np.linalg.eigvalsh(h), atol=1e-12 * max(1, np.abs(h).max())
            )

    def test_deterministic(self, rng):
        h = random_hermitian(rng, 9)
        a = linalg.hermitian_eig(h)
        b = linalg.hermitian_eig(h.copy())
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        assert np.array_equal(a.eigenvectors, b.eigenvectors)

    def test_input_not_mutated(self, rng):
        h = random_hermitian(rng, 5)
        keep = h.copy()
        linalg.hermitian_eig(h)
        assert np.array_equal(h, keep)

    def test_rejects_non_selfadjoint(self):
        with pytest.raises(NotSelfAdjoint):
            linalg.hermitian_eig([[0, 1], [0, 0]])

    def test_rejects_non_selfadjoint_at_huge_scale(self):
        # the gate's norms must not overflow to inf > tol * inf
        with pytest.raises(NotSelfAdjoint):
            linalg.hermitian_eig(1e160 * np.array([[0, 1], [0, 0]]))


class TestSqrtDefect:
    def test_zero(self):
        np.testing.assert_allclose(linalg.sqrt_defect(np.zeros((2, 2))), np.eye(2))

    def test_diagonal(self):
        r = linalg.sqrt_defect(np.diag([0.6, 0.0]))
        np.testing.assert_allclose(r, np.diag([0.8, 1.0]), atol=1e-14)

    def test_selfadjoint_unitary_gives_zero(self):
        r = linalg.sqrt_defect(np.diag([1.0, -1.0]))
        np.testing.assert_allclose(r, np.zeros((2, 2)), atol=1e-12)

    def test_defect_identity_and_commutation(self, rng):
        for _ in range(200):
            n = int(rng.integers(1, 13))
            h = random_hermitian(rng, n)
            h = h / max(linalg.operator_norm(h), 1e-300)
            r = linalg.sqrt_defect(h)
            assert linalg.hs_norm(r @ r + h @ h - np.eye(n)) <= 10 * linalg.EIG_TOL
            assert linalg.hs_norm(h @ r - r @ h) <= 10 * linalg.EIG_TOL
            assert linalg.hermitian_eig(r).eigenvalues.min() >= -1e-13

    def test_boundary_clamping(self):
        # operator norm exactly 1 after normalization
        h = np.diag([1.0, 0.3, -1.0])
        r = linalg.sqrt_defect(h)
        np.testing.assert_allclose(
            r @ r, np.eye(3) - h @ h, atol=1e-12
        )

    def test_rejects_expansion(self):
        with pytest.raises(NormExceedsOne):
            linalg.sqrt_defect(1.1 * np.eye(2))

    def test_rejects_non_selfadjoint(self):
        with pytest.raises(NotSelfAdjoint):
            linalg.sqrt_defect([[0, 1], [0, 0]])


class TestPredicates:
    def test_selfadjoint(self, rng):
        h = random_hermitian(rng, 4)
        assert linalg.is_selfadjoint(h)
        assert not linalg.is_selfadjoint(h + 1e-6 * 1j * np.eye(4))
        assert linalg.is_selfadjoint(h + 1e-6 * 1j * np.eye(4), tol=1e-3)

    def test_unitary(self, rng):
        u = random_unitary(rng, 4)
        assert linalg.is_unitary(u)
        assert not linalg.is_unitary(0.999 * u)


class TestUnitarityResidual:
    def test_identity(self):
        assert linalg.unitarity_residual(np.eye(3)) == 0

    def test_permutation(self):
        assert linalg.unitarity_residual([[0, 1], [1, 0]]) == 0

    def test_nilpotent_value(self):
        # x*x - 1 = diag(-1, 3), normalized HS norm sqrt((1+9)/2) = sqrt(5)
        assert linalg.unitarity_residual([[0, 2], [0, 0]]) == pytest.approx(np.sqrt(5))

    def test_unitaries_have_unit_norm(self, rng):
        for _ in range(20):
            u = random_unitary(rng, int(rng.integers(2, 13)))
            assert linalg.unitarity_residual(u) <= linalg.EIG_TOL
            assert abs(linalg.operator_norm(u) - 1) <= 10 * linalg.EIG_TOL


class TestGramRank:
    def test_scalar_multiples(self):
        assert linalg.gram_rank([np.eye(2), 1j * np.eye(2)]) == 1

    def test_pauli_basis(self):
        assert linalg.gram_rank(PAULI) == 4

    def test_dependent_triple(self):
        mats = [e_unit(2, 0, 1), e_unit(2, 1, 0), e_unit(2, 0, 1) + e_unit(2, 1, 0)]
        assert linalg.gram_rank(mats) == 2

    def test_unitary_conjugation_invariance(self, rng):
        mats = [random_complex(rng, (4, 4)) for _ in range(6)]
        u = random_unitary(rng, 4)
        conj = [u @ m @ u.conj().T for m in mats]
        assert linalg.gram_rank(mats) == linalg.gram_rank(conj)

    def test_large_pool_against_numpy_oracle(self, rng):
        # more matrices than n**2 exercises the companion-Gram path
        mats = [random_complex(rng, (3, 3)) for _ in range(7)]
        pool = mats + [mats[0] + 2 * mats[1], 1j * mats[2]] + mats * 2
        assert len(pool) > 9
        stacked = np.stack([m.ravel() for m in pool])
        assert linalg.gram_rank(pool) == np.linalg.matrix_rank(stacked, tol=1e-9)

    def test_empty_rejected(self):
        with pytest.raises(DimensionMismatch):
            linalg.gram_rank([])


@settings(max_examples=30, deadline=None)
@given(
    arrays(np.float64, (3, 3), elements=st.floats(-10, 10)),
    arrays(np.float64, (3, 3), elements=st.floats(-10, 10)),
)
def test_hs_norm_matches_trace_identity(re, im):
    x = re + 1j * im
    lhs = linalg.hs_norm(x) ** 2
    rhs = linalg.normalized_trace(x.conj().T @ x).real
    assert lhs == pytest.approx(rhs, rel=1e-13, abs=1e-13)

