"""Numeric-core tests.

Oracle policy: ``hermitian_eig`` and ``operator_norm`` are thin wrappers
over numpy.linalg, so comparing them with eigvalsh / svd / matrix_rank
only checks the wrapping (symmetrization, ordering, the norm taken on
``x`` rather than ``x* x``).  The oracle-free checks carry the weight:
reconstruction ``v diag(w) v* = h`` and orthonormality ``v* v = 1`` over
1000 random Hermitian matrices, and the defect identity
``r**2 + h**2 = 1`` with ``h r = r h`` for ``r = sqrt_defect(h)``.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import e_unit, random_complex, random_hermitian, random_unitary
from unispan import linalg
from unispan.errors import DimensionMismatch, NormExceedsOne, NotSelfAdjoint, UnispanError

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
        assert linalg.normalized_trace(np.diag([1.0, -1.0])) == 0

    def test_hand_sum(self):
        x = np.array([[1, 2], [3, 4]], dtype=complex)
        assert linalg.normalized_trace(x) == 2.5

    @pytest.mark.parametrize("n", [3, 6])
    def test_stack_matches_per_matrix(self, rng, n):
        # n = 3 and 6: multiplying by 1/n instead of dividing would round
        # differently there
        stack = random_complex(rng, (2, 5, n, n)) * 10.0 ** rng.integers(-8, 9, (2, 5, 1, 1))
        got = linalg.normalized_trace(stack)
        assert got.shape == (2, 5) and got.dtype == np.complex128
        for m, t in zip(stack.reshape(-1, n, n), got.ravel().tolist()):
            alone = linalg.normalized_trace(m)
            assert type(alone) is complex
            assert alone == t == complex(np.trace(m)) / n
        tr = np.trace(stack, axis1=-2, axis2=-1)
        # np.hypot of the parts rounds like the scalar abs(); np.abs of a
        # complex array need not
        mods = np.hypot(got.real, got.imag)
        assert mods.tobytes() == np.hypot(tr.real / n, tr.imag / n).tobytes()
        assert mods.ravel().tolist() == [abs(t) for t in got.ravel().tolist()]


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


def reference_hs_norm(x) -> float:
    """The single-matrix ``hs_norm`` as it was before it took stacks."""
    a = np.abs(np.asarray(x, dtype=complex))
    top = float(a.max())
    if top == 0.0 or not math.isfinite(top):
        return top
    e = max(math.frexp(top)[1], -1021)
    a *= math.ldexp(1.0, -e)
    return math.ldexp(float(np.sqrt(np.sum(a * a) / a.shape[0])), e)


def same_float(a, b) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b))


class TestHSNorm:
    @pytest.mark.parametrize("scale", [1e-300, 1e-200, 1e200, 1e300])
    def test_identity_at_extreme_scales(self, scale):
        assert abs(linalg.hs_norm(scale * np.eye(2)) - scale) <= 1e-15 * scale

    @pytest.mark.parametrize("n", [3, 12])
    def test_stack_matches_per_matrix(self, rng, n):
        mats = [random_complex(rng, (n, n)) * 10.0**e for e in (-300, -150, 0, 150, 300)]
        mats += [np.zeros((n, n)), np.full((n, n), 5e-324), random_complex(rng, (n, n)) * 1e-310]
        for bad in (np.nan, np.inf, -np.inf):
            m = random_complex(rng, (n, n)) * 1e200
            m[1, 2] = bad  # among entries whose squares would overflow
            mats.append(m)
        stack = np.array(mats)
        norms = linalg.hs_norm(stack)
        assert norms.shape == (len(mats),)
        for m, got in zip(mats, norms.tolist()):
            alone = linalg.hs_norm(m)
            assert type(alone) is float
            assert same_float(got, alone) and same_float(alone, reference_hs_norm(m))
        grid = linalg.hs_norm(stack[:10].reshape(2, 5, n, n))
        assert np.array_equal(grid.ravel(), norms[:10], equal_nan=True)
        assert linalg.hs_norm(np.zeros((0, n, n))).shape == (0,)

    def test_non_square_rejected(self):
        with pytest.raises(DimensionMismatch):
            linalg.hs_norm(np.zeros((2, 2, 3)))


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

    @pytest.mark.parametrize("bad", [np.inf, np.nan], ids=["inf", "nan"])
    @pytest.mark.parametrize("shape", [(1, 1), (2, 2), (3, 2, 2)], ids=["1x1", "2x2", "stack"])
    def test_non_finite_entry_raises(self, capfd, shape, bad):
        # an infinity makes the norm NaN and a NaN stops LAPACK from
        # converging; both are refused, and nothing is printed
        x = np.eye(shape[-1], dtype=complex) * np.ones(shape)
        x[(-1,) * len(shape)] = bad
        with pytest.raises(UnispanError):
            linalg.operator_norm(x)
        assert capfd.readouterr().err == ""

    @pytest.mark.parametrize("shape", [(1, 1), (4, 4), (6, 2, 2), (3, 5, 1, 1), (0, 3, 3),
                                       (2, 0, 4, 4), (7, 5, 5)])
    def test_bits_equal_numpy_norm(self, rng, shape):
        stacks = [random_complex(rng, shape), np.zeros(shape, dtype=complex)]
        for e in (500, -500):
            x = random_complex(rng, shape)
            stacks.append(x * 2.0**e)
            # negative zeros among the scaled entries
            stacks.append(np.where(rng.random(shape) < 0.5, x * 2.0**e, -0.0))
        for x in stacks:
            expected = np.asarray(np.linalg.norm(x, 2, axis=(-2, -1)))
            got = np.asarray(linalg.operator_norm(x))
            assert got.shape == expected.shape
            assert got.tobytes() == expected.tobytes()


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


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def contraction_stack(rng, n):
    """Self-adjoint contractions of size ``n`` in one stack: random ones, a
    zero matrix, one of operator norm ``1 + 1e-12`` (its defect is clamped)
    and one of subnormal norm."""
    mats = [random_hermitian(rng, n) for _ in range(4)]
    mats = [h / linalg.operator_norm(h) for h in mats]
    h = random_hermitian(rng, n)
    mats += [h * ((1.0 + 1e-12) / linalg.operator_norm(h)), np.zeros((n, n)),
             1e-310 * random_hermitian(rng, n)]
    return np.array(mats, dtype=np.complex128)


class TestStackedKernels:
    """``operator_norm``, ``hermitian_eig`` and ``sqrt_defect`` on a stack
    give, matrix by matrix, the bits of one call per matrix."""

    @pytest.mark.parametrize("n", range(1, 13))
    def test_stack_matches_per_matrix(self, rng, n):
        stack = contraction_stack(rng, n)
        general = np.concatenate([stack, [random_complex(rng, (n, n)),
                                          2.5 * random_unitary(rng, n),
                                          1e-310 * random_complex(rng, (n, n))]])
        norms = linalg.operator_norm(general)
        eig = linalg.hermitian_eig(stack)
        roots = linalg.sqrt_defect(stack)
        assert norms.shape == (len(general),) and roots.shape == stack.shape
        for got, m in zip(norms.tolist(), general):
            alone = linalg.operator_norm(m)
            assert type(alone) is float and same_bits(got, alone)
        for i, m in enumerate(stack):
            w, v = linalg.hermitian_eig(m)
            assert same_bits(eig.eigenvalues[i], w) and same_bits(eig.eigenvectors[i], v)
            assert same_bits(roots[i], linalg.sqrt_defect(m))
        grid = linalg.operator_norm(general[:6].reshape(2, 3, n, n))
        assert same_bits(grid.ravel(), norms[:6])
        assert same_bits(linalg.sqrt_defect(stack[:6].reshape(3, 2, n, n)).reshape(6, n, n),
                         roots[:6])

    def test_clamped_and_subnormal_members(self, rng):
        stack = contraction_stack(rng, 5)
        assert np.abs(linalg.hermitian_eig(stack[4]).eigenvalues).max() > 1.0
        assert linalg.operator_norm(stack[6]) < np.finfo(np.float64).tiny
        roots = linalg.sqrt_defect(stack)
        assert np.array_equal(roots[5], np.eye(5))
        assert linalg.hs_norm(roots[4] @ roots[4] + stack[4] @ stack[4] - np.eye(5)) <= 1e-10

    def test_empty_stack(self):
        assert linalg.operator_norm(np.zeros((0, 3, 3))).shape == (0,)
        assert linalg.sqrt_defect(np.zeros((0, 3, 3))).shape == (0, 3, 3)

    @pytest.mark.parametrize("kernel", [linalg.hermitian_eig, linalg.sqrt_defect])
    def test_one_non_selfadjoint_matrix(self, rng, kernel):
        stack = contraction_stack(rng, 3)
        stack[2, 0, 1] += 0.5
        with pytest.raises(NotSelfAdjoint) as alone:
            kernel(stack[2])
        with pytest.raises(NotSelfAdjoint) as stacked:
            kernel(stack)
        assert str(stacked.value) == str(alone.value)

    def test_one_matrix_beyond_the_unit_ball(self, rng):
        stack = contraction_stack(rng, 3)
        stack[1] *= 1.5
        with pytest.raises(NormExceedsOne) as alone:
            linalg.sqrt_defect(stack[1])
        with pytest.raises(NormExceedsOne) as stacked:
            linalg.sqrt_defect(stack)
        assert str(stacked.value) == str(alone.value)


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

    def test_stack_matches_per_matrix(self, rng):
        nan = random_complex(rng, (4, 4))
        nan[2, 1] = np.nan
        mats = [np.zeros((4, 4)), random_unitary(rng, 4), 1e150 * random_unitary(rng, 4),
                random_complex(rng, (4, 4)), nan]
        stack = np.array(mats)
        got = linalg.unitarity_residual(stack)
        assert got.shape == (len(mats),)
        for m, r in zip(mats, got.tolist()):
            alone = linalg.unitarity_residual(m)
            assert type(alone) is float and same_float(r, alone)
        grid = linalg.unitarity_residual(stack[:4].reshape(2, 2, 4, 4))
        assert np.array_equal(grid.ravel(), got[:4])
        assert linalg.unitarity_residual(np.zeros((0, 4, 4))).shape == (0,)

    @pytest.mark.parametrize("shape", [(3,), (2, 3), (2, 2, 3), (0, 0)])
    def test_non_square_rejected(self, shape):
        with pytest.raises(DimensionMismatch):
            linalg.unitarity_residual(np.zeros(shape))


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
        # more matrices than n**2: the list Gram matrix would be larger than
        # the n**2-dimensional coordinate Gram matrix the rank is read from
        mats = [random_complex(rng, (3, 3)) for _ in range(7)]
        pool = mats + [mats[0] + 2 * mats[1], 1j * mats[2]] + mats * 2
        assert len(pool) > 9
        stacked = np.stack([m.ravel() for m in pool])
        assert linalg.gram_rank(pool) == np.linalg.matrix_rank(stacked, tol=1e-9)

    def test_zero_matrices_have_rank_zero(self):
        assert linalg.gram_rank(np.zeros((3, 2, 2))) == 0

    def test_empty_rejected(self):
        with pytest.raises(DimensionMismatch):
            linalg.gram_rank([])

    def test_stack_matches_list(self, rng):
        mats = [random_complex(rng, (3, 3)) for _ in range(4)]
        pool = mats + [mats[0] - mats[1]] * 7
        assert linalg.gram_rank(np.array(pool)) == linalg.gram_rank(pool) == 4

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(DimensionMismatch):
            linalg.gram_rank([np.eye(2), np.eye(3)])


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

