"""Dense complex matrix kernels: Hilbert-Schmidt geometry, the complex
Hermitian eigendecomposition (LAPACK ``zheevd`` through
``numpy.linalg.eigh``), defect square roots, operator norms and Gram-rank
estimation.

All norms written ``||.||_2`` are Hilbert-Schmidt norms taken with the
*normalized* trace ``tau(x) = tr(x)/n``, so the identity has norm 1 at every
dimension.  Every function is pure: inputs are never mutated.
"""

from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, NormExceedsOne, NotSelfAdjoint

EIG_TOL = 1e-12
CLAMP_TOL = 1e-10
RANK_TOL = 1e-9


def as_matrix(x) -> np.ndarray:
    """Validate and convert ``x`` to a square complex128 array."""
    arr = np.asarray(x, dtype=np.complex128)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
        raise DimensionMismatch(f"expected a square matrix, got shape {arr.shape}")
    return arr


def as_stack(x) -> np.ndarray:
    """Validate and convert ``x`` to a complex128 stack ``(..., n, n)``."""
    arr = np.asarray(x, dtype=np.complex128)
    if arr.ndim < 2 or arr.shape[-1] != arr.shape[-2] or arr.shape[-1] < 1:
        raise DimensionMismatch(f"expected square matrices, got shape {arr.shape}")
    return arr


def normalized_trace(x) -> complex:
    """Trace divided by the dimension; equals 1 on the identity."""
    x = as_matrix(x)
    return complex(np.trace(x)) / x.shape[0]


def hs_inner(x, y) -> complex:
    """Inner product ``tau(y* x)`` with the normalized trace."""
    x = as_matrix(x)
    y = as_matrix(y)
    if x.shape != y.shape:
        raise DimensionMismatch(f"shapes {x.shape} and {y.shape} differ")
    return complex(np.vdot(y, x)) / x.shape[0]


_HUGE = np.finfo(np.float64).max


def hs_norm(x):
    """Hilbert-Schmidt norm induced by :func:`hs_inner`.

    Takes one matrix, or a stack ``(..., n, n)`` and returns the norm of
    each of its matrices; a single matrix gives a ``float``.  Each matrix's
    entries are scaled by the power of two that brings its largest modulus
    into ``[1/2, 1)`` before squaring, so no square overflows and the
    largest ones do not underflow at any finite scale.  The scaling is
    exact, so wherever the unscaled sum neither overflows nor underflows
    the result is bit-identical to it, and each norm of a stack is
    bit-identical to the norm of that matrix alone.
    A zero, NaN or infinite largest modulus is returned unchanged.
    """
    a = np.abs(as_stack(x))
    n = a.shape[-1]
    a = a.reshape(a.shape[:-2] + (n * n,))
    # NaN and infinite tops scale like the largest finite one, so no square
    # overflows and their norms come out as the tops themselves; a zero top
    # has exponent 0 and leaves its zeros as they are
    e = np.frexp(np.fmin(np.maximum.reduce(a, axis=-1), _HUGE))[1]
    a = np.ldexp(a, -e[..., None])
    a *= a
    norms = np.ldexp(np.sqrt(np.add.reduce(a, axis=-1) / n), e)
    return float(norms) if norms.ndim == 0 else norms


def unitarity_residual(x):
    """``||x* x - 1||_2``; zero exactly when ``x`` is unitary.

    Takes one matrix, or a stack ``(..., n, n)`` and returns the residual of
    each of its matrices; a single matrix gives a ``float``.
    """
    x = as_stack(x)
    return hs_norm(np.swapaxes(x.conj(), -1, -2) @ x - np.eye(x.shape[-1]))


class HermEig(NamedTuple):
    """Eigendecomposition of a Hermitian matrix.

    ``eigenvalues`` are real and ascending; ``eigenvectors`` holds the
    matching orthonormal eigenvectors as columns.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def hermitian_eig(h) -> HermEig:
    """Eigendecomposition of a Hermitian matrix by ``numpy.linalg.eigh``.

    Takes one matrix, or a stack ``(..., n, n)`` and decomposes each of its
    matrices; each result is bit-identical to that matrix's own call.
    Decomposes the Hermitian part ``(h + h*)/2``.  Raises
    :class:`NotSelfAdjoint` when some ``||h - h*||_2`` exceeds
    ``1e-10 * max(1, ||h||_2)``.
    """
    h = as_stack(h)
    hc = np.swapaxes(h.conj(), -1, -2)
    norm, skew = hs_norm(np.stack((h, h - hc)))
    if np.any(skew > 1e-10 * np.maximum(1.0, norm)):
        raise NotSelfAdjoint("input is not self-adjoint within tolerance")
    w, v = np.linalg.eigh((h + hc) / 2.0)
    return HermEig(w, v)


def operator_norm(x):
    """Largest singular value of ``x``, computed from ``x`` itself (no ``x* x``).

    Takes one matrix, or a stack ``(..., n, n)`` and returns the norm of
    each of its matrices; a single matrix gives a ``float``.
    """
    norms = np.linalg.norm(as_stack(x), 2, axis=(-2, -1))
    return float(norms) if norms.ndim == 0 else norms


def sqrt_defect(x) -> np.ndarray:
    """Positive square root of ``1 - x**2`` for a self-adjoint contraction.

    Takes one matrix, or a stack ``(..., n, n)`` and returns the root of
    each of its matrices.  The result is self-adjoint, positive
    semidefinite and commutes with ``x``.  Eigenvalues of ``1 - x**2`` that
    dip slightly below zero (inputs on the boundary of the unit ball) are
    clamped to zero; inputs with operator norm beyond ``1 + CLAMP_TOL``
    raise :class:`NormExceedsOne`.
    """
    w, v = hermitian_eig(x)
    top = np.maximum(np.abs(w[..., 0]), np.abs(w[..., -1]))
    over = top > 1.0 + CLAMP_TOL
    if np.any(over):
        raise NormExceedsOne(f"operator norm {float(top[over].flat[0])} exceeds 1")
    d = 1.0 - w**2
    d[d < 0.0] = 0.0
    vc = np.swapaxes(v.conj(), -1, -2)
    r = (v * np.sqrt(d)[..., None, :]) @ vc
    return (r + np.swapaxes(r.conj(), -1, -2)) / 2.0


def gram_rank(mats, rank_tol: float = RANK_TOL) -> int:
    """Rank of the Hermitian Gram matrix ``G[s, t] = hs_inner(mats[s], mats[t])``.

    ``mats`` is a sequence of ``n x n`` matrices or one ``(N, n, n)`` stack.
    Counts eigenvalues above ``rank_tol`` times the largest one.  The
    spectrum is read off the coordinate Gram matrix ``V* V / n`` of
    dimension ``n**2``, which has the same nonzero eigenvalues as
    ``G = V V* / n`` at any list length.
    """
    if len(mats) == 0:
        raise DimensionMismatch("empty matrix list")
    try:
        V = np.asarray(mats, dtype=np.complex128)
    except ValueError:
        raise DimensionMismatch("matrices in the list differ in dimension") from None
    if V.ndim != 3 or V.shape[1] != V.shape[2] or V.shape[1] < 1:
        raise DimensionMismatch(f"expected a stack of square matrices, got shape {V.shape}")
    count, n, _ = V.shape
    V = V.reshape(count, n * n)
    w = hermitian_eig((V.conj().T @ V) / n).eigenvalues
    top = float(w[-1])
    if top <= 0.0:
        return 0
    return int(np.sum(w > rank_tol * top))
