"""Dense complex matrix kernels: Hilbert-Schmidt geometry, the complex
Hermitian eigendecomposition (LAPACK ``zheevd`` through
``numpy.linalg.eigh``), defect square roots, operator norms and Gram-rank
estimation.

All norms written ``||.||_2`` are Hilbert-Schmidt norms taken with the
*normalized* trace ``tau(x) = tr(x)/n``, so the identity has norm 1 at every
dimension.  Every function is pure: inputs are never mutated.
"""

import math
from typing import NamedTuple, Sequence

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


def trace(x) -> complex:
    """Plain matrix trace."""
    return complex(np.trace(as_matrix(x)))


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


def hs_norm(x) -> float:
    """Hilbert-Schmidt norm induced by :func:`hs_inner`.

    Entries are scaled by the power of two that brings the largest modulus
    into ``[1/2, 1)`` before squaring, so no square overflows and the
    largest ones do not underflow at any finite scale.  The scaling is
    exact, so wherever the unscaled sum neither overflows nor underflows
    the result is bit-identical to it.
    A zero, NaN or infinite largest modulus is returned unchanged.
    """
    a = np.abs(as_matrix(x))
    top = float(a.max())
    if top == 0.0 or not math.isfinite(top):
        return top
    # subnormal maxima scale like the smallest normal one: 2**1021 is exact
    e = max(math.frexp(top)[1], -1021)
    a *= math.ldexp(1.0, -e)
    return math.ldexp(float(np.sqrt(np.sum(a * a) / a.shape[0])), e)


def adjoint(x) -> np.ndarray:
    return as_matrix(x).conj().T


def is_selfadjoint(x, tol: float = 1e-10) -> bool:
    x = as_matrix(x)
    return hs_norm(x - x.conj().T) <= tol


def unitarity_residual(x) -> float:
    """``||x* x - 1||_2``; zero exactly when ``x`` is unitary."""
    x = as_matrix(x)
    n = x.shape[0]
    return hs_norm(x.conj().T @ x - np.eye(n))


def is_unitary(x, tol: float = 1e-10) -> bool:
    return unitarity_residual(x) <= tol


class HermEig(NamedTuple):
    """Eigendecomposition of a Hermitian matrix.

    ``eigenvalues`` are real and ascending; ``eigenvectors`` holds the
    matching orthonormal eigenvectors as columns.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def hermitian_eig(h, input_tol: float = 1e-10) -> HermEig:
    """Eigendecomposition of a Hermitian matrix by ``numpy.linalg.eigh``.

    Decomposes the Hermitian part ``(h + h*)/2``.  Raises
    :class:`NotSelfAdjoint` when ``||h - h*||_2`` exceeds
    ``input_tol * max(1, ||h||_2)``.
    """
    h = as_matrix(h)
    scale = max(1.0, hs_norm(h))
    if hs_norm(h - h.conj().T) > input_tol * scale:
        raise NotSelfAdjoint("input is not self-adjoint within tolerance")
    w, v = np.linalg.eigh((h + h.conj().T) / 2.0)
    return HermEig(w, v)


def operator_norm(x) -> float:
    """Largest singular value of ``x``, computed from ``x`` itself (no ``x* x``)."""
    return float(np.linalg.norm(as_matrix(x), 2))


def sqrt_defect(x, input_tol: float = 1e-10, clamp_tol: float = CLAMP_TOL) -> np.ndarray:
    """Positive square root of ``1 - x**2`` for a self-adjoint contraction.

    The result is self-adjoint, positive semidefinite and commutes with
    ``x``.  Eigenvalues of ``1 - x**2`` that dip slightly below zero (inputs
    on the boundary of the unit ball) are clamped to zero; inputs with
    operator norm beyond ``1 + clamp_tol`` raise :class:`NormExceedsOne`.
    """
    w, v = hermitian_eig(x, input_tol=input_tol)
    top = max(abs(float(w[0])), abs(float(w[-1])))
    if top > 1.0 + clamp_tol:
        raise NormExceedsOne(f"operator norm {top} exceeds 1")
    d = 1.0 - w**2
    d[d < 0.0] = 0.0
    r = (v * np.sqrt(d)) @ v.conj().T
    return (r + r.conj().T) / 2.0


def gram_rank(mats: Sequence, rank_tol: float = RANK_TOL) -> int:
    """Rank of the Hermitian Gram matrix ``G[s, t] = hs_inner(mats[s], mats[t])``.

    Counts eigenvalues above ``rank_tol`` times the largest one.  For lists
    longer than ``n**2`` the spectrum is read off the coordinate companion
    Gram matrix ``V* V / n`` (same nonzero eigenvalues as ``V V* / n``),
    which keeps the eigenproblem at dimension ``n**2``.
    """
    if len(mats) == 0:
        raise DimensionMismatch("empty matrix list")
    arrs = [as_matrix(m) for m in mats]
    n = arrs[0].shape[0]
    for a in arrs:
        if a.shape[0] != n:
            raise DimensionMismatch("matrices in the list differ in dimension")
    V = np.stack([a.ravel() for a in arrs])
    if len(arrs) <= n * n:
        G = (V @ V.conj().T) / n
    else:
        G = (V.conj().T @ V) / n
    w = hermitian_eig(G, input_tol=1e-8).eigenvalues
    top = float(w[-1])
    if top <= 0.0:
        return 0
    return int(np.sum(w > rank_tol * top))
