"""Constructive decompositions of complement elements into unitaries.

Given ``x`` in the orthogonal complement of a supported type I subalgebra,
the routines here produce an explicit finite list of terms
``(lambda_t, u_t)`` with ``x = sum_t lambda_t u_t`` where every ``u_t`` is
unitary and itself lies in the complement.  The constructions are exact
block formulas: self-adjoint contractions are completed to unitaries with a
defect square root, off-diagonal blocks ride on generalized permutations
with a fixed-point-free block pattern, and padding always comes in
``(+v, -v)`` pairs, all built by :func:`_padded_pairs`, so it cancels in
the reconstruction without ever leaving the complement.

:func:`type_one_decomp` is the one entry point for every supported spec:
it decomposes inside each atom, completes those terms across the other
atoms, and carries the cross-atom part on block permutations.

:func:`verify_decomposition` is the independent check; it recomputes the
sum directly and shares nothing with the construction beyond the numeric
kernels.
"""

from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache
from typing import NamedTuple, Optional, Tuple

import numpy as np

from . import algebra
from .algebra import TypeISubalgebraSpec, atom_layouts
from .errors import (
    BadPosition,
    DiagonalNotZero,
    DimensionMismatch,
    NotDivisibleBy4,
    NotInComplement,
    NotTraceZero,
    PaddingNotUnitary,
    PieceDiagonalNotZero,
    SinglePiece,
    UnispanError,
    UnsupportedConfiguration,
)
from .linalg import (
    as_matrix,
    as_stack,
    hs_norm,
    normalized_trace,
    operator_norm,
    sqrt_defect,
    unitarity_residual,
)

RECON_TOL = 1e-9
TERM_TOL = RECON_TOL / 10
MERGE_TOL = 1e-12
FAST_PATH_TOL = 1e-12

_FAULT_INJECTION = False


def set_fault_injection(enabled: bool) -> None:
    """Break the cancellation sign of every padding pair.

    Mutation hook for testing the test suites: with the fault active
    :func:`_padded_pairs` gives both members of every padding pair the sign
    ``+1``, so no padding cancels and reconstructions must fail visibly.
    """
    global _FAULT_INJECTION
    _FAULT_INJECTION = bool(enabled)


class Provenance(Enum):
    FOUR_UNITARY = "four_unitary"
    ZERO_DIAG = "zero_diag"
    DILATION = "dilation"
    AMPLIFY = "amplify"
    ATOMIC = "atomic"
    MASTER = "master"


@dataclass(frozen=True, eq=False)
class UnitaryTerm:
    """One ``coeff * unitary`` summand, tagged with the stage that built it."""

    coeff: complex
    unitary: np.ndarray
    provenance: Provenance
    stage: str = ""


@dataclass(frozen=True, eq=False)
class Decomposition:
    """An ordered list of unitary terms summing to ``target``, held as stacks.

    ``coeffs`` has shape ``(T,)`` and ``unitaries`` shape ``(T, n, n)``, both
    read-only; ``provenance`` and ``stages`` are parallel tuples.  ``terms``
    is the same list as :class:`UnitaryTerm` views.  ``term_budget`` and
    ``coeff_budget`` carry the statically computed bounds of the
    construction that produced the terms (``None`` for hand-assembled
    instances).

    The arrays are copied, so later writes to the caller's arrays do not
    reach the instance.
    """

    spec: Optional[TypeISubalgebraSpec]
    target: np.ndarray
    coeffs: np.ndarray
    unitaries: np.ndarray
    provenance: Tuple[Provenance, ...]
    stages: Tuple[str, ...]
    term_budget: Optional[int] = None
    coeff_budget: Optional[float] = None

    def __post_init__(self):
        for name in ("target", "coeffs", "unitaries"):
            object.__setattr__(self, name, _freeze(getattr(self, name)))
        for name in ("provenance", "stages"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        count = len(self.coeffs)
        if (self.coeffs.ndim != 1 or self.unitaries.ndim != 3 or len(self.unitaries) != count
                or len(self.provenance) != count or len(self.stages) != count):
            raise DimensionMismatch("term stacks and tuples differ in length")

    @cached_property
    def terms(self) -> Tuple[UnitaryTerm, ...]:
        return tuple(map(UnitaryTerm, self.coeffs.tolist(), self.unitaries,
                         self.provenance, self.stages))

    def reconstruction(self) -> np.ndarray:
        return np.sum(self.coeffs[:, None, None] * self.unitaries, axis=0)

    @property
    def coeff_sum(self) -> float:
        return float(sum(map(abs, self.coeffs.tolist())))


@dataclass(frozen=True)
class VerificationReport:
    recon_residual: float
    max_unitarity_residual: float
    max_membership_residual: float
    term_count: int
    coeff_sum: float


# ---------------------------------------------------------------------------
# term-list plumbing


def _freeze(a) -> np.ndarray:
    """A read-only, C-contiguous complex128 copy of ``a``."""
    a = np.array(a, dtype=np.complex128, order="C")
    a.setflags(write=False)
    return a


class _Terms(NamedTuple):
    """Raw terms as parallel stacks: ``coeffs (T,)``, ``unitaries (T, n, n)``."""

    coeffs: np.ndarray
    unitaries: np.ndarray
    provenance: tuple
    stages: tuple


def _stack(n, items=()) -> _Terms:
    """Stack ``(coeff, unitary, provenance, stage)`` tuples of ``n x n`` terms."""
    return _Terms(
        np.array([c for c, _, _, _ in items], dtype=np.complex128),
        np.array([u for _, u, _, _ in items], dtype=np.complex128).reshape(len(items), n, n),
        tuple(p for _, _, p, _ in items),
        tuple(s for _, _, _, s in items),
    )


def _cat(n, parts) -> _Terms:
    """Concatenate term stacks of ``n x n`` unitaries in order."""
    parts = [p for p in parts if len(p.coeffs)]
    if not parts:
        return _stack(n)
    if len(parts) == 1:
        return parts[0]
    return _Terms(
        np.concatenate([p.coeffs for p in parts]),
        np.concatenate([p.unitaries for p in parts]),
        sum((p.provenance for p in parts), ()),
        sum((p.stages for p in parts), ()),
    )


@lru_cache(maxsize=32)
def _merge_key_weights(size: int) -> np.ndarray:
    """Fixed seeded weights in ``[1, 2)`` for the real and imaginary parts of
    ``size`` complex entries, interleaved like ``complex128.view(float64)``."""
    weights = np.random.default_rng(0x6D657267).uniform(1.0, 2.0, 2 * size)
    weights.setflags(write=False)
    return weights


def _merge_raw(coeffs, unitaries):
    """Merge terms whose unitaries agree up to a scalar phase.

    Each unitary's phase is pinned at its first entry of dominant modulus;
    a term joins the earliest cluster whose phase-canonical form is within
    ``MERGE_TOL`` of its own in every entry.  A cluster keeps its first
    term's unitary verbatim and later members fold their relative phase
    into the coefficient, so ``(c, -u)`` merges with ``(-c, u)``.  Zero
    unitaries and coefficients that cancel to noise are dropped.  Returns
    the cluster coefficients and the index of each cluster's first term.

    Only terms that can join a cluster are compared.  The key ``k`` of a
    phase-canonical row is a weighted sum of its real and imaginary parts
    with fixed weights in ``[1, 2)``; two rows within ``MERGE_TOL`` in every
    entry have keys less than ``4 n**2 MERGE_TOL`` apart.  The window
    ``8 n**2 MERGE_TOL + 1e-12 max|k|`` leaves room for rounding in the
    keys.  A term with no other key inside the window is its own cluster,
    and any other term is compared only with the clusters whose key is
    inside its window.  (Keys of the moduli ``|u_j|`` would not separate a
    ``(+v, -v)`` padding pair, whose members have equal moduli.)
    """
    count, n, _ = unitaries.shape
    flat = unitaries.reshape(count, n * n)
    mags = np.abs(flat)
    peaks = mags.max(axis=1, initial=0.0)
    live = np.flatnonzero(peaks)  # the terms that are not zero unitaries
    lead = flat[live, np.argmax(mags[live] >= 0.5 * peaks[live, None], axis=1)]
    # np.hypot rounds like the scalar abs(), so every phase and canonical
    # row is bit-identical to the one a term-by-term loop computes
    phases = lead / np.hypot(lead.real, lead.imag)
    canon = flat[live] * np.conj(phases)[:, None]
    keys = canon.view(np.float64) @ _merge_key_weights(n * n)
    window = 8 * n * n * MERGE_TOL + 1e-12 * np.abs(keys).max(initial=0.0)
    order = np.argsort(keys)
    close = keys[order[1:]] - keys[order[:-1]] <= window
    summed = coeffs[live]  # indexed by position in ``live`` from here on
    if close.any():
        paired = np.zeros(len(live), dtype=bool)
        paired[order[:-1][close]] = True
        paired[order[1:][close]] = True
        first = np.ones(len(live), dtype=bool)  # False once a term joins a cluster
        heads = np.empty(len(live), dtype=np.intp)  # the paired terms' cluster heads
        reps = []  # [summed coeff, position, phase] per cluster of paired terms
        for pos in np.flatnonzero(paired).tolist():
            coeff, phase = summed[pos], phases[pos]
            near = np.flatnonzero(np.abs(keys[heads[: len(reps)]] - keys[pos]) <= window)
            hits = near[np.max(np.abs(canon[pos] - canon[heads[near]]), axis=1) <= MERGE_TOL]
            if hits.size:
                rep = reps[hits[0]]
                rep[0] += coeff * phase / rep[2]
                first[pos] = False
            else:
                heads[len(reps)] = pos
                reps.append([coeff, pos, phase])
        for coeff, pos, _ in reps:
            summed[pos] = coeff
        live, summed = live[first], summed[first]
    mags = np.hypot(summed.real, summed.imag)
    big = mags > 1e-15 * mags.max(initial=0.0)
    return summed[big], live[big]


def _assemble(spec, target, raw, term_budget, coeff_budget):
    """The merged :class:`Decomposition` of the raw terms ``raw``."""
    coeffs, kept = _merge_raw(raw.coeffs, raw.unitaries)
    if len(kept) == len(raw.coeffs):  # nothing merged or dropped
        unitaries, provenance, stages = raw.unitaries, raw.provenance, raw.stages
    else:
        unitaries = raw.unitaries[kept]
        provenance = tuple(raw.provenance[i] for i in kept.tolist())
        stages = tuple(raw.stages[i] for i in kept.tolist())
    return Decomposition(spec, target, coeffs, unitaries, provenance, stages,
                         term_budget, coeff_budget)


def _padded_pairs(entry, n, target, pads, prov, stage):
    """Turn each entry term ``(c, w)`` of the stack ``entry`` into two
    ``n x n`` terms of coefficient ``c/2``: zero but for ``sign * block`` at
    every ``(index, block)`` of ``pads`` and ``w`` at ``target``, with signs
    ``+1`` and ``-1`` so the pads cancel.  An index addresses one block, the
    whole matrix (``()``), or a stack of blocks (index arrays with a leading
    axis, matched by a leading axis of ``block``).  Every ``(+v, -v)``
    padding pair is built here, all pairs of one call in one ``(2E, n, n)``
    stack with one assignment per pad and one for the targets."""
    signs = (1.0, 1.0) if _FAULT_INJECTION else (1.0, -1.0)
    count = len(entry.coeffs)
    u = np.zeros((count, 2, n, n), dtype=np.complex128)
    for index, block in pads:
        u[(Ellipsis,) + index] = [sign * block for sign in signs]
    u[(Ellipsis,) + target] = entry.unitaries[:, None]
    return _Terms(np.repeat(entry.coeffs / 2.0, 2), u.reshape(2 * count, n, n),
                  (prov,) * (2 * count), (stage,) * (2 * count))


def _conjugate_terms(raw, w):
    return raw._replace(unitaries=w @ raw.unitaries @ w.conj().T)


# ---------------------------------------------------------------------------
# elementary splits


def _two_unitary_raw(x, stage="selfadjoint-pair"):
    r = sqrt_defect(x)
    u = x + 1j * r
    return _stack(x.shape[0], [
        (0.5, u, Provenance.FOUR_UNITARY, stage),
        (0.5, u.conj().T, Provenance.FOUR_UNITARY, stage),
    ])


def two_unitary_selfadjoint(x) -> Decomposition:
    """Write a self-adjoint contraction as the mean of ``u`` and ``u*``.

    ``u = x + i*sqrt(1 - x**2)``; the two coefficients are both ``1/2``.
    """
    x = as_matrix(x)
    return Decomposition(None, x, *_two_unitary_raw(x), term_budget=2, coeff_budget=1.0)


def _selfadjoint_parts(z):
    """``(part, mult, tag)`` for the real and imaginary self-adjoint parts
    of ``z = h + i*k``: ``(h, 1, "real")`` and ``(k, 1j, "imag")``."""
    return (((z + z.conj().T) / 2.0, 1.0, "real"),
            ((z - z.conj().T) / 2.0j, 1.0j, "imag"))


def _divide_by_norm(x, s):
    """``x / s`` for a norm ``s > 0``.  NumPy divides a complex array by
    multiplying with ``1/s``, which overflows for a subnormal ``s``; both
    are then first scaled up by the exact factor ``2**600``."""
    if s < np.finfo(np.float64).tiny:
        x, s = x * 2.0**600, s * 2.0**600
    return x / s


def _four_unitary_raw(x, stage="selfadjoint-split"):
    n = x.shape[0]
    if not np.any(x):
        return _stack(n)
    s = operator_norm(x)
    if s == 0.0:
        return _stack(n)
    cand = _divide_by_norm(x, s)
    if unitarity_residual(cand) <= FAST_PATH_TOL:
        return _stack(n, [(s, cand, Provenance.FOUR_UNITARY, "unitary-multiple")])
    parts = []
    for part, mult, tag in _selfadjoint_parts(x):
        sp = operator_norm(part)
        if sp == 0.0:
            continue
        two = _two_unitary_raw(_divide_by_norm(part, sp), f"{stage}-{tag}")
        parts.append(two._replace(coeffs=mult * sp * two.coeffs))
    return _cat(n, parts)


def four_unitary(x) -> Decomposition:
    """Write an arbitrary matrix as a combination of at most 4 unitaries.

    Splits into self-adjoint real/imaginary parts, rescales each into the
    unit ball and applies the two-unitary completion; the coefficient sum
    is at most twice the operator norm.  Unitary multiples short-circuit to
    a single term, the zero matrix to an empty list.
    """
    x = as_matrix(x)
    raw = _four_unitary_raw(x)
    return _assemble(None, x, raw, term_budget=4, coeff_budget=2.0 * operator_norm(x))


def canonical_trace_zero_unitary(d: int) -> np.ndarray:
    """Deterministic trace-zero unitary: ``diag(1, -1, ...)`` for even ``d``,
    the diagonal of ``d``-th roots of unity otherwise (``d >= 2``)."""
    if d < 2:
        raise DimensionMismatch("no trace-zero unitary exists in dimension < 2")
    if d % 2 == 0:
        return np.diag(np.array([(-1.0 + 0j) ** j for j in range(d)]))
    omega = np.exp(2j * np.pi / d)
    return np.diag(omega ** np.arange(d))


def witness_unitary(spec: TypeISubalgebraSpec) -> np.ndarray:
    """A single unitary lying in the complement of the subalgebra.

    Atoms of multiplicity at least 2 carry a root-of-unity diagonal; when
    multiplicity-1 atoms are present the witness permutes basis vectors (or
    whole atoms of a common dimension) fixed-point-freely instead.
    """
    w = algebra._witness_on(spec.dimension, atom_layouts(spec))
    if w is None:
        raise UnsupportedConfiguration(
            "no-witness", "no complement unitary construction covers this layout"
        )
    wconj = spec.conjugation
    if wconj is not None:
        w = wconj @ w @ wconj.conj().T
    return w


# ---------------------------------------------------------------------------
# fixed-point-free block permutations (the zero-piece-diagonal workhorse)


def lex_derangement(count: int, alpha: int, beta: int) -> list:
    """Lexicographically smallest fixed-point-free permutation with
    ``sigma(alpha) = beta`` (``alpha != beta``, ``count >= 2``).

    Greedy with a one-step completability check: a partial assignment
    extends to a derangement unless exactly one slot remains and its only
    remaining value is itself.
    """
    if count < 2:
        raise SinglePiece("need at least two pieces")
    if alpha == beta:
        raise UnispanError("a fixed-point-free map cannot fix alpha")
    sigma = [-1] * count
    sigma[alpha] = beta
    free = sorted(set(range(count)) - {beta})
    slots = [p for p in range(count) if p != alpha]
    for si, pos in enumerate(slots):
        rest = len(slots) - si - 1
        for v in free:
            if v == pos:
                continue
            remaining = [w for w in free if w != v]
            if rest == 1 and remaining == [slots[-1]]:
                continue
            sigma[pos] = v
            free.remove(v)
            break
        else:  # pragma: no cover - impossible for count >= 2
            raise UnispanError("derangement construction failed")
    return sigma


@lru_cache(maxsize=4096)
def _derangement(count: int, alpha: int, beta: int) -> np.ndarray:
    """:func:`lex_derangement` as a read-only index array, memoized."""
    sigma = np.array(lex_derangement(count, alpha, beta), dtype=np.intp)
    sigma.setflags(write=False)
    return sigma


def _normalize_pieces(n, pieces):
    """The pieces as rows of a ``(count, g)`` index array."""
    arrs = [np.asarray(list(p), dtype=np.intp) for p in pieces]
    if len(arrs) < 2:
        raise SinglePiece(f"got {len(arrs)} piece(s), need at least 2")
    g = len(arrs[0])
    if any(len(a) != g for a in arrs) or g < 1:
        raise DimensionMismatch("pieces must have equal positive size")
    rows = np.stack(arrs)
    flat = rows.ravel()
    if len(np.unique(flat)) != len(flat) or flat.min() < 0 or flat.max() >= n:
        raise DimensionMismatch("pieces must be disjoint index sets inside [0, n)")
    return rows


def _zero_piece_raw(x, rows):
    """:func:`zero_piece_diagonal_decomp` on checked ``(count, g)`` piece
    rows; ``x``'s piece-diagonal blocks are skipped, not checked."""
    n = x.shape[0]
    count, g = rows.shape
    # index pairs (rows[a][:, None], rows[b][None, :]) address block (a, b),
    # and stacked ones address one block per row of a piece list
    blocks = x[rows[:, None, :, None], rows[None, :, None, :]]  # (count, count, g, g)
    nonzero = np.any(blocks, axis=(2, 3))
    np.fill_diagonal(nonzero, False)
    pad = np.eye(g, dtype=np.complex128)[None]
    parts = []
    for alpha, beta in np.argwhere(nonzero).tolist():  # row-major, like a double loop
        entry = _four_unitary_raw(blocks[alpha, beta])
        others = np.arange(count) != alpha
        sigma = _derangement(count, alpha, beta)
        target = (rows[alpha, :, None], rows[beta, None, :])
        pads = [((rows[others, :, None], rows[sigma[others], None, :]), pad)]
        parts.append(_padded_pairs(entry, n, target, pads, Provenance.ZERO_DIAG,
                                   f"cross-block({alpha},{beta})"))
    return _cat(n, parts)


def zero_piece_diagonal_decomp(x, pieces) -> Decomposition:
    """Decompose a matrix whose piece-diagonal blocks vanish.

    ``pieces`` partitions (part of) the index set into equal-size groups.
    Every nonzero off-diagonal block is split by :func:`four_unitary` and
    each of its unitaries is carried around a fixed-point-free block
    permutation, padded with identity blocks in a ``+/-`` pair that cancels
    everywhere except at the target block.  All produced unitaries are
    generalized block permutations with zero piece-diagonal; ``p`` pieces
    cost at most ``8p(p-1)`` terms and ``2||x|| p(p-1)`` coefficient mass.
    """
    x = as_matrix(x)
    rows = _normalize_pieces(x.shape[0], pieces)
    scale = max(1.0, float(np.max(np.abs(x))))
    if np.max(np.abs(x[rows[:, :, None], rows[:, None, :]])) > 1e-12 * scale:
        raise PieceDiagonalNotZero("a piece-diagonal block is not zero")
    raw = _zero_piece_raw(x, rows)
    count = len(rows)
    return _assemble(
        None,
        x,
        raw,
        term_budget=8 * count * (count - 1),
        coeff_budget=2.0 * operator_norm(x) * count * (count - 1),
    )


# ---------------------------------------------------------------------------
# the scalar (single even atom) construction

_SCALAR_TERM_BOUND = 24  # 4 dilation + 4 balanced + 16 cross-block
# coefficient mass per unit of max(1, ||x||): dilations 4, balanced 2,
# cross-block remainder 2 * (5 + 1)
_SCALAR_COEFF_FACTOR = 18.0


def selfadjoint_corner_dilation(y):
    """Unitary dilations of a self-adjoint contraction ``y``.

    Returns ``(u1, u2, u3)`` of twice the size with
    ``diag(y, 0) = u1/2 + u2/2 - u3``; ``u1`` and ``u2`` are unitary and
    have trace ``2*tr(y)`` and ``0`` respectively, and ``u3`` is supported
    on the top-right corner only.
    """
    y = as_matrix(y)
    r = sqrt_defect(y)
    u1 = np.block([[y, r], [-r, y]])
    u2 = np.block([[y, r], [r, -y]])
    u3 = np.block([[np.zeros_like(y), r], [np.zeros_like(y), np.zeros_like(y)]])
    return u1, u2, u3


def _scalar_case_raw(x):
    # m is even: x is a multiplicity block of an atom validate_spec accepted
    m = x.shape[0]
    scale = max(1.0, hs_norm(x))
    if abs(normalized_trace(x)) > 1e-9 * scale:
        raise NotTraceZero("input trace is not zero within tolerance")
    if not np.any(x):
        return _stack(m)
    s = operator_norm(x)
    cand = _divide_by_norm(x, s)
    if (
        unitarity_residual(cand) <= FAST_PATH_TOL
        and abs(normalized_trace(cand)) <= FAST_PATH_TOL
    ):
        return _stack(m, [(s, cand, Provenance.FOUR_UNITARY, "unitary-multiple")])
    g = m // 2
    x11 = x[:g, :g]
    x12 = x[:g, g:]
    x21 = x[g:, :g]
    x22 = x[g:, g:]
    z = x11 + x22
    terms = []
    corner = np.zeros((g, g), dtype=np.complex128)
    for part, mult, tag in _selfadjoint_parts(z):
        if not np.any(part):
            continue
        sp = max(1.0, operator_norm(part))
        u1, u2, u3 = selfadjoint_corner_dilation(part / sp)
        terms.append((mult * sp / 2.0, u1, Provenance.DILATION, f"diag-dilation-{tag}"))
        terms.append((mult * sp / 2.0, u2, Provenance.DILATION, f"diag-dilation-{tag}"))
        corner = corner - mult * sp * u3[:g, g:]
    balanced = _four_unitary_raw(x22, stage="balanced")
    for c, u in zip(balanced.coeffs, balanced.unitaries):
        lifted = np.block(
            [[-u, np.zeros_like(u)], [np.zeros_like(u), u]]
        )
        terms.append((c, lifted, Provenance.FOUR_UNITARY, "balanced-pair"))
    parts = [_stack(m, terms)]
    offdiag = np.zeros_like(x)
    offdiag[:g, g:] = x12 + corner
    offdiag[g:, :g] = x21
    if np.any(offdiag):
        parts.append(_zero_piece_raw(offdiag, np.arange(m).reshape(2, g)))
    return _cat(m, parts)


# ---------------------------------------------------------------------------
# amplification (placing a corner decomposition into a k x k block grid)


def _amplify_raw(entry, k, s0, t0, pad):
    g = pad.shape[0]
    rows, cols = list(range(k)), list(range(k))
    rows[0], rows[s0] = s0, 0
    cols[0], cols[t0] = t0, 0
    at = [np.s_[r * g : (r + 1) * g, c * g : (c + 1) * g] for r, c in zip(rows, cols)]
    return _padded_pairs(entry, k * g, at[0], [(i, pad) for i in at[1:]],
                         Provenance.AMPLIFY, f"entry-move({s0 + 1},{t0 + 1})")


def amplify_entry(entry_decomp: Decomposition, k: int, position, v_pad) -> Decomposition:
    """Lift a corner decomposition to the ``(s, t)`` slot of a ``k x k`` grid.

    Every corner unitary ``u`` becomes the pair ``u (+) v_pad (+) ...`` and
    ``u (+) (-v_pad) (+) ...``, its blocks placed by index so that ``u``
    lands in slot ``(s, t)`` (1-based) and the pads fill one block of every
    other row and column.  The pair averages to the single-entry embedding
    while each summand stays unitary.
    """
    s, t = position
    if not (1 <= s <= k and 1 <= t <= k):
        raise BadPosition(f"position {position} outside the {k} x {k} grid")
    pad = as_matrix(v_pad)
    if unitarity_residual(pad) > 1e-8:
        raise PaddingNotUnitary("padding matrix is not unitary")
    g = pad.shape[0]
    entry = entry_decomp.unitaries
    if entry.shape[1:] != pad.shape:
        raise DimensionMismatch("entry unitaries and padding differ in size")
    if np.any(unitarity_residual(entry) > 1e-8):
        raise PaddingNotUnitary("an entry term is not unitary")
    raw = _amplify_raw(_Terms(entry_decomp.coeffs, entry, entry_decomp.provenance,
                              entry_decomp.stages), k, s - 1, t - 1, pad)
    target = np.zeros((k * g, k * g), dtype=np.complex128)
    target[(s - 1) * g : s * g, (t - 1) * g : t * g] = entry_decomp.reconstruction()
    return _assemble(
        None,
        target,
        raw,
        term_budget=2 * len(entry),
        coeff_budget=entry_decomp.coeff_sum,
    )


# ---------------------------------------------------------------------------
# the class-by-class complement decompositions


def _single_block_raw(k, m, x):
    """Factor-entrywise decomposition inside one atom ``M_k (x) C*1_m``."""
    if k == 1:
        return _scalar_case_raw(x)
    pad = canonical_trace_zero_unitary(m)
    parts = []
    for s0 in range(k):
        for t0 in range(k):
            entry = x[s0 * m : (s0 + 1) * m, t0 * m : (t0 + 1) * m]
            if not np.any(entry):
                continue
            parts.append(_amplify_raw(_scalar_case_raw(entry), k, s0, t0, pad))
    return _cat(k * m, parts)


def _type_one_raw(plan: algebra.LayoutPlan, x):
    """The construction behind :func:`type_one_decomp`, in standard position,
    with the completion pads and the gcd piece rows of the layout's plan."""
    n = x.shape[0]
    parts = []
    cross = x.copy()
    for a, pad in zip(plan.atoms, plan.pads):
        block = np.ix_(a.indices, a.indices)
        comp = x[block]
        cross[block] = 0.0
        if a.m < 2 or not np.any(comp):
            continue
        atom_terms = _single_block_raw(a.k, a.m, comp)
        if pad is None:  # a lone atom is the whole space: nothing to complete
            parts.append(atom_terms)
            continue
        parts.append(_padded_pairs(atom_terms, n, block, [((), pad)],
                                   Provenance.ATOMIC, f"atom-completion({a.block},{a.atom})"))
    if np.any(cross):
        parts.append(_zero_piece_raw(cross, plan.pieces))
    return _cat(n, parts)


def _type_one_budgets(plan: algebra.LayoutPlan):
    """Static ``(term, coefficient-per-unit-norm)`` bounds of
    :func:`_type_one_raw`: ``p`` gcd pieces cost ``8p(p-1)`` terms and
    ``2p(p-1)`` coefficient mass, each even atom its inner bound (doubled by
    the completion pairs unless it is the only atom) and ``18 k**2``."""
    p = len(plan.pieces)
    pairs = 1 if len(plan.atoms) == 1 else 2
    tb = 8 * p * (p - 1)
    cf = 2.0 * p * (p - 1)
    for a in plan.atoms:
        if a.m >= 2:
            inner = _SCALAR_TERM_BOUND if a.k == 1 else 2 * _SCALAR_TERM_BOUND * a.k**2
            tb += pairs * inner
            cf += _SCALAR_COEFF_FACTOR * a.k**2
    return tb, cf


def type_one_decomp(spec: TypeISubalgebraSpec, x) -> Decomposition:
    """Decompose a complement element against any supported type I spec.

    One path for every class (c1-c4): decompose inside each even atom,
    complete those terms across the other atoms in cancelling pairs (stage
    ``atom-completion(block,atom)``; a lone atom, as in c2, needs none) and
    carry the cross-atom part on block permutations over pieces of size
    ``gcd`` of the atom dimensions.
    A conjugation, when present, is applied at the boundary.  Raises
    :class:`NotInComplement` when ``||E_A(x)||_2 > RECON_TOL * max(1, ||x||_2)``.
    """
    x = as_matrix(x)
    algebra.supported_class(spec, x.shape[0])
    resid = algebra.membership_residual(spec, x)
    if resid > RECON_TOL * max(1.0, hs_norm(x)):
        raise NotInComplement(
            f"conditional expectation has norm {resid:.3e}; project the input first"
        )
    plan = algebra.layout_plan(spec.blocks)
    w = spec.conjugation
    if w is None:
        raw = _type_one_raw(plan, x)
    else:
        raw = _conjugate_terms(_type_one_raw(plan, w.conj().T @ x @ w), w)
    tb, cf = _type_one_budgets(plan)
    return _assemble(spec, x, raw, term_budget=tb,
                     coeff_budget=cf * max(1.0, operator_norm(x)))


# ---------------------------------------------------------------------------
# the quadrant alternative for the masa


def masa_quadrant_decomp(x) -> Decomposition:
    """Alternative masa-complement decomposition through four quadrants.

    Views ``M_n`` (``4 | n``) as ``M_4`` over ``M_{n/4}``: the self-adjoint
    parts of the quadrant-diagonal blocks are dilated pairwise by one
    4 x 4-patterned unitary pair, and everything else (including the
    dilation remainders) goes through the zero-piece-diagonal path.  Every
    produced unitary has zero matrix diagonal.
    """
    x = as_matrix(x)
    n = x.shape[0]
    if n % 4 != 0:
        raise NotDivisibleBy4(f"dimension {n} is not divisible by 4")
    scale = max(1.0, float(np.max(np.abs(x))))
    if np.max(np.abs(np.diagonal(x))) > 1e-10 * scale:
        raise DiagonalNotZero("the matrix diagonal is not zero")
    q = n // 4
    quads = np.arange(n).reshape(4, q)
    remainder = x.copy()
    remainder[quads[:, :, None], quads[:, None, :]] = 0.0

    # Each quadrant slot carries its own corner dilation, embedded at
    # (slot, spare_row) x (slot, spare_col); the two slots of a pair use
    # complementary spare rows/columns so the result stays unitary.
    pairs = (((0, 3, 2), (1, 2, 3)), ((2, 1, 0), (3, 0, 1)))
    terms = []
    for pair in pairs:
        blocks = [x[np.ix_(quads[slot], quads[slot])] for slot, _, _ in pair]
        for (pa, mult, tag), (pb, _, _) in zip(*map(_selfadjoint_parts, blocks)):
            if not (np.any(pa) or np.any(pb)):
                continue
            s = max(1.0, operator_norm(pa), operator_norm(pb))
            u = np.zeros((2, n, n), dtype=np.complex128)
            for (slot, row2, col2), p in zip(pair, (pa, pb)):
                u1, u2, u3 = selfadjoint_corner_dilation(p / s)
                rows, cols = quads[[slot, row2]].ravel(), quads[[slot, col2]].ravel()
                u[:, rows[:, None], cols[None, :]] = (u1, u2)
                remainder[np.ix_(quads[slot], quads[col2])] -= mult * s * u3[:q, q:]
            terms += [(mult * s / 2.0, v, Provenance.DILATION, f"quadrant-{tag}") for v in u]
    raw = _stack(n, terms)
    if np.any(remainder):
        raw = _cat(n, [raw, _zero_piece_raw(remainder, quads)])
    spec = TypeISubalgebraSpec.masa(n)
    return _assemble(spec, x, raw, term_budget=8 + 8 * 4 * 3,
                     coeff_budget=148.0 * max(1.0, operator_norm(x)))


# ---------------------------------------------------------------------------
# independent verification


def verify_decomposition(spec, x, d) -> VerificationReport:
    """Recompute the sum and all residuals of a decomposition from scratch.

    ``x`` is one target with its :class:`Decomposition` ``d``, or a stack
    ``(B, n, n)`` of targets with a sequence of ``B`` decompositions; a
    single target is a stack of one.  The report holds the largest
    reconstruction residual over the targets, the largest unitarity and
    membership residuals over all terms, the total term count and the
    largest coefficient sum.  Shares only the numeric kernels with the
    constructions; membership is checked through the conditional
    expectation.
    """
    x = as_stack(x)
    if x.ndim == 2:
        x, d = x[None], (d,)
    if x.ndim != 3 or len(x) != len(d):
        raise DimensionMismatch(f"{len(d)} decompositions for targets of shape {x.shape}")
    if any(e.unitaries.shape[1:] != x.shape[1:] for e in d):
        raise DimensionMismatch("term dimension differs from the target")
    us = np.concatenate([np.empty((0,) + x.shape[1:], dtype=np.complex128)]
                        + [e.unitaries for e in d])
    recon = np.array([e.reconstruction() for e in d], dtype=np.complex128).reshape(x.shape)
    member = 0.0 if spec is None else algebra.membership_residual(spec, us)
    return VerificationReport(
        recon_residual=float(np.max(hs_norm(recon - x), initial=0.0)),
        max_unitarity_residual=float(np.max(unitarity_residual(us), initial=0.0)),
        max_membership_residual=float(np.max(member, initial=0.0)),
        term_count=len(us),
        coeff_sum=max((e.coeff_sum for e in d), default=0.0),
    )
