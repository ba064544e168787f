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
from .algebra import TypeISubalgebraSpec
from .errors import (
    DiagonalNotZero,
    DimensionMismatch,
    NotDivisibleBy4,
    NotInComplement,
    NotTraceZero,
    SinglePiece,
    UnispanError,
)
from .linalg import (
    as_matrix,
    as_stack,
    hs_norm,
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
    """Raw terms of a stack of entries as parallel stacks: ``coeffs (T,)``,
    ``unitaries (T, n, n)``, the provenance and stage tuples, and ``owner
    (T,)``, the index of the entry that made each term, in ascending order."""

    coeffs: np.ndarray
    unitaries: np.ndarray
    provenance: tuple
    stages: tuple
    owner: np.ndarray


def _cat(n, parts) -> _Terms:
    """Concatenate term stacks of ``n x n`` unitaries, sorted stably by
    owner: each owner's terms come out in part order, each part's in its
    own order.  No parts give the empty stack."""
    parts = [p for p in parts if len(p.coeffs)]
    if len(parts) == 1:
        return parts[0]
    owner = np.concatenate([np.empty(0, dtype=np.intp)] + [p.owner for p in parts])
    order = np.argsort(owner, kind="stable")
    slot = np.empty_like(order)
    slot[order] = np.arange(len(order))
    coeffs = np.empty(len(order), dtype=np.complex128)
    unitaries = np.empty((len(order), n, n), dtype=np.complex128)
    start = 0
    for p in parts:  # one copy of every unitary, straight to its slot
        at = slot[start : start + len(p.coeffs)]
        coeffs[at] = p.coeffs
        unitaries[at] = p.unitaries
        start += len(p.coeffs)
    order = order.tolist()
    provenance = sum((p.provenance for p in parts), ())
    stages = sum((p.stages for p in parts), ())
    return _Terms(coeffs, unitaries, tuple(provenance[i] for i in order),
                  tuple(stages[i] for i in order), owner[order])


@lru_cache(maxsize=32)
def _merge_key_weights(size: int) -> np.ndarray:
    """Fixed seeded weights in ``[1, 2)`` for the real and imaginary parts of
    ``size`` complex entries, interleaved like ``complex128.view(float64)``."""
    weights = np.random.default_rng(0x6D657267).uniform(1.0, 2.0, 2 * size)
    weights.setflags(write=False)
    return weights


def _owner_max(values, own):
    """The largest of ``values`` over each owner, at every position;
    ``own`` is ascending and not empty."""
    new = np.r_[True, own[1:] != own[:-1]]
    return np.maximum.reduceat(values, np.flatnonzero(new))[np.cumsum(new) - 1]


def _merge_raw(coeffs, unitaries, owner):
    """Merge terms whose unitaries agree up to a scalar phase, for all
    owners of a stack in one pass.

    ``owner`` is the ascending owner array of the terms (all zeros for a
    single target).  Terms of different owners never merge, and each
    owner's terms merge exactly as they would alone.  Each unitary's phase
    is pinned at its first entry of dominant modulus; a term joins the
    earliest cluster of its owner whose phase-canonical form is within
    ``MERGE_TOL`` of its own in every entry.  A cluster keeps its first
    term's unitary verbatim and later members fold their relative phase
    into the coefficient, so ``(c, -u)`` merges with ``(-c, u)``.  Zero
    unitaries and coefficients that cancel to noise (against the owner's
    largest) are dropped.  Returns the cluster coefficients and the index
    of each cluster's first term, in term order.

    Only terms that can join a cluster are compared.  The key ``k`` of a
    phase-canonical row is a weighted sum of its real and imaginary parts
    with fixed weights in ``[1, 2)``; two rows within ``MERGE_TOL`` in every
    entry have keys less than ``4 n**2 MERGE_TOL`` apart.  The window
    ``8 n**2 MERGE_TOL + 1e-12 max|k|``, with the owner's ``max|k|``,
    leaves room for rounding in the keys.  Sorted by ``(owner, key)``, the
    terms fall into runs of consecutive keys of one owner inside the
    window, and no cluster spans two runs: two keys inside one window have
    every sorted gap between them inside it too, and a rounded difference
    keeps that order.  A term alone in its run is its own cluster, a run of
    two is decided by one comparison of its two rows, and only longer runs
    compare term by term.  (Keys of the moduli ``|u_j|`` would not separate
    a ``(+v, -v)`` padding pair, whose members have equal moduli.)
    """
    count, n, _ = unitaries.shape
    flat = unitaries.reshape(count, n * n)
    mags = np.abs(flat)
    peaks = mags.max(axis=1, initial=0.0)
    live = np.flatnonzero(peaks)  # the terms that are not zero unitaries
    if not live.size:
        return coeffs[live], live
    lead = flat[live, np.argmax(mags[live] >= 0.5 * peaks[live, None], axis=1)]
    # np.hypot rounds like the scalar abs(), so every phase and canonical
    # row is bit-identical to the one a term-by-term loop computes
    phases = lead / np.hypot(lead.real, lead.imag)
    canon = (flat if len(live) == count else flat[live]) * np.conj(phases)[:, None]
    keys = canon.view(np.float64) @ _merge_key_weights(n * n)
    own = owner[live]
    window = 8 * n * n * MERGE_TOL + 1e-12 * _owner_max(np.abs(keys), own)
    order = np.lexsort((keys, own))
    lo, hi = order[:-1], order[1:]
    close = (own[lo] == own[hi]) & (keys[hi] - keys[lo] <= window[lo])
    summed = coeffs[live]  # indexed by position in ``live`` from here on
    if close.any():
        head = np.arange(len(live))  # each term's cluster head
        starts = np.flatnonzero(np.r_[True, ~close])
        sizes = np.diff(np.r_[starts, len(live)])
        pair = np.sort(order[starts[sizes == 2, None] + np.arange(2)], axis=1)
        same = np.max(np.abs(canon[pair[:, 1]] - canon[pair[:, 0]]), axis=1) <= MERGE_TOL
        head[pair[same, 1]] = pair[same, 0]
        for start, size in zip(starts[sizes > 2].tolist(), sizes[sizes > 2].tolist()):
            members = np.sort(order[start : start + size]).tolist()
            clusters = members[:1]  # the run's cluster heads, in term order
            for pos in members[1:]:
                hits = np.flatnonzero(
                    np.max(np.abs(canon[pos] - canon[clusters]), axis=1) <= MERGE_TOL
                )
                if hits.size:
                    head[pos] = clusters[hits[0]]
                else:
                    clusters.append(pos)
        first = head == np.arange(len(live))
        joined = np.flatnonzero(~first)
        heads = head[joined].tolist()
        # [summed coeff, position, phase] per cluster that others join; the
        # fold stays in NumPy scalar arithmetic, in term order, because the
        # array complex product rounds differently from the scalar one
        reps = {h: [summed[h], h, phases[h]] for h in heads}
        for pos, h in zip(joined.tolist(), heads):
            coeff, phase, rep = summed[pos], phases[pos], reps[h]
            rep[0] += coeff * phase / rep[2]
        for coeff, pos, _ in reps.values():
            summed[pos] = coeff
        live, summed, own = live[first], summed[first], own[first]
    mags = np.hypot(summed.real, summed.imag)
    big = mags > 1e-15 * _owner_max(mags, own)
    return summed[big], live[big]


def _assemble(spec, targets, raw, term_budget, coeff_budgets):
    """One merged :class:`Decomposition` per target of the stack
    ``targets``, sliced from one merge of the raw terms ``raw`` of all of
    them; ``coeff_budgets`` holds each target's coefficient budget."""
    coeffs, kept = _merge_raw(raw.coeffs, raw.unitaries, raw.owner)
    if len(kept) == len(raw.coeffs):  # nothing merged or dropped
        unitaries, provenance, stages = raw.unitaries, raw.provenance, raw.stages
    else:
        unitaries = raw.unitaries[kept]
        provenance = tuple(raw.provenance[i] for i in kept.tolist())
        stages = tuple(raw.stages[i] for i in kept.tolist())
    ends = np.searchsorted(raw.owner[kept], np.arange(len(targets) + 1)).tolist()
    return tuple(
        Decomposition(spec, x, coeffs[lo:hi], unitaries[lo:hi], provenance[lo:hi],
                      stages[lo:hi], term_budget, budget)
        for x, lo, hi, budget in zip(targets, ends, ends[1:], coeff_budgets)
    )


def _padded_pairs(entry, n, target, pads, prov, stages):
    """Turn each entry term ``(c, w)`` of the stack ``entry`` into two
    ``n x n`` terms of coefficient ``c/2``: zero but for ``sign * block`` at
    every ``(index, block)`` of ``pads`` and ``w`` at ``target``, with signs
    ``+1`` and ``-1`` so the pads cancel.  An index addresses the ``(T, n, n)``
    stack of one sign: led by a slice it places the same block(s) in every
    term, led by an index array over the terms one set per term.
    ``stages`` names each entry term's stage.  Every ``(+v, -v)`` padding
    pair is built here, all pairs of one call in one ``(2T, n, n)`` stack
    with one assignment per pad and sign and one per sign for the targets."""
    signs = (1.0, 1.0) if _FAULT_INJECTION else (1.0, -1.0)
    count = len(entry.coeffs)
    u = np.zeros((count, 2, n, n), dtype=np.complex128)
    for index, block in pads:
        for i, sign in enumerate(signs):
            u[:, i][index] = sign * block
    for i in range(2):
        u[:, i][target] = entry.unitaries
    return _Terms(np.repeat(entry.coeffs / 2.0, 2), u.reshape(2 * count, n, n),
                  (prov,) * (2 * count), tuple(s for s in stages for _ in signs),
                  np.repeat(entry.owner, 2))


def _conjugate_terms(raw, w):
    return raw._replace(unitaries=w @ raw.unitaries @ w.conj().T)


def _adjoint(x):
    """The adjoint of every matrix of a stack."""
    return np.swapaxes(x.conj(), -1, -2)


# ---------------------------------------------------------------------------
# elementary splits


def _two_unitary_raw(y, owner, stage):
    """The pair ``(1/2, u), (1/2, u*)`` with ``u = y + i*sqrt(1 - y**2)``
    for each self-adjoint contraction of the stack ``y``."""
    count, g, _ = y.shape
    if not count:
        return _cat(g, ())
    u = y + 1j * sqrt_defect(y)
    return _Terms(np.full(2 * count, 0.5, dtype=np.complex128),
                  np.stack((u, _adjoint(u)), axis=1).reshape(2 * count, g, g),
                  (Provenance.FOUR_UNITARY,) * (2 * count), (stage,) * (2 * count),
                  np.repeat(owner, 2))


def _selfadjoint_parts(z):
    """``(part, mult, tag)`` for the real and imaginary self-adjoint parts
    of ``z = h + i*k`` (one matrix or a stack): ``(h, 1, "real")`` and
    ``(k, 1j, "imag")``."""
    zc = _adjoint(z)
    return (((z + zc) / 2.0, 1.0, "real"), ((z - zc) / 2.0j, 1.0j, "imag"))


def _divide_by_norm(x, s):
    """``x / s`` for a stack ``x`` and its norms ``s > 0``.  NumPy divides a
    complex array by multiplying with ``1/s``, which overflows for a
    subnormal ``s``; such a matrix and its norm are then first scaled up by
    the exact factor ``2**600``."""
    tiny = s < np.finfo(np.float64).tiny
    if np.any(tiny):
        x, s = x.copy(), s.copy()
        x[tiny] *= 2.0**600
        s[tiny] *= 2.0**600
    return x / s[:, None, None]


def _unitary_multiples(x, trace_free=False):
    """Split the unitary multiples off the stack ``x``.

    Returns the one-term decompositions ``(s, x/s)``, ``s = ||x||``, of the
    matrices whose ``x/s`` is unitary (and, with ``trace_free``, has zero
    trace) within ``FAST_PATH_TOL``, and the indices of the other nonzero
    matrices.  Zero matrices are in neither, and a stack of zero matrices
    calls no kernel."""
    live = np.flatnonzero(np.any(x, axis=(1, 2)))
    if not live.size:
        return _cat(x.shape[-1], ()), live
    s = operator_norm(x[live])
    live, s = live[s != 0.0], s[s != 0.0]
    cand = _divide_by_norm(x[live], s)
    fast = unitarity_residual(cand) <= FAST_PATH_TOL
    if trace_free:
        fast &= _abs_normalized_trace(cand) <= FAST_PATH_TOL
    count = int(np.count_nonzero(fast))
    multiples = _Terms(s[fast].astype(np.complex128), cand[fast],
                       (Provenance.FOUR_UNITARY,) * count, ("unitary-multiple",) * count,
                       live[fast])
    return multiples, live[~fast]


def _four_unitary_raw(x, stage="selfadjoint-split"):
    """At most four unitary terms for each matrix of the stack ``x``."""
    multiples, slow = _unitary_multiples(x)
    if not slow.size:
        return multiples
    parts = [multiples]
    for part, mult, tag in _selfadjoint_parts(x[slow]):
        sp = operator_norm(part)
        nz = sp != 0.0
        two = _two_unitary_raw(_divide_by_norm(part[nz], sp[nz]), slow[nz], f"{stage}-{tag}")
        parts.append(two._replace(coeffs=np.repeat(mult * sp[nz], 2) * two.coeffs))
    return _cat(x.shape[-1], parts)


def four_unitary(x) -> Decomposition:
    """Write an arbitrary matrix as a combination of at most 4 unitaries.

    Splits into self-adjoint real/imaginary parts, rescales each into the
    unit ball and applies the two-unitary completion; the coefficient sum
    is at most twice the operator norm.  Unitary multiples short-circuit to
    a single term, the zero matrix to an empty list.
    """
    x = as_matrix(x)
    raw = _four_unitary_raw(x[None])
    return _assemble(None, x[None], raw, 4, [2.0 * operator_norm(x)])[0]


def canonical_trace_zero_unitary(d: int) -> np.ndarray:
    """Deterministic trace-zero unitary: ``diag(1, -1, ...)`` for even ``d``,
    the diagonal of ``d``-th roots of unity otherwise (``d >= 2``)."""
    if d < 2:
        raise DimensionMismatch("no trace-zero unitary exists in dimension < 2")
    if d % 2 == 0:
        return np.diag(np.array([(-1.0 + 0j) ** j for j in range(d)]))
    omega = np.exp(2j * np.pi / d)
    return np.diag(omega ** np.arange(d))


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


def _zero_piece_raw(x, rows):
    """Block-permutation terms for the cross blocks of each matrix of the
    stack ``x``, over the disjoint, equal-size pieces of the ``(count, g)``
    index rows ``rows`` (``count >= 2``).

    Every nonzero cross block ``(alpha, beta)`` is split by
    :func:`_four_unitary_raw`, all of them in one call, and each of its
    unitaries is carried to block ``(alpha, beta)`` of the fixed-point-free
    block permutation :func:`lex_derangement` ``(count, alpha, beta)``.
    The other blocks of the permutation hold identity pads, in a
    ``(+v, -v)`` pair that cancels everywhere but at the target block.
    Every unitary is a generalized block permutation with zero
    piece-diagonal.  The piece-diagonal blocks of ``x`` are skipped, not
    checked.  ``p`` pieces cost at most ``8p(p-1)`` terms and ``2||x||
    p(p-1)`` coefficient mass per matrix; :func:`_type_one_budgets` holds
    that bound."""
    n = x.shape[-1]
    count, g = rows.shape
    # index pairs (rows[a][:, None], rows[b][None, :]) address block (a, b),
    # and stacked ones address one block per row of a piece list
    blocks = x[:, rows[:, None, :, None], rows[None, :, None, :]]  # (B, count, count, g, g)
    nonzero = np.any(blocks, axis=(3, 4))
    nonzero[:, np.arange(count), np.arange(count)] = False
    owner, alpha, beta = np.nonzero(nonzero)  # row-major, like a loop per target
    entry = _four_unitary_raw(blocks[owner, alpha, beta])
    cell = entry.owner  # the cross block each term splits
    sigma = np.array([_derangement(count, a, b) for a, b in zip(alpha.tolist(), beta.tolist())],
                     dtype=np.intp).reshape(-1, count)[cell]
    others = np.arange(count - 1)  # the pieces other than alpha, in order
    others = others + (others >= alpha[cell, None])
    terms = np.arange(len(cell))[:, None, None]
    target = (terms, rows[alpha[cell], :, None], rows[beta[cell], None, :])
    moved = np.take_along_axis(sigma, others, axis=1)
    pads = [((terms[..., None], rows[others][..., None], rows[moved][:, :, None, :]),
             np.eye(g, dtype=np.complex128))]
    names = [f"cross-block({a},{b})" for a, b in zip(alpha.tolist(), beta.tolist())]
    return _padded_pairs(entry._replace(owner=owner[cell]), n, target, pads,
                         Provenance.ZERO_DIAG, [names[c] for c in cell.tolist()])


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
    on the top-right corner only.  A stack ``(..., g, g)`` of contractions
    gives three stacks of dilations.
    """
    y = as_stack(y)
    r = sqrt_defect(y)
    u1 = np.block([[y, r], [-r, y]])
    u2 = np.block([[y, r], [r, -y]])
    u3 = np.block([[np.zeros_like(y), r], [np.zeros_like(y), np.zeros_like(y)]])
    return u1, u2, u3


def _abs_normalized_trace(x):
    """``abs(normalized_trace(x))`` of each matrix of the stack ``x``, with
    the same rounding."""
    t = np.trace(x, axis1=-2, axis2=-1)
    m = x.shape[-1]
    return np.hypot(t.real / m, t.imag / m)


def _scalar_case_raw(x):
    # m is even: each matrix of x is a multiplicity block of an atom
    # validate_spec accepted
    m = x.shape[-1]
    if np.any(_abs_normalized_trace(x) > 1e-9 * np.maximum(1.0, hs_norm(x))):
        raise NotTraceZero("input trace is not zero within tolerance")
    multiples, slow = _unitary_multiples(x, trace_free=True)
    if not slow.size:
        return multiples
    parts = [multiples]
    y = x[slow]
    g = m // 2
    corner = np.zeros((len(slow), g, g), dtype=np.complex128)
    for part, mult, tag in _selfadjoint_parts(y[:, :g, :g] + y[:, g:, g:]):
        nz = np.flatnonzero(np.any(part, axis=(1, 2)))
        if not nz.size:
            continue
        sp = np.maximum(1.0, operator_norm(part[nz]))
        u1, u2, u3 = selfadjoint_corner_dilation(part[nz] / sp[:, None, None])
        count = 2 * len(nz)
        parts.append(_Terms(np.repeat(mult * sp / 2.0, 2).astype(np.complex128),
                            np.stack((u1, u2), axis=1).reshape(count, m, m),
                            (Provenance.DILATION,) * count, (f"diag-dilation-{tag}",) * count,
                            np.repeat(slow[nz], 2)))
        corner[nz] = corner[nz] - (mult * sp)[:, None, None] * u3[:, :g, g:]
    balanced = _four_unitary_raw(y[:, g:, g:], stage="balanced")
    u = balanced.unitaries
    lifted = np.block([[-u, np.zeros_like(u)], [np.zeros_like(u), u]])
    count = len(u)
    parts.append(_Terms(balanced.coeffs, lifted, (Provenance.FOUR_UNITARY,) * count,
                        ("balanced-pair",) * count, slow[balanced.owner]))
    offdiag = np.zeros_like(y)
    offdiag[:, :g, g:] = y[:, :g, g:] + corner
    offdiag[:, g:, :g] = y[:, g:, :g]
    cross = _zero_piece_raw(offdiag, np.arange(m).reshape(2, g))
    parts.append(cross._replace(owner=slow[cross.owner]))
    return _cat(m, parts)


# ---------------------------------------------------------------------------
# amplification (placing a corner decomposition into a k x k block grid)


def _amplify_raw(entry, k, s0, t0, pad):
    """Lift each entry term to block ``(s0, t0)`` of a ``k x k`` grid, with
    ``s0`` and ``t0`` given per term (0-based).  Each entry unitary ``u``
    becomes a ``(+pad, -pad)`` pair: ``u`` in block ``(s0, t0)`` and the
    pads in one block of every other block row and column, so each summand
    is unitary and the pair averages to the single-entry embedding."""
    g = pad.shape[0]
    count = len(entry.coeffs)
    terms = np.arange(count)
    rows = np.tile(np.arange(k), (count, 1))
    cols = rows.copy()
    rows[terms, 0], cols[terms, 0] = s0, t0
    rows[terms, s0], cols[terms, t0] = 0, 0
    span = np.arange(g)
    target = (terms[:, None, None], (s0 * g)[:, None, None] + span[:, None],
              (t0 * g)[:, None, None] + span)
    pads = [((terms[:, None, None, None], (rows[:, 1:] * g)[..., None, None] + span[:, None],
              (cols[:, 1:] * g)[..., None, None] + span), pad)]
    stages = [f"entry-move({s + 1},{t + 1})" for s, t in zip(s0.tolist(), t0.tolist())]
    return _padded_pairs(entry, k * g, target, pads, Provenance.AMPLIFY, stages)


# ---------------------------------------------------------------------------
# the class-by-class complement decompositions


def _single_block_raw(k, m, x):
    """Factor-entrywise decomposition inside one atom ``M_k (x) C*1_m`` of
    each matrix of the stack ``x``: all nonzero ``m x m`` entries of all
    matrices go through one scalar-case call."""
    if k == 1:
        return _scalar_case_raw(x)
    entries = x.reshape(len(x), k, m, k, m).swapaxes(2, 3).reshape(-1, m, m)
    live = np.flatnonzero(np.any(entries, axis=(1, 2)))
    inner = _scalar_case_raw(entries[live])
    owner, cell = np.divmod(live[inner.owner], k * k)
    s0, t0 = np.divmod(cell, k)
    return _amplify_raw(inner._replace(owner=owner), k, s0, t0, canonical_trace_zero_unitary(m))


def _type_one_raw(plan: algebra.LayoutPlan, x):
    """The construction behind :func:`type_one_stack` for a stack ``x`` in
    standard position, with the completion pads and the gcd piece rows of
    the layout's plan."""
    n = x.shape[-1]
    parts = []
    cross = x.copy()
    for a, pad in zip(plan.atoms, plan.pads):
        block = (slice(None),) + np.ix_(a.indices, a.indices)
        comp = x[block]
        cross[block] = 0.0
        if a.m < 2:
            continue
        live = np.flatnonzero(np.any(comp, axis=(1, 2)))
        atom_terms = _single_block_raw(a.k, a.m, comp[live])
        atom_terms = atom_terms._replace(owner=live[atom_terms.owner])
        if pad is None:  # a lone atom is the whole space: nothing to complete
            parts.append(atom_terms)
            continue
        stages = (f"atom-completion({a.block},{a.atom})",) * len(atom_terms.coeffs)
        parts.append(_padded_pairs(atom_terms, n, block, [((slice(None),), pad)],
                                   Provenance.ATOMIC, stages))
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


def type_one_stack(spec: TypeISubalgebraSpec, xs) -> Tuple[Decomposition, ...]:
    """Decompose a stack ``(B, n, n)`` of complement elements against any
    supported type I spec; returns one :class:`Decomposition` per target.

    One path for every class (c1-c4): decompose inside each even atom,
    complete those terms across the other atoms in cancelling pairs (stage
    ``atom-completion(block,atom)``; a lone atom, as in c2, needs none) and
    carry the cross-atom part on block permutations over pieces of size
    ``gcd`` of the atom dimensions.  Every stage runs once over all blocks
    of all targets, and one merge keeps each target's terms apart, so each
    decomposition is bit-identical to that target's decomposed alone.
    A conjugation, when present, is applied at the boundary.  Raises
    :class:`NotInComplement`, naming the first such target of a longer
    stack, when ``||E_A(x)||_2 > RECON_TOL * max(1, ||x||_2)``.
    """
    xs = as_stack(xs)
    if xs.ndim != 3:
        raise DimensionMismatch(f"expected a stack of shape (B, n, n), got {xs.shape}")
    algebra.supported_class(spec, xs.shape[-1])
    resid = algebra.membership_residual(spec, xs)
    bad = np.flatnonzero(resid > RECON_TOL * np.maximum(1.0, hs_norm(xs)))
    if bad.size:
        i = int(bad[0])
        text = f"conditional expectation has norm {resid[i]:.3e}; project the input first"
        raise NotInComplement(text if len(xs) == 1 else f"target {i}: {text}")
    plan = algebra.layout_plan(spec.blocks)
    w = spec.conjugation
    if w is None:
        raw = _type_one_raw(plan, xs)
    else:
        raw = _conjugate_terms(_type_one_raw(plan, w.conj().T @ xs @ w), w)
    tb, cf = _type_one_budgets(plan)
    return _assemble(spec, xs, raw, tb, [cf * max(1.0, s) for s in operator_norm(xs).tolist()])


def type_one_decomp(spec: TypeISubalgebraSpec, x) -> Decomposition:
    """Decompose one complement element: :func:`type_one_stack` on a stack
    of one.  Raises :class:`NotInComplement` when
    ``||E_A(x)||_2 > RECON_TOL * max(1, ||x||_2)``.
    """
    return type_one_stack(spec, as_matrix(x)[None])[0]


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
    coeffs, unitaries, stages = [], [np.zeros((0, n, n), dtype=np.complex128)], []
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
            coeffs += [mult * s / 2.0] * 2
            unitaries.append(u)
            stages += [f"quadrant-{tag}"] * 2
    count = len(coeffs)
    dilations = _Terms(np.array(coeffs, dtype=np.complex128), np.concatenate(unitaries),
                       (Provenance.DILATION,) * count, tuple(stages),
                       np.zeros(count, dtype=np.intp))
    raw = _cat(n, [dilations, _zero_piece_raw(remainder[None], quads)])
    spec = TypeISubalgebraSpec.masa(n)
    return _assemble(spec, x[None], raw, 8 + 8 * 4 * 3,
                     [148.0 * max(1.0, operator_norm(x))])[0]


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
