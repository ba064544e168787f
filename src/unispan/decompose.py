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

:func:`type_one_stack` is the one entry point for every supported spec,
and :func:`type_one_decomp` is its stack of one: it decomposes inside each
atom, completes those terms across the other atoms, and carries the
cross-atom part on block permutations.

Each construction stage makes one round of kernel calls for all of its
matrices: the real and imaginary self-adjoint parts of every matrix go
through one norm call and one defect-root call, the even atoms of one
``(k, m)`` are decomposed as one stack, in the groups of ``E_A``, and the
balanced block of the scalar case is split together with its cross blocks.

:func:`verify_decomposition` is the independent check; it recomputes the
sum directly and shares nothing with the construction beyond the numeric
kernels.
"""

import itertools
import operator
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache
from typing import NamedTuple, Optional, Tuple

import numpy as np

from . import algebra
from .algebra import TypeISubalgebraSpec
from .errors import (
    DimensionMismatch,
    NotDivisibleBy4,
    NotInComplement,
    NotTraceZero,
)
from .linalg import (
    adjoint,
    as_matrix,
    as_stack,
    finite,
    hs_norm,
    normalized_trace,
    operator_norm,
    singular_values,
    sqrt_defect,
    unitarity_residual,
)

RECON_TOL = 1e-9
TERM_TOL = RECON_TOL / 10
MERGE_TOL = 1e-12
FAST_PATH_TOL = 1e-12

# the most complex entries (512 KiB) of one block of a pass over the term
# pool that does not itself make the result: the verifier's residuals and
# the merge's pairwise comparisons
_BLOCK = 2**15

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
class DecompositionStack:
    """The decompositions of a stack of ``B`` targets, held as one term pool.

    ``coeffs (T,)`` and ``unitaries (T, n, n)`` hold every target's terms,
    target by target: target ``i`` owns terms ``offsets[i]`` to
    ``offsets[i + 1]``.  ``provenance`` and ``stages`` are parallel tuples
    over the pool, ``targets`` has shape ``(B, n, n)``, and ``term_budget``
    and ``coeff_budgets`` (one per target) carry the static bounds of the
    construction (``None`` for hand-assembled instances).

    It is a sequence of :class:`Decomposition`: ``len``, iteration,
    unpacking and integer indices (negative ones too) work, and
    ``stack[i]`` is target ``i``'s :class:`Decomposition`, constructed from
    slices of the pool, so it holds views into the pool, not copies.  A
    slice raises :class:`TypeError`.  A :class:`Decomposition` is itself
    the stack of its one target.

    The arrays are read-only views of the ones given, made by
    :func:`_read_only`: a C-contiguous complex128 array is shared, not
    copied, and any other input is converted into a new array.
    """

    spec: Optional[TypeISubalgebraSpec]
    targets: np.ndarray
    coeffs: np.ndarray
    unitaries: np.ndarray
    offsets: Tuple[int, ...]
    provenance: Tuple[Provenance, ...]
    stages: Tuple[str, ...]
    term_budget: Optional[int]
    coeff_budgets: Tuple[Optional[float], ...]

    def __post_init__(self):
        for name in ("targets", "coeffs", "unitaries"):
            object.__setattr__(self, name, _read_only(getattr(self, name)))
        for name in ("offsets", "provenance", "stages", "coeff_budgets"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        count = len(self.coeffs)
        if (self.targets.ndim != 3 or self.coeffs.ndim != 1 or self.unitaries.ndim != 3
                or len(self.unitaries) != count or len(self.provenance) != count
                or len(self.stages) != count or len(self.offsets) != len(self.targets) + 1
                or len(self.coeff_budgets) != len(self.targets)
                or self.offsets[0] != 0 or self.offsets[-1] != count):
            raise DimensionMismatch("term pool, offsets and targets differ in length")

    def __len__(self) -> int:
        return len(self.targets)

    def __getitem__(self, i: int) -> "Decomposition":
        i = range(len(self))[operator.index(i)]
        lo, hi = self.offsets[i], self.offsets[i + 1]
        return Decomposition(
            self.spec, self.targets[i], self.coeffs[lo:hi], self.unitaries[lo:hi],
            self.provenance[lo:hi], self.stages[lo:hi], self.term_budget, self.coeff_budgets[i])


class Decomposition(DecompositionStack):
    """An ordered list of unitary terms summing to ``target``: the
    :class:`DecompositionStack` of one target, with offsets ``(0, T)``.

    ``target`` is ``targets[0]`` and ``coeff_budget`` is
    ``coeff_budgets[0]``; ``terms`` is the term list as
    :class:`UnitaryTerm` views.  A target that is not one matrix raises
    :class:`DimensionMismatch`.
    """

    def __init__(self, spec, target, coeffs, unitaries, provenance, stages,
                 term_budget=None, coeff_budget=None):
        super().__init__(spec, np.asarray(target)[None], coeffs, unitaries, (0, len(coeffs)),
                         provenance, stages, term_budget, (coeff_budget,))

    @property
    def target(self) -> np.ndarray:
        return self.targets[0]

    @property
    def coeff_budget(self) -> Optional[float]:
        return self.coeff_budgets[0]

    @cached_property
    def terms(self) -> Tuple[UnitaryTerm, ...]:
        return tuple(map(UnitaryTerm, self.coeffs.tolist(), self.unitaries,
                         self.provenance, self.stages))

    def reconstruction(self) -> np.ndarray:
        return _reconstructions(self.coeffs, self.unitaries, self.offsets)[0]

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


def _read_only(a) -> np.ndarray:
    """A read-only view of ``a`` as a C-contiguous complex128 array: ``a``
    itself is shared when it already is one, else converted into a new
    array."""
    a = np.asarray(a, dtype=np.complex128, order="C").view()
    a.setflags(write=False)
    return a


class _Terms(NamedTuple):
    """Raw terms of a stack of entries as parallel stacks: ``coeffs (T,)``,
    ``unitaries (T, n, n)``, the ``(provenance, stage)`` labels and ``owner
    (T,)``, the index of the entry that made each term, in ascending order."""

    coeffs: np.ndarray
    unitaries: np.ndarray
    labels: tuple
    owner: np.ndarray


def _cat(n, parts) -> _Terms:
    """Concatenate term stacks of ``n x n`` unitaries, sorted stably by
    owner: each owner's terms come out in part order, each part's in its
    own order.  The stacks are allocated once and each part is scattered
    into its sorted slots, so the unitaries are written once, with no
    concatenated copy to gather from.  A single nonempty part is returned
    as it is; no parts give the empty stack."""
    parts = [p for p in parts if len(p.coeffs)]
    if len(parts) == 1:
        return parts[0]
    owner = np.concatenate([np.empty(0, dtype=np.intp)] + [p.owner for p in parts])
    order = np.argsort(owner, kind="stable")
    slots = np.empty_like(order)
    slots[order] = np.arange(len(order))  # the sorted slot of each concatenated term
    coeffs = np.empty(len(order), dtype=np.complex128)
    unitaries = np.empty((len(order), n, n), dtype=np.complex128)
    lo = 0
    for p in parts:
        at = slots[lo : lo + len(p.coeffs)]
        coeffs[at] = p.coeffs
        unitaries[at] = p.unitaries
        lo += len(p.coeffs)
    labels = sum((p.labels for p in parts), ())
    return _Terms(coeffs, unitaries, tuple(labels[i] for i in order.tolist()), owner[order])


@lru_cache(maxsize=32)
def _merge_key_weights(size: int) -> np.ndarray:
    """The merge's key weights for rows of ``size`` complex entries, as a
    read-only ``(2 size, 2)`` pair over ``complex128.view(float64)`` rows:
    column 0 holds fixed seeded weights ``w`` in ``[1, 2)`` for the real
    and imaginary parts of each entry, interleaved like the view, and
    column 1 the weights ``w'`` with ``v @ w' == (-1j * v) @ w``, that is
    ``-w_imag`` on each real part and ``w_real`` on each imaginary part."""
    w = np.random.default_rng(0x6D657267).uniform(1.0, 2.0, 2 * size)
    pair = np.empty((2 * size, 2))
    pair[:, 0] = w
    pair[0::2, 1] = -w[1::2]
    pair[1::2, 1] = w[0::2]
    pair.setflags(write=False)
    return pair


def _owner_max(values, own):
    """The largest of ``values`` over each owner, at every position;
    ``own`` is ascending and not empty."""
    new = np.r_[True, own[1:] != own[:-1]]
    return np.maximum.reduceat(values, np.flatnonzero(new))[np.cumsum(new) - 1]


def _near_pairs(rows, step):
    """Whether each pair of the canonical rows ``rows`` is within
    ``MERGE_TOL`` in every entry, as nested lists; ``step`` rows at a time,
    so no difference stack holds more than ``step * len(rows)`` rows."""
    return np.concatenate([np.max(np.abs(rows[i : i + step, None] - rows), axis=2) <= MERGE_TOL
                           for i in range(0, len(rows), step)]).tolist()


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
    term is ``c @ w``, a weighted sum of the real and imaginary parts of
    its phase-canonical row ``c = u * conj(p)``, ``p`` its phase, with
    fixed weights ``w`` in ``[1, 2)``.  It is computed without forming
    ``c``, as ``Re(p) (u @ w) + Im(p) (u @ w')`` with ``w'`` the weights of
    ``-1j * u`` (:func:`_merge_key_weights`): one matmul of the pool
    against the weight pair.  Two rows within ``MERGE_TOL`` in every entry
    have exact keys less than ``4 n**2 MERGE_TOL`` apart.  Rounding moves a
    computed key, and a computed ``c @ w`` too, at most
    ``8 (n**2 + 2) 2**-53 L`` from the exact ``c @ w`` of the computed row
    ``c``, where ``L`` is the sum of the moduli of the ``2 n**2`` real and
    imaginary parts of ``u``, at most ``sqrt(2) n**1.5`` for a unitary
    (Higham's bound ``gamma_k`` for a dot product of length ``k = 2 n**2``
    with weights below 2, and ``gamma_2`` for the products by the phase).
    The window
    ``8 n**2 MERGE_TOL + 1e-12 max|k|``, with the owner's ``max|k|``,
    leaves ``4 n**2 MERGE_TOL`` for the rounding of two keys, which covers
    it for unitaries up to ``n = 128``.  Sorted by ``(owner, key)``, the
    terms fall into runs of consecutive keys of one owner inside the
    window, and no cluster spans two runs: two keys inside one window have
    every sorted gap between them inside it too, and a rounded difference
    keeps that order.  A term alone in its run is its own cluster, a run of
    two is decided by one comparison of its two rows, and a longer run by
    one comparison of all pairs of its rows (:func:`_near_pairs`, in chunks
    of at most ``_BLOCK`` entries, or of one row against the run where that
    is more), from which each term, in term order, joins the earliest
    cluster it is near.  Canonical rows are formed only for the terms of
    the runs of two or more.  (Keys of the moduli ``|u_j|`` would not
    separate a ``(+v, -v)`` padding pair, whose members have equal moduli.)
    """
    count, n, _ = unitaries.shape
    flat = unitaries.reshape(count, n * n)
    mags = np.abs(flat)
    peaks = mags.max(axis=1, initial=0.0)
    live = np.flatnonzero(peaks)  # the terms that are not zero unitaries
    if not live.size:
        return coeffs[live], live
    lead = flat[live, np.argmax(mags >= 0.5 * peaks[:, None], axis=1)[live]]
    # np.hypot rounds like the scalar abs(), so every phase and canonical
    # row is bit-identical to the one a term-by-term loop computes
    phases = lead / np.hypot(lead.real, lead.imag)
    sums = (flat.view(np.float64) @ _merge_key_weights(n * n))[live]
    keys = phases.real * sums[:, 0] + phases.imag * sums[:, 1]
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
        rows = flat[live[pair]]
        rows *= np.conj(phases[pair])[..., None]  # the pairs' canonical rows, in place
        rows[:, 1] -= rows[:, 0]
        same = np.max(np.abs(rows[:, 1]), axis=1) <= MERGE_TOL
        head[pair[same, 1]] = pair[same, 0]
        for start, size in zip(starts[sizes > 2].tolist(), sizes[sizes > 2].tolist()):
            members = np.sort(order[start : start + size])
            rows = flat[live[members]] * np.conj(phases[members])[:, None]
            near = _near_pairs(rows, max(1, _BLOCK // (size * n * n)))
            clusters, picks = [], []  # the run's cluster heads, each term's head
            for i, row in enumerate(near):
                picks.append(next((c for c in clusters if row[c]), i))
                if picks[-1] == i:
                    clusters.append(i)
            head[members] = members[picks]
        first = head == np.arange(len(live))
        joined = np.flatnonzero(~first)
        # each member folds into its head in place; the fold stays in NumPy
        # scalar arithmetic, in term order, because the array complex
        # product rounds differently from the scalar one
        for pos, h in zip(joined.tolist(), head[joined].tolist()):
            summed[h] += summed[pos] * phases[pos] / phases[h]
        live, summed, own = live[first], summed[first], own[first]
    mags = np.hypot(summed.real, summed.imag)
    big = mags > 1e-15 * _owner_max(mags, own)
    return summed[big], live[big]


def _assemble(spec, targets, raw, term_budget, coeff_budgets):
    """The merged :class:`DecompositionStack` of the targets ``targets``,
    from one merge of the raw terms ``raw`` of all of them;
    ``coeff_budgets`` holds each target's coefficient budget."""
    coeffs, kept = _merge_raw(raw.coeffs, raw.unitaries, raw.owner)
    # nothing merged or dropped: no copy of the unitaries
    unitaries = raw.unitaries if len(kept) == len(raw.coeffs) else raw.unitaries[kept]
    provenance, stages = zip(*[raw.labels[i] for i in kept.tolist()]) if len(kept) else ((), ())
    offsets = np.searchsorted(raw.owner[kept], np.arange(len(targets) + 1))
    # a copy, so no result shares memory with the caller's targets
    targets = np.array(targets, dtype=np.complex128)
    return DecompositionStack(spec, targets, coeffs, unitaries, tuple(offsets.tolist()),
                              provenance, stages, term_budget, tuple(coeff_budgets))


def _padded_pairs(entry, n, target, pad, labels):
    """Turn each entry term ``(c, w)`` of the stack ``entry`` into two
    ``n x n`` terms of coefficient ``c/2``: zero but for ``sign * block`` at
    ``index`` of the pad ``(index, block)`` and ``w`` at ``target``, with
    signs ``+1`` and ``-1`` so the pads cancel.  An index addresses the
    ``(T, n, n)`` stack of one sign: led by a slice it places the same
    block(s) in every term, led by an index array over the terms one set per
    term.  The target is written after the pad, so a pad may cover the
    target block: the target replaces it there.  ``labels`` holds each entry
    term's label.  Every ``(+v, -v)`` padding pair is built here, all pairs
    of one call in one ``(2T, n, n)`` stack with one assignment per sign for
    the pads and one for the targets."""
    signs = (1.0, 1.0) if _FAULT_INJECTION else (1.0, -1.0)
    count = len(entry.coeffs)
    index, block = pad
    u = np.zeros((count, 2, n, n), dtype=np.complex128)
    for i, sign in enumerate(signs):
        u[:, i][index] = sign * block
        u[:, i][target] = entry.unitaries
    return _Terms(np.repeat(entry.coeffs / 2.0, 2), u.reshape(2 * count, n, n),
                  tuple(lab for lab in labels for _ in signs), np.repeat(entry.owner, 2))


# ---------------------------------------------------------------------------
# elementary splits


def _two_unitary_raw(y, owner, labels):
    """The pair ``(1/2, u), (1/2, u*)`` with ``u = y + i*sqrt(1 - y**2)``
    for each self-adjoint contraction of the stack ``y``, in one
    :func:`sqrt_defect` call; ``labels`` holds each matrix's label."""
    count, g, _ = y.shape
    u = y + 1j * sqrt_defect(y)
    return _Terms(np.full(2 * count, 0.5, dtype=np.complex128),
                  np.stack((u, adjoint(u)), axis=1).reshape(2 * count, g, g),
                  tuple(lab for lab in labels for _ in range(2)), np.repeat(owner, 2))


# the multiplier and stage tag of self-adjoint part ``j``: even parts are
# real, odd ones imaginary
_PART_MULTS = np.array([1.0, 1.0j])
_PART_TAGS = ("real", "imag")


def _selfadjoint_parts(z):
    """The self-adjoint parts of each matrix ``z_i = h_i + i*k_i`` of the
    stack ``z``, interleaved as one stack ``(h_0, k_0, h_1, k_1, ...)``, so
    part ``j`` belongs to matrix ``j // 2`` and has the multiplier
    ``_PART_MULTS[j % 2]``.  Each split stage sends the whole stack to each
    kernel once, and the interleaving keeps the owner order, so every
    owner's real terms come before its imaginary ones."""
    zc = adjoint(z)
    return np.stack(((z + zc) / 2.0, (z - zc) / 2.0j), axis=1).reshape((-1,) + z.shape[-2:])


def _part_labels(prov, prefix, parts):
    """The label ``(prov, prefix-real)`` or ``(prov, prefix-imag)`` of each
    self-adjoint part index of ``parts``."""
    return tuple((prov, f"{prefix}-{_PART_TAGS[j]}") for j in (parts % 2).tolist())


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
    matrices.  Zero matrices are in neither.  The unitarity test is read off
    the singular values ``sigma_i`` of one SVD call, ``s = sigma_0``: the
    eigenvalues of ``(x/s)* (x/s) - 1`` are ``(sigma_i/s)**2 - 1``, so
    ``||(x/s)* (x/s) - 1||_2 = sqrt(sum_i ((sigma_i/s)**2 - 1)**2 / g)``
    with no product of matrices, and only the multiples are divided."""
    live = np.flatnonzero(np.any(x, axis=(1, 2)))
    sv = singular_values(x[live])
    s = sv[:, 0]
    ratios = sv / s[:, None]
    # subnormal singular values keep only a few bits; those of the exactly
    # scaled 2**600 x keep them all, as in _divide_by_norm
    tiny = np.flatnonzero(s < np.finfo(np.float64).tiny)
    if tiny.size:
        ratios[tiny] = singular_values(x[live[tiny]] * 2.0**600) / (s[tiny, None] * 2.0**600)
    dev = np.square(ratios) - 1.0
    fast = np.sqrt(np.add.reduce(dev * dev, axis=1) / x.shape[-1]) <= FAST_PATH_TOL
    cand = _divide_by_norm(x[live[fast]], s[fast])
    if trace_free:
        t = normalized_trace(cand)
        free = np.hypot(t.real, t.imag) <= FAST_PATH_TOL
        fast[fast] = free
        cand = cand[free]
    count = len(cand)
    multiples = _Terms(s[fast].astype(np.complex128), cand,
                       ((Provenance.FOUR_UNITARY, "unitary-multiple"),) * count, live[fast])
    return multiples, live[~fast]


def _four_unitary_raw(x):
    """At most four unitary terms for each matrix of the stack ``x``: both
    self-adjoint parts of every matrix that is no unitary multiple go
    through one norm and one two-unitary call."""
    multiples, slow = _unitary_multiples(x)
    if not slow.size:
        return multiples
    parts = _selfadjoint_parts(x[slow])
    sp = operator_norm(parts)
    live = np.flatnonzero(sp)
    two = _two_unitary_raw(_divide_by_norm(parts[live], sp[live]), slow[live // 2],
                           _part_labels(Provenance.FOUR_UNITARY, "selfadjoint-split", live))
    scale = _PART_MULTS[live % 2] * sp[live]
    return _cat(x.shape[-1], [multiples, two._replace(coeffs=np.repeat(scale, 2) * two.coeffs)])


def four_unitary(x) -> Decomposition:
    """Write an arbitrary matrix as a combination of at most 4 unitaries.

    Splits into self-adjoint real/imaginary parts, rescales each into the
    unit ball and applies the two-unitary completion; the coefficient sum
    is at most twice the operator norm.  Unitary multiples short-circuit to
    a single term, the zero matrix to an empty list.  Raises
    :class:`UnispanError` on a non-finite entry.
    """
    x = finite(as_matrix(x))
    raw = _four_unitary_raw(x[None])
    return _assemble(None, x[None], raw, 4, [2.0 * operator_norm(x)])[0]


def canonical_trace_zero_unitary(d: int) -> np.ndarray:
    """The trace-zero unitary ``diag(1, -1, ...)`` of even ``d >= 2``; the
    complex powers fix the signs of its zero imaginary parts."""
    return np.diag(np.array([(-1.0 + 0j) ** j for j in range(d)]))


# ---------------------------------------------------------------------------
# block permutations (cross blocks and entry moves)


def _derangement(count: int, alpha: int, beta: int) -> np.ndarray:
    """The lexicographically smallest fixed-point-free permutation of
    ``count >= 2`` pieces with ``sigma(alpha) = beta``, as an index array;
    :func:`_block_table` caches every table of them.

    Greedy with one repair swap: every slot but ``alpha``, in order, takes
    the smallest free value other than itself, and a last slot left holding
    only itself swaps values with the slot before.
    """
    sigma = np.empty(count, dtype=np.intp)
    sigma[alpha] = beta
    free = [v for v in range(count) if v != beta]
    slots = [p for p in range(count) if p != alpha]
    for pos in slots:  # ``free`` is ascending: skip its head if that is ``pos``
        sigma[pos] = free.pop(int(free[0] == pos and len(free) > 1))
    last = slots[-1]
    if sigma[last] == last:
        before = slots[-2]
        sigma[before], sigma[last] = last, sigma[before]
    return sigma


def _entry_move(k: int, s: int, t: int) -> np.ndarray:
    """The permutation ``tau(0,t) tau(0,s)`` of ``k`` slots, where
    ``tau(0,j)`` swaps slots ``0`` and ``j``: it maps ``s`` to ``t``."""
    tau_s, tau_t = np.arange(k), np.arange(k)
    tau_s[[0, s]], tau_t[[0, t]] = (s, 0), (t, 0)
    return tau_t[tau_s]


@lru_cache(maxsize=32)
def _block_table(permutation, count: int, prov: Provenance, stage: str):
    """The block permutation ``permutation(count, alpha, beta)`` and label
    ``(prov, stage.format(alpha, beta, alpha + 1, beta + 1))`` of every block
    ``(alpha, beta)`` of ``count`` pieces, as read-only ``(count, count,
    count)`` index and ``(count, count)`` label arrays, made once per
    argument tuple.  A diagonal block holds the identity, which is
    :func:`_entry_move`'s permutation there; a derangement has none."""
    sigma = np.empty((count, count, count), dtype=np.intp)
    sigma[:] = np.arange(count)
    labels = np.empty((count, count), dtype=object)
    for alpha, beta in itertools.product(range(count), repeat=2):
        if alpha != beta:
            sigma[alpha, beta] = permutation(count, alpha, beta)
        labels[alpha, beta] = (prov, stage.format(alpha, beta, alpha + 1, beta + 1))
    sigma.setflags(write=False)
    labels.setflags(write=False)
    return sigma, labels


def _grid_blocks(x, rows):
    """The nonzero blocks of each matrix of the stack ``x`` over the
    disjoint, equal-size pieces of the ``(count, g)`` index rows ``rows``,
    as one stack, and their cells ``(owner, alpha, beta)``: the matrix and
    the block row and column of each, row-major, like a loop per target."""
    # index pairs (rows[a][:, None], rows[b][None, :]) address block (a, b),
    # and stacked ones address one block per row of a piece list
    blocks = x[:, rows[:, None, :, None], rows[None, :, None, :]]  # (B, count, count, g, g)
    cells = np.nonzero(np.any(blocks, axis=(3, 4)))
    return blocks[cells], cells


def _block_grid_raw(n, rows, cells, entry, permutation, pad, prov, stage):
    """Block-permutation terms of ``n x n`` unitaries over the pieces of the
    ``(count, g)`` index rows ``rows``, for the blocks ``cells`` of
    :func:`_grid_blocks`, from their split ``entry``, whose owners index
    ``cells``.  The caller splits the blocks, so it can split them together
    with other ``g x g`` matrices in one call.

    Each unitary of block ``(alpha, beta)`` is carried to block
    ``(alpha, beta)`` of the block permutation ``sigma =
    permutation(count, alpha, beta)``, ``sigma[alpha] = beta``.  The pad
    covers every block ``(q, sigma[q])``, ``q = alpha`` included, with the
    ``g x g`` unitary ``pad``, in a ``(+v, -v)`` pair; the target, written
    after the pad, replaces it at block ``(alpha, beta)``, so the pair
    cancels everywhere but there.  The block's terms are owned by the
    matrix of their block; ``sigma`` and their label, from ``prov`` and
    ``stage``, come from :func:`_block_table`."""
    owner, alpha, beta = cells
    cell = entry.owner  # the block each term splits
    alpha, beta = alpha[cell], beta[cell]
    sigma, labels = _block_table(permutation, len(rows), prov, stage)
    terms = np.arange(len(cell))[:, None, None]
    target = (terms, rows[alpha, :, None], rows[beta, None, :])
    at = (terms[..., None], rows[:, :, None], rows[sigma[alpha, beta]][:, :, None, :])
    return _padded_pairs(entry._replace(owner=owner[cell]), n, target, (at, pad),
                         labels[alpha, beta].tolist())


def _zero_piece_raw(x, rows):
    """The block grid of the cross blocks of each matrix of the stack ``x``,
    whose piece-diagonal blocks over the ``(count, g)`` rows ``rows``
    (``count >= 2``) must be zero: :func:`_four_unitary_raw` splits, on
    :func:`_derangement` with identity pads, so every unitary has zero
    piece-diagonal.  ``p`` pieces cost at most ``8p(p-1)`` terms and
    ``2||x|| p(p-1)`` coefficient mass per matrix; :func:`_type_one_budgets`
    holds that bound."""
    blocks, cells = _grid_blocks(x, rows)
    return _cross_block_raw(x.shape[-1], rows, cells, _four_unitary_raw(blocks))


def _cross_block_raw(n, rows, cells, entry):
    """:func:`_zero_piece_raw`'s placement of the split ``entry`` of the
    cross blocks ``cells``."""
    return _block_grid_raw(n, rows, cells, entry, _derangement,
                           np.eye(rows.shape[1], dtype=np.complex128), Provenance.ZERO_DIAG,
                           "cross-block({0},{1})")


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
    g = y.shape[-1]
    u1, u2, u3 = np.zeros((3,) + y.shape[:-2] + (2 * g, 2 * g), dtype=np.complex128)
    u1[..., :g, :g] = u1[..., g:, g:] = u2[..., :g, :g] = y
    u1[..., :g, g:] = u2[..., :g, g:] = u3[..., :g, g:] = r
    u1[..., g:, :g] = -r
    u2[..., g:, :g] = r
    u2[..., g:, g:] = -y
    return u1, u2, u3


def _scalar_case_raw(x):
    # m is even: each matrix of x is a multiplicity block of an atom
    # validate_spec accepted
    m = x.shape[-1]
    t = normalized_trace(x)  # np.hypot, not np.abs: it rounds like the scalar abs()
    if np.any(np.hypot(t.real, t.imag) > 1e-9 * np.maximum(1.0, hs_norm(x))):
        raise NotTraceZero("input trace is not zero within tolerance")
    multiples, slow = _unitary_multiples(x, trace_free=True)
    parts = [multiples]
    y = x[slow]
    g = m // 2
    # the dilations of both self-adjoint parts of every corner sum, in one
    # round of kernel calls
    corners = _selfadjoint_parts(y[:, :g, :g] + y[:, g:, g:])
    live = np.flatnonzero(np.any(corners, axis=(1, 2)))
    delta = np.zeros((len(slow), 2, g, g), dtype=np.complex128)
    if live.size:
        sp = np.maximum(1.0, operator_norm(corners[live]))
        u1, u2, u3 = selfadjoint_corner_dilation(corners[live] / sp[:, None, None])
        scale = _PART_MULTS[live % 2] * sp
        count = 2 * len(live)
        parts.append(_Terms(np.repeat(scale / 2.0, 2),
                            np.stack((u1, u2), axis=1).reshape(count, m, m),
                            _part_labels(Provenance.DILATION, "diag-dilation",
                                         np.repeat(live, 2)),
                            np.repeat(slow[live // 2], 2)))
        delta.reshape(-1, g, g)[live] = scale[:, None, None] * u3[:, :g, g:]
    # the real part's remainder first, then the imaginary part's
    corner = (0.0 - delta[:, 0]) - delta[:, 1]
    offdiag = np.zeros_like(y)
    offdiag[:, :g, g:] = y[:, :g, g:] + corner
    offdiag[:, g:, :g] = y[:, g:, :g]
    rows = np.arange(m).reshape(2, g)
    cross_blocks, cells = _grid_blocks(offdiag, rows)
    # the balanced blocks and the cross blocks are independent g x g
    # matrices: one split covers both, and the owners tell them apart
    split = _four_unitary_raw(np.concatenate((y[:, g:, g:], cross_blocks)))
    cut = int(np.searchsorted(split.owner, len(slow)))
    balanced = _Terms(*(f[:cut] for f in split))
    u = balanced.unitaries
    count = len(u)
    lifted = np.zeros((count, m, m), dtype=np.complex128)
    lifted[:, :g, :g] = -u
    lifted[:, g:, g:] = u
    label = (Provenance.FOUR_UNITARY, "balanced-pair")
    parts.append(_Terms(balanced.coeffs, lifted, (label,) * count, slow[balanced.owner]))
    entry = _Terms(*(f[cut:] for f in split))
    cross = _cross_block_raw(m, rows, cells, entry._replace(owner=entry.owner - len(slow)))
    parts.append(cross._replace(owner=slow[cross.owner]))
    return _cat(m, parts)


# ---------------------------------------------------------------------------
# the class-by-class complement decompositions


def _single_block_raw(k, m, x):
    """Factor-entrywise decomposition inside one atom ``M_k (x) C*1_m`` of
    each matrix of the stack ``x``: the block grid of every nonzero
    ``m x m`` entry of every matrix, split in one scalar-case call, on
    :func:`_entry_move` with trace-zero pads.  Zero entries are skipped."""
    if k == 1:
        return _scalar_case_raw(x)
    rows = np.arange(k * m).reshape(k, m)
    blocks, cells = _grid_blocks(x, rows)
    return _block_grid_raw(k * m, rows, cells, _scalar_case_raw(blocks), _entry_move,
                           canonical_trace_zero_unitary(m), Provenance.AMPLIFY,
                           "entry-move({2},{3})")


def _type_one_raw(plan: algebra.LayoutPlan, x):
    """The construction behind :func:`type_one_stack` for a stack ``x`` in
    standard position, with the atom groups, completion pads and gcd piece
    rows of the layout's plan.

    The even atoms of one ``(k, m)`` form one group, as in ``E_A``: one
    :func:`_single_block_raw` call decomposes every atom of the group in
    every target, and one :func:`_padded_pairs` call completes the group's
    terms, each with its atom's index rows, pad and label.  The parts are
    sorted by the composite owner ``target * (A + 1) + atom`` of the ``A``
    atoms, the cross part last, so each target's terms come atom by atom
    whatever the group order; the owner is divided back to the target at
    the end."""
    n = x.shape[-1]
    stride = len(plan.atoms) + 1
    targets = np.arange(len(x))[:, None]  # (B, 1): each target's row of owners
    parts = []
    cross = x.copy()
    for grp in plan.groups:
        cross[:, grp.rows, grp.cols] = 0.0
        if grp.m < 2:
            continue
        size = grp.k * grp.m
        atoms = x[:, grp.rows, grp.cols].reshape(-1, size, size)  # target by target
        atom_terms = _single_block_raw(grp.k, grp.m, atoms)
        member = atom_terms.owner % len(grp.members)  # the group member of each term
        owner = (stride * targets + grp.members).ravel()[atom_terms.owner]
        if grp.pads is None:  # a lone atom is the whole space: nothing to complete
            parts.append(atom_terms._replace(owner=owner))
            continue
        terms = np.arange(len(member))[:, None, None]
        target = (terms, grp.rows[member], grp.cols[member])
        labels = [(Provenance.ATOMIC, f"atom-completion({a.block},{a.atom})")
                  for a in map(plan.atoms.__getitem__, grp.members.tolist())]
        parts.append(_padded_pairs(atom_terms._replace(owner=owner), n, target,
                                   ((slice(None),), grp.pads[member]),
                                   [labels[i] for i in member.tolist()]))
    if np.any(cross):
        pieces = _zero_piece_raw(cross, plan.pieces)
        parts.append(pieces._replace(owner=stride * pieces.owner + stride - 1))
    raw = _cat(n, parts)
    return raw._replace(owner=raw.owner // stride)


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


def _check_complement(spec: TypeISubalgebraSpec, xs) -> None:
    """The entry check of the complement constructions on a stack ``(B, n, n)``:
    finite entries, ``spec`` supported and :func:`type_one_stack`'s gate."""
    finite(xs)
    algebra.validate_spec(spec)
    resid = algebra.membership_residual(spec, xs)
    # a NaN residual, from an overflow in E_A, fails too
    bad = np.flatnonzero(~(resid <= RECON_TOL * np.maximum(1.0, hs_norm(xs))))
    if bad.size:
        i = int(bad[0])
        text = f"conditional expectation has norm {resid[i]:.3e}; project the input first"
        raise NotInComplement(text if len(xs) == 1 else f"target {i}: {text}")


def type_one_stack(spec: TypeISubalgebraSpec, xs) -> DecompositionStack:
    """Decompose a stack ``(B, n, n)`` of complement elements against any
    supported type I spec; returns the :class:`DecompositionStack` of all
    their terms, whose item ``i`` is target ``i``'s :class:`Decomposition`.

    One path for every class (c1-c4): decompose inside each even atom,
    complete those terms across the other atoms in cancelling pairs (stage
    ``atom-completion(block,atom)``; a lone atom, as in c2, needs none) and
    carry the cross-atom part on block permutations over pieces of size
    ``gcd`` of the atom dimensions.  Every stage runs once over all blocks
    of all targets, and one merge keeps each target's terms apart, so each
    decomposition is bit-identical to that target's decomposed alone.
    A conjugation, when present, is applied at the boundary.  Raises
    :class:`NotInComplement`, naming the first such target of a longer
    stack, when ``||E_A(x)||_2 > RECON_TOL * max(1, ||x||_2)`` or is NaN,
    and :class:`UnispanError` on a non-finite entry.
    """
    xs = as_stack(xs)
    if xs.ndim != 3:
        raise DimensionMismatch(f"expected a stack of shape (B, n, n), got {xs.shape}")
    _check_complement(spec, xs)
    plan = algebra.layout_plan(spec.blocks)
    raw = _type_one_raw(plan, spec.to_standard(xs))
    raw = raw._replace(unitaries=spec.from_standard(raw.unitaries))
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
    produced unitary has zero matrix diagonal.  ``x`` takes
    :func:`type_one_stack`'s entry check against the masa before the
    :class:`NotDivisibleBy4` test, and the diagonal inside that gate is
    dropped; ``d.target`` and the budgets read ``x`` as given.
    """
    x = as_matrix(x)
    n = x.shape[0]
    spec = TypeISubalgebraSpec.masa(n)
    _check_complement(spec, x[None])
    if n % 4 != 0:
        raise NotDivisibleBy4(f"dimension {n} is not divisible by 4")
    q = n // 4
    quads = np.arange(n).reshape(4, q)
    diag_blocks = (quads[:, :, None], quads[:, None, :])  # the quadrant-diagonal blocks
    blocks = x[diag_blocks]
    blocks[:, range(q), range(q)] = 0.0  # drop the accepted diagonal
    remainder = x.copy()
    remainder[diag_blocks] = 0.0
    # Slot j's corner dilation sits at quadrant rows (j, 3 - j) x columns (j, j ^ 2);
    # the slots of a pair, (0, 1) or (2, 3), use complementary spares: it stays unitary.
    rows = quads[[[0, 3], [1, 2], [2, 1], [3, 0]]].reshape(4, 2 * q)
    cols = quads[[[0, 2], [1, 3], [2, 0], [3, 1]]].reshape(4, 2 * q)
    # unit 2 * pair + j holds self-adjoint part j of both slots of the pair,
    # so the units come pair by pair, the real part first
    units = _selfadjoint_parts(blocks).reshape(2, 2, 2, q, q).swapaxes(1, 2).reshape(4, 2, q, q)
    live = np.flatnonzero(np.any(units, axis=(1, 2, 3)))
    slots = (2 * (live // 2)[:, None] + np.arange(2)).ravel()  # both slots of each live unit
    parts = units[live].reshape(-1, q, q)
    delta = np.zeros((2, 4, q, q), dtype=np.complex128)  # (part, slot) corner remainders
    s = np.maximum(1.0, operator_norm(parts).reshape(-1, 2).max(axis=1))
    u1, u2, u3 = selfadjoint_corner_dilation(parts / np.repeat(s, 2)[:, None, None])
    # u[unit, kind] holds dilation ``kind`` of both slots of the unit
    u = np.zeros((len(live), 2, n, n), dtype=np.complex128)
    at = (np.arange(len(live))[:, None, None, None, None], np.arange(2)[:, None, None],
          rows[slots].reshape(-1, 2, 1, 2 * q, 1), cols[slots].reshape(-1, 2, 1, 1, 2 * q))
    u[at] = np.stack((u1, u2), axis=1).reshape(-1, 2, 2, 2 * q, 2 * q)
    scale = np.repeat(_PART_MULTS[live % 2] * s, 2)  # one per slot of each unit
    delta[np.repeat(live % 2, 2), slots] = scale[:, None, None] * u3[:, :q, q:]
    count = 2 * len(live)  # two terms of coefficient mult * s / 2 per unit
    dilations = _Terms(scale / 2.0, u.reshape(count, n, n),
                       _part_labels(Provenance.DILATION, "quadrant", np.repeat(live, 2)),
                       np.zeros(count, dtype=np.intp))
    # the real parts' corner remainders first, then the imaginary parts'
    corners = (rows[:, :q, None], cols[:, None, q:])
    remainder[corners] = (remainder[corners] - delta[0]) - delta[1]
    raw = _cat(n, [dilations, _zero_piece_raw(remainder[None], quads)])
    # Budgets: 8 dilation terms plus 8p(p-1) = 96 cross terms at p = 4.
    # Coefficient mass: at most 4 max(1, ||x||) from the dilations plus
    # 2p(p-1) ||rem|| = 24 ||rem|| from the cross blocks, where
    # ||rem|| <= 2 ||x|| + 2 max(1, ||x||) because the corner blocks form a
    # block permutation; so at most 100 max(1, ||x||), which 148 covers.
    return _assemble(spec, x[None], raw, 104, [148.0 * max(1.0, operator_norm(x))])[0]


# ---------------------------------------------------------------------------
# independent verification


def _reconstructions(coeffs, us, offsets) -> np.ndarray:
    """Each target's sum of its terms' products, one ``np.sum(..., axis=0)``
    per target, stacked.  The products are formed for runs of whole
    targets, each run at most ``_BLOCK`` entries or a single target, so no
    temporary holds the products of the whole pool.  A product or sum that
    overflows gives ``inf`` or ``nan`` without a warning: the caller's
    residual rejects it."""
    bounds = np.asarray(offsets)
    cap = max(1, _BLOCK // us.shape[-1] ** 2)  # the terms of one block
    sums, first = [], 0
    with np.errstate(over="ignore", invalid="ignore"):
        while first < len(offsets) - 1:
            # the targets first..last - 1 of the run: as many as one block
            # holds, one at least
            last = max(first + 1, int(np.searchsorted(bounds, offsets[first] + cap, "right")) - 1)
            base = offsets[first]
            products = coeffs[base : offsets[last], None, None] * us[base : offsets[last]]
            sums += [np.sum(products[lo - base : hi - base], axis=0)
                     for lo, hi in zip(offsets[first:last], offsets[first + 1 : last + 1])]
            first = last
    return np.array(sums, dtype=np.complex128)


def verify_decomposition(spec, x, d) -> VerificationReport:
    """Recompute the sum and all residuals of a decomposition from scratch.

    ``x`` is a stack ``(B, n, n)`` of targets with their
    :class:`DecompositionStack` ``d``, or one target ``(n, n)`` with its
    :class:`Decomposition`, the stack of one; ``d`` is read in place,
    through its ``coeffs``, ``unitaries`` and ``offsets``.  The report holds
    the largest reconstruction residual over the targets, the largest
    unitarity and membership residuals over all terms, the total term count
    and the largest coefficient sum.  Each target's reconstruction is one
    ``np.sum(..., axis=0)`` over its terms' products.  The unitarity and
    membership residuals are computed block by block, each block at most
    ``_BLOCK`` entries (or one matrix where that is more), and a
    NaN-propagating running max over the block maxima gives each, so no
    temporary holds more than a block of the pool.  Shares only the numeric
    kernels with the constructions; membership is checked through the
    conditional expectation.
    """
    x = as_stack(x)
    if x.ndim == 2:
        x = x[None]
    coeffs, us, offsets = d.coeffs, d.unitaries, d.offsets
    if x.ndim != 3 or len(offsets) != len(x) + 1:
        raise DimensionMismatch(f"{len(offsets) - 1} term lists for targets of shape {x.shape}")
    if us.shape[1:] != x.shape[1:]:
        raise DimensionMismatch("term dimension differs from the target")
    recon = _reconstructions(coeffs, us, offsets).reshape(x.shape)
    recon_residual = float(np.max(hs_norm(recon - x), initial=0.0))
    unitarity = member = 0.0
    step = max(1, _BLOCK // us.shape[-1] ** 2)  # the matrices of one block
    # as in _reconstructions, an overflow is a residual the gate rejects
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, len(us), step):
            b = us[lo : lo + step]
            # np.maximum propagates a NaN from any block
            unitarity = np.maximum(unitarity, unitarity_residual(b).max())
            if spec is not None:
                member = np.maximum(member, algebra.membership_residual(spec, b).max())
    moduli = list(map(abs, coeffs.tolist()))
    return VerificationReport(
        recon_residual=recon_residual,
        max_unitarity_residual=float(unitarity),
        max_membership_residual=float(member),
        term_count=len(us),
        coeff_sum=max((float(sum(moduli[lo:hi])) for lo, hi in zip(offsets, offsets[1:])),
                      default=0.0),
    )
