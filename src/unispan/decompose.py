"""Constructive decompositions of complement elements into unitaries.

Given ``x`` in the orthogonal complement of a supported type I subalgebra,
the routines here produce an explicit finite list of terms
``(lambda_t, u_t)`` with ``x = sum_t lambda_t u_t`` where every ``u_t`` is
unitary and itself lies in the complement.  The constructions are exact
block formulas: self-adjoint contractions are completed to unitaries with a
defect square root, off-diagonal blocks ride on generalized permutations
with a fixed-point-free block pattern, and padding always comes in
``(+v, -v)`` pairs so it cancels in the reconstruction without ever leaving
the complement.

:func:`type_one_decomp` is the one entry point for every supported spec:
it decomposes inside each atom, completes those terms across the other
atoms, and carries the cross-atom part on block permutations.

:func:`verify_decomposition` is the independent check; it recomputes the
sum directly and shares nothing with the construction beyond the numeric
kernels.
"""

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Tuple

import numpy as np

from . import algebra
from .algebra import ClassKind, SpecClass, TypeISubalgebraSpec, atom_layouts
from .errors import (
    BadPosition,
    DiagonalNotZero,
    DimensionMismatch,
    NotDivisibleBy4,
    NotInComplement,
    NotTraceZero,
    OddDimension,
    PaddingNotUnitary,
    PieceDiagonalNotZero,
    SinglePiece,
    UnispanError,
    UnsupportedConfiguration,
)
from .linalg import (
    as_matrix,
    hs_norm,
    normalized_trace,
    operator_norm,
    sqrt_defect,
    unitarity_residual,
)

TERM_TOL = 1e-10
RECON_TOL = 1e-9
MERGE_TOL = 1e-12
FAST_PATH_TOL = 1e-12

GENERAL = "general"
TRACE_ZERO = "trace_zero"

_FAULT_INJECTION = False


def set_fault_injection(enabled: bool) -> None:
    """Break the cancellation sign of the block-permutation pairs.

    Mutation hook for testing the test suites: with the fault active the
    padding no longer cancels, so reconstructions (and complement
    membership) must fail visibly.
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
    """An ordered list of unitary terms summing to ``target``.

    ``term_budget`` and ``coeff_budget`` carry the statically computed
    bounds of the construction that produced the terms (``None`` for
    hand-assembled instances).
    """

    spec: Optional[TypeISubalgebraSpec]
    target: np.ndarray
    terms: Tuple[UnitaryTerm, ...]
    term_budget: Optional[int] = None
    coeff_budget: Optional[float] = None

    def reconstruction(self) -> np.ndarray:
        out = np.zeros_like(self.target)
        for t in self.terms:
            out = out + t.coeff * t.unitary
        return out

    @property
    def coeff_sum(self) -> float:
        return float(sum(abs(t.coeff) for t in self.terms))


@dataclass(frozen=True)
class VerificationReport:
    recon_residual: float
    max_unitarity_residual: float
    max_membership_residual: float
    term_count: int
    coeff_sum: float


# ---------------------------------------------------------------------------
# term-list plumbing


def _freeze(m: np.ndarray) -> np.ndarray:
    m = np.ascontiguousarray(m, dtype=np.complex128)
    m.setflags(write=False)
    return m


def _phase_canonical(u):
    """Split ``u = phase * uc`` with the phase pinned at the first entry of
    dominant modulus, so matrices equal up to a scalar phase share ``uc``."""
    flat = u.ravel()
    mags = np.abs(flat)
    mx = float(mags.max())
    if mx == 0.0:
        return None, None
    pivot = int(np.argmax(mags >= 0.5 * mx))
    phase = flat[pivot] / abs(flat[pivot])
    return phase, u * np.conj(phase)


def _merge_raw(terms, merge_tol=MERGE_TOL):
    """Merge terms whose unitaries agree up to a scalar phase.

    Each cluster keeps the first term's unitary verbatim; later matches fold
    their relative phase into the coefficient, so ``(c, -u)`` merges with
    ``(-c, u)``.  Coefficients that cancel to noise are dropped.
    """
    reps = []  # [summed coeff, verbatim unitary, phase, canonical, prov, stage]
    for coeff, u, prov, stage in terms:
        phase, uc = _phase_canonical(u)
        if phase is None:
            continue
        for rep in reps:
            if uc.shape == rep[3].shape and np.max(np.abs(uc - rep[3])) <= merge_tol:
                rep[0] += coeff * phase / rep[2]
                break
        else:
            reps.append([coeff, u, phase, uc, prov, stage])
    if not reps:
        return []
    top = max(abs(r[0]) for r in reps)
    if top == 0.0:
        return []
    return [(c, u, p, s) for c, u, _, _, p, s in reps if abs(c) > 1e-15 * top]


def _assemble(spec, target, raw_terms, merge=True, term_budget=None, coeff_budget=None):
    if merge:
        raw_terms = _merge_raw(raw_terms)
    terms = tuple(
        UnitaryTerm(complex(c), _freeze(u), p, s) for c, u, p, s in raw_terms
    )
    return Decomposition(spec, _freeze(target), terms, term_budget, coeff_budget)


def _conjugate_terms(raw_terms, w):
    wh = w.conj().T
    return [(c, w @ u @ wh, p, s) for c, u, p, s in raw_terms]


# ---------------------------------------------------------------------------
# elementary splits


def _two_unitary_raw(x, stage="selfadjoint-pair"):
    r = sqrt_defect(x)
    u = x + 1j * r
    return [
        (0.5, u, Provenance.FOUR_UNITARY, stage),
        (0.5, u.conj().T, Provenance.FOUR_UNITARY, stage),
    ]


def two_unitary_selfadjoint(x) -> Decomposition:
    """Write a self-adjoint contraction as the mean of ``u`` and ``u*``.

    ``u = x + i*sqrt(1 - x**2)``; the two coefficients are both ``1/2``.
    """
    x = as_matrix(x)
    raw = _two_unitary_raw(x)
    return _assemble(None, x, raw, merge=False, term_budget=2,
                     coeff_budget=1.0)


def _four_unitary_raw(x, stage="selfadjoint-split"):
    if not np.any(x):
        return []
    s = operator_norm(x)
    if s == 0.0:
        return []
    cand = x / s
    if unitarity_residual(cand) <= FAST_PATH_TOL:
        return [(s, cand, Provenance.FOUR_UNITARY, "unitary-multiple")]
    terms = []
    h = (x + x.conj().T) / 2.0
    k = (x - x.conj().T) / 2.0j
    for part, mult, tag in ((h, 1.0, "real"), (k, 1.0j, "imag")):
        sp = operator_norm(part)
        if sp == 0.0:
            continue
        for c, u, p, _ in _two_unitary_raw(part / sp):
            terms.append((mult * sp * c, u, p, f"{stage}-{tag}"))
    return terms


def four_unitary(x) -> Decomposition:
    """Write an arbitrary matrix as a combination of at most 4 unitaries.

    Splits into self-adjoint real/imaginary parts, rescales each into the
    unit ball and applies the two-unitary completion; the coefficient sum
    is at most twice the operator norm.  Unitary multiples short-circuit to
    a single term, the zero matrix to an empty list.
    """
    x = as_matrix(x)
    raw = _four_unitary_raw(x)
    return _assemble(None, x, raw, merge=True, term_budget=4,
                     coeff_budget=2.0 * operator_norm(x))


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


def _normalize_pieces(n, pieces):
    arrs = [np.asarray(list(p), dtype=np.intp) for p in pieces]
    if len(arrs) < 2:
        raise SinglePiece(f"got {len(arrs)} piece(s), need at least 2")
    g = len(arrs[0])
    if any(len(a) != g for a in arrs) or g < 1:
        raise DimensionMismatch("pieces must have equal positive size")
    flat = np.concatenate(arrs)
    if len(np.unique(flat)) != len(flat) or flat.min() < 0 or flat.max() >= n:
        raise DimensionMismatch("pieces must be disjoint index sets inside [0, n)")
    return arrs, g


def _zero_piece_raw(x, pieces, entry_mode, check_tol=1e-12):
    n = x.shape[0]
    arrs, g = _normalize_pieces(n, pieces)
    count = len(arrs)
    scale = max(1.0, float(np.max(np.abs(x))))
    for a in arrs:
        if np.max(np.abs(x[np.ix_(a, a)])) > check_tol * scale:
            raise PieceDiagonalNotZero("a piece-diagonal block is not zero")
    if entry_mode not in (GENERAL, TRACE_ZERO):
        raise UnispanError(f"unknown entry mode {entry_mode!r}")
    if entry_mode == TRACE_ZERO:
        pad = canonical_trace_zero_unitary(g) if g >= 2 else None
        if pad is None:
            raise OddDimension("trace-zero mode needs pieces of size >= 2")
    else:
        pad = np.eye(g, dtype=np.complex128)
    terms = []
    for alpha in range(count):
        for beta in range(count):
            if alpha == beta:
                continue
            block = x[np.ix_(arrs[alpha], arrs[beta])]
            if not np.any(block):
                continue
            if entry_mode == GENERAL:
                entry_terms = _four_unitary_raw(block)
            else:
                entry_terms = _scalar_case_raw(block)
            if not entry_terms:
                continue
            sigma = lex_derangement(count, alpha, beta)
            stage = f"cross-block({alpha},{beta})"
            signs = (1.0, 1.0) if _FAULT_INJECTION else (1.0, -1.0)
            for c, w, _, _ in entry_terms:
                for sign in signs:
                    u = np.zeros((n, n), dtype=np.complex128)
                    u[np.ix_(arrs[alpha], arrs[beta])] = w
                    for gamma in range(count):
                        if gamma != alpha:
                            u[np.ix_(arrs[gamma], arrs[sigma[gamma]])] = sign * pad
                    terms.append((c / 2.0, u, Provenance.ZERO_DIAG, stage))
    return terms


def zero_piece_diagonal_decomp(x, pieces, entry_mode: str = GENERAL) -> Decomposition:
    """Decompose a matrix whose piece-diagonal blocks vanish.

    ``pieces`` partitions (part of) the index set into equal-size groups.
    Every nonzero block entry is split (four-unitary in ``"general"`` mode,
    trace-zero scalar construction in ``"trace_zero"`` mode) and each piece
    is carried around a fixed-point-free block permutation, in a ``+/-``
    pair that cancels everywhere except at the target entry.  All produced
    unitaries are generalized block permutations with zero piece-diagonal.
    """
    x = as_matrix(x)
    arrs, _ = _normalize_pieces(x.shape[0], pieces)
    raw = _zero_piece_raw(x, arrs, entry_mode)
    count = len(arrs)
    per_entry = 8 if entry_mode == GENERAL else 2 * _SCALAR_TERM_BOUND
    if entry_mode == GENERAL:
        scale = 2.0 * operator_norm(x)
    else:
        scale = _SCALAR_COEFF_FACTOR * max(1.0, operator_norm(x))
    return _assemble(
        None,
        x,
        raw,
        term_budget=per_entry * count * (count - 1),
        coeff_budget=scale * count * (count - 1),
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


def _scalar_case_raw(x, trace_tol=1e-9):
    m = x.shape[0]
    if m % 2 != 0:
        raise OddDimension(f"dimension {m} is odd; the split needs an even one")
    scale = max(1.0, hs_norm(x))
    if abs(normalized_trace(x)) > trace_tol * scale:
        raise NotTraceZero("input trace is not zero within tolerance")
    if not np.any(x):
        return []
    s = operator_norm(x)
    cand = x / s
    if (
        unitarity_residual(cand) <= FAST_PATH_TOL
        and abs(normalized_trace(cand)) <= FAST_PATH_TOL
    ):
        return [(s, cand, Provenance.FOUR_UNITARY, "unitary-multiple")]
    g = m // 2
    x11 = x[:g, :g]
    x12 = x[:g, g:]
    x21 = x[g:, :g]
    x22 = x[g:, g:]
    z = x11 + x22
    terms = []
    corner = np.zeros((g, g), dtype=np.complex128)
    h = (z + z.conj().T) / 2.0
    k = (z - z.conj().T) / 2.0j
    for part, mult, tag in ((h, 1.0, "real"), (k, 1.0j, "imag")):
        if not np.any(part):
            continue
        sp = max(1.0, operator_norm(part))
        u1, u2, u3 = selfadjoint_corner_dilation(part / sp)
        terms.append((mult * sp / 2.0, u1, Provenance.DILATION, f"diag-dilation-{tag}"))
        terms.append((mult * sp / 2.0, u2, Provenance.DILATION, f"diag-dilation-{tag}"))
        corner = corner - mult * sp * u3[:g, g:]
    for c, u, _, _ in _four_unitary_raw(x22, stage="balanced"):
        lifted = np.block(
            [[-u, np.zeros_like(u)], [np.zeros_like(u), u]]
        )
        terms.append((c, lifted, Provenance.FOUR_UNITARY, "balanced-pair"))
    offdiag = np.zeros_like(x)
    offdiag[:g, g:] = x12 + corner
    offdiag[g:, :g] = x21
    if np.any(offdiag):
        terms.extend(
            _zero_piece_raw(offdiag, [range(g), range(g, m)], GENERAL)
        )
    return terms


def scalar_case_decomp(x) -> Decomposition:
    """Decompose a trace-zero matrix against the scalars ``C*1_m``, ``m`` even.

    All returned unitaries have zero trace, so they lie in the complement
    of ``C*1_m``.  The diagonal corner rides on two explicit dilations and
    the remainder on zero-diagonal block permutations.
    """
    x = as_matrix(x)
    raw = _scalar_case_raw(x)
    return _assemble(
        TypeISubalgebraSpec.scalar(x.shape[0]),
        x,
        raw,
        term_budget=_SCALAR_TERM_BOUND,
        coeff_budget=_SCALAR_COEFF_FACTOR * max(1.0, operator_norm(x)),
    )


# ---------------------------------------------------------------------------
# witnesses and padding


def _witness_on(n, atoms):
    """Full-space unitary supported on the given atoms, with zero
    conditional expectation there; ``None`` when no construction applies."""
    if not atoms:
        return None
    out = np.zeros((n, n), dtype=np.complex128)
    if all(a.m >= 2 for a in atoms):
        for a in atoms:
            omega = np.exp(2j * np.pi / a.m)
            block = np.kron(np.eye(a.k), np.diag(omega ** np.arange(a.m)))
            out[np.ix_(a.indices, a.indices)] = block
        return out
    total = sum(a.dim for a in atoms)
    if all(a.k == 1 for a in atoms) and total >= 2:
        idx = np.sort(np.concatenate([a.indices for a in atoms]))
        out[idx[np.roll(np.arange(total), -1)], idx] = 1.0
        return out
    if len(atoms) >= 2 and len({a.dim for a in atoms}) == 1:
        for i, a in enumerate(atoms):
            b = atoms[(i + 1) % len(atoms)]
            out[np.ix_(b.indices, a.indices)] = np.eye(a.dim)
        return out
    return None


def witness_unitary(spec: TypeISubalgebraSpec) -> np.ndarray:
    """A single unitary lying in the complement of the subalgebra.

    Atoms of multiplicity at least 2 carry a root-of-unity diagonal; when
    multiplicity-1 atoms are present the witness permutes basis vectors (or
    whole atoms of a common dimension) fixed-point-freely instead.
    """
    atoms = atom_layouts(spec)
    n = spec.dimension
    w = _witness_on(n, atoms)
    if w is None:
        raise UnsupportedConfiguration(
            "no-witness", "no complement unitary construction covers this layout"
        )
    wconj = spec.conjugation
    if wconj is not None:
        w = wconj @ w @ wconj.conj().T
    return w


# ---------------------------------------------------------------------------
# amplification (placing a corner decomposition into a k x k block grid)


def _amplify_raw(entry_terms, k, s0, t0, pad):
    g = pad.shape[0]
    left = np.eye(k)
    left[[0, s0]] = left[[s0, 0]]
    right = np.eye(k)
    right[:, [0, t0]] = right[:, [t0, 0]]
    lift_l = np.kron(left, np.eye(g))
    lift_r = np.kron(right, np.eye(g))
    out = []
    for c, u, _, stage in entry_terms:
        for sign in (1.0, -1.0):
            blocks = [u] + [sign * pad] * (k - 1)
            d = np.zeros((k * g, k * g), dtype=np.complex128)
            for i, b in enumerate(blocks):
                d[i * g : (i + 1) * g, i * g : (i + 1) * g] = b
            out.append(
                (c / 2.0, lift_l @ d @ lift_r, Provenance.AMPLIFY,
                 f"entry-move({s0 + 1},{t0 + 1})")
            )
    return out


def amplify_entry(entry_decomp: Decomposition, k: int, position, v_pad) -> Decomposition:
    """Lift a corner decomposition to the ``(s, t)`` slot of a ``k x k`` grid.

    Every corner unitary ``u`` becomes the pair ``u (+) v_pad (+) ...`` and
    ``u (+) (-v_pad) (+) ...`` on the diagonal, moved to slot ``(s, t)``
    (1-based) with scalar permutation matrices.  The pair averages to the
    single-entry embedding while each summand stays unitary.
    """
    s, t = position
    if not (1 <= s <= k and 1 <= t <= k):
        raise BadPosition(f"position {position} outside the {k} x {k} grid")
    pad = as_matrix(v_pad)
    if unitarity_residual(pad) > 1e-8:
        raise PaddingNotUnitary("padding matrix is not unitary")
    g = pad.shape[0]
    raw_in = []
    for term in entry_decomp.terms:
        u = term.unitary
        if u.shape[0] != g:
            raise DimensionMismatch("entry unitaries and padding differ in size")
        if unitarity_residual(u) > 1e-8:
            raise PaddingNotUnitary("an entry term is not unitary")
        raw_in.append((term.coeff, u, term.provenance, term.stage))
    raw = _amplify_raw(raw_in, k, s - 1, t - 1, pad)
    target = np.zeros((k * g, k * g), dtype=np.complex128)
    target[(s - 1) * g : s * g, (t - 1) * g : t * g] = entry_decomp.reconstruction()
    return _assemble(
        None,
        target,
        raw,
        term_budget=2 * len(entry_decomp.terms),
        coeff_budget=entry_decomp.coeff_sum,
    )


# ---------------------------------------------------------------------------
# the class-by-class complement decompositions


def _single_block_raw(k, m, x):
    """Factor-entrywise decomposition inside one atom ``M_k (x) C*1_m``."""
    terms = []
    if k == 1:
        return _scalar_case_raw(x)
    pad = canonical_trace_zero_unitary(m)
    for s0 in range(k):
        for t0 in range(k):
            entry = x[s0 * m : (s0 + 1) * m, t0 * m : (t0 + 1) * m]
            if not np.any(entry):
                continue
            corner = _scalar_case_raw(entry)
            terms.extend(_amplify_raw(corner, k, s0, t0, pad))
    return terms


def _type_one_raw(cls: SpecClass, x):
    """The construction behind :func:`type_one_decomp`, in standard position.

    Pieces of size ``gcd`` of the atom dimensions tile every atom: c1/c3
    atoms have ``k = 1`` and c4 atoms one common dimension.
    """
    atoms = cls.atoms
    if cls.kind is ClassKind.C2_SINGLE_ATOM:
        return _single_block_raw(atoms[0].k, atoms[0].m, x)
    terms = []
    cross = x.copy()
    for a in atoms:
        block = np.ix_(a.indices, a.indices)
        comp = x[block]
        cross[block] = 0.0
        if a.m < 2 or not np.any(comp):
            continue
        atom_terms = _single_block_raw(a.k, a.m, comp)
        if not atom_terms:
            continue
        pad = _witness_on(cls.n, [b for b in atoms if b is not a])
        if pad is None:  # pragma: no cover - validate_spec rejects these layouts
            raise UnsupportedConfiguration(
                "no-padding-partner",
                "no complement unitary exists on the remaining atoms",
            )
        stage = f"atom-completion({a.block},{a.atom})"
        for c, w, _, _ in atom_terms:
            for sign in (1.0, -1.0):
                u = sign * pad
                u[block] = w
                terms.append((c / 2.0, u, Provenance.ATOMIC, stage))
    if np.any(cross):
        g = math.gcd(*[a.dim for a in atoms])
        pieces = [a.indices[s : s + g] for a in atoms for s in range(0, a.dim, g)]
        terms.extend(_zero_piece_raw(cross, pieces, GENERAL))
    return terms


def _type_one_budgets(cls: SpecClass):
    """Static ``(term, coefficient-per-unit-norm)`` bounds of
    :func:`_type_one_raw`: ``p`` gcd pieces cost ``8p(p-1)`` terms and
    ``2p(p-1)`` coefficient mass, each even atom its inner bound (doubled by
    the completion pairs unless it is the only atom) and ``18 k**2``."""
    p = cls.n // math.gcd(*[a.dim for a in cls.atoms])
    pairs = 1 if cls.kind is ClassKind.C2_SINGLE_ATOM else 2
    tb = 8 * p * (p - 1)
    cf = 2.0 * p * (p - 1)
    for a in cls.atoms:
        if a.m >= 2:
            inner = _SCALAR_TERM_BOUND if a.k == 1 else 2 * _SCALAR_TERM_BOUND * a.k**2
            tb += pairs * inner
            cf += _SCALAR_COEFF_FACTOR * a.k**2
    return tb, cf


def type_one_decomp(spec: TypeISubalgebraSpec, x, in_tol: float = 1e-9) -> Decomposition:
    """Decompose a complement element against any supported type I spec.

    One path for every class: a single even atom (c2) takes the
    factor-entrywise scalar construction directly; masa, atomic abelian and
    homogeneous multi-atom specs (c1, c3, c4) decompose inside each even
    atom, complete those terms across the other atoms in cancelling pairs
    (stage ``atom-completion(block,atom)``) and carry the cross-atom part on
    block permutations over pieces of size ``gcd`` of the atom dimensions.
    A conjugation, when present, is applied at the boundary.
    """
    x = as_matrix(x)
    cls = algebra.validate_spec(spec, x.shape[0])
    if not cls.supported:
        raise UnsupportedConfiguration(cls.reason or "unsupported", cls.detail)
    resid = algebra.membership_residual(spec, x)
    if resid > in_tol * max(1.0, hs_norm(x)):
        raise NotInComplement(
            f"conditional expectation has norm {resid:.3e}; project the input first"
        )
    w = spec.conjugation
    if w is None:
        raw = _type_one_raw(cls, x)
    else:
        raw = _conjugate_terms(_type_one_raw(cls, w.conj().T @ x @ w), w)
    tb, cf = _type_one_budgets(cls)
    return _assemble(spec, x, raw, term_budget=tb,
                     coeff_budget=cf * max(1.0, operator_norm(x)))


# ---------------------------------------------------------------------------
# the quadrant alternative for the masa


def masa_quadrant_decomp(x, in_tol: float = 1e-10) -> Decomposition:
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
    if np.max(np.abs(np.diagonal(x))) > in_tol * scale:
        raise DiagonalNotZero("the matrix diagonal is not zero")
    q = n // 4
    quads = [np.arange(i * q, (i + 1) * q) for i in range(4)]
    diag_blocks = [x[np.ix_(quads[i], quads[i])] for i in range(4)]
    remainder = x.copy()
    for i in range(4):
        remainder[np.ix_(quads[i], quads[i])] -= diag_blocks[i]

    def place(u, row, col, block):
        u[np.ix_(quads[row], quads[col])] = block

    # Each quadrant slot carries its own 2x2 dilation, embedded at
    # (slot, spare_row) x (slot, spare_col); the two slots of a pair use
    # complementary spare rows/columns so the result stays unitary.
    pairs = (((0, 3, 2), (1, 2, 3)), ((2, 1, 0), (3, 0, 1)))
    terms = []
    for pair in pairs:
        za = diag_blocks[pair[0][0]]
        zb = diag_blocks[pair[1][0]]
        for mult, tag, pa, pb in (
            (1.0, "real", (za + za.conj().T) / 2, (zb + zb.conj().T) / 2),
            (1.0j, "imag", (za - za.conj().T) / 2j, (zb - zb.conj().T) / 2j),
        ):
            if not (np.any(pa) or np.any(pb)):
                continue
            s = max(1.0, operator_norm(pa), operator_norm(pb))
            scaled = (pa / s, pb / s)
            defects = (sqrt_defect(scaled[0]), sqrt_defect(scaled[1]))
            u1 = np.zeros((n, n), dtype=np.complex128)
            u2 = np.zeros((n, n), dtype=np.complex128)
            for (slot, row2, col2), y, r in zip(pair, scaled, defects):
                place(u1, slot, slot, y)
                place(u1, slot, col2, r)
                place(u1, row2, slot, -r)
                place(u1, row2, col2, y)
                place(u2, slot, slot, y)
                place(u2, slot, col2, r)
                place(u2, row2, slot, r)
                place(u2, row2, col2, -y)
                remainder[np.ix_(quads[slot], quads[col2])] -= mult * s * r
            terms.append((mult * s / 2.0, u1, Provenance.DILATION, f"quadrant-{tag}"))
            terms.append((mult * s / 2.0, u2, Provenance.DILATION, f"quadrant-{tag}"))
    if np.any(remainder):
        terms.extend(_zero_piece_raw(remainder, quads, GENERAL))
    spec = TypeISubalgebraSpec.masa(n)
    return _assemble(spec, x, terms, term_budget=8 + 8 * 4 * 3,
                     coeff_budget=148.0 * max(1.0, operator_norm(x)))


# ---------------------------------------------------------------------------
# independent verification


def verify_decomposition(spec, x, d: Decomposition) -> VerificationReport:
    """Recompute the sum and all residuals of a decomposition from scratch.

    Shares only the numeric kernels with the constructions; membership is
    checked through the conditional expectation.
    """
    x = as_matrix(x)
    total = np.zeros_like(x)
    max_unit = 0.0
    max_member = 0.0
    coeff_sum = 0.0
    for t in d.terms:
        u = as_matrix(t.unitary)
        if u.shape != x.shape:
            raise DimensionMismatch("term dimension differs from the target")
        total = total + t.coeff * u
        max_unit = max(max_unit, unitarity_residual(u))
        if spec is not None:
            max_member = max(max_member, algebra.membership_residual(spec, u))
        coeff_sum += abs(t.coeff)
    return VerificationReport(
        recon_residual=hs_norm(total - x),
        max_unitarity_residual=max_unit,
        max_membership_residual=max_member,
        term_count=len(d.terms),
        coeff_sum=coeff_sum,
    )
