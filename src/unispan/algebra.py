"""Type I subalgebras of ``M_n(C)`` in standard position.

A subalgebra spec describes ``A = (+)_i M_{k_i} (x) ((+)_j C*1_{m_ij})``
laid out block by block.  Within block ``i`` the basis index is
``a*s_i + offset_j + t`` with ``a`` the factor index (outermost), ``j`` the
atom and ``t`` the multiplicity index, where ``s_i = sum_j m_ij``.  This
factor-major ordering is part of the file-format contract.

An optional conjugating unitary ``W`` places the algebra in general
position (``A = W A_std W*``); every computation runs in standard position
and conjugates at the boundary.

The trace-preserving conditional expectation acts atom by atom: the
compression to an atom, viewed in ``M_k (x) M_m``, is replaced by its
normalized partial trace over the multiplicity factor tensored with the
identity.  Everything off-block or off-atom maps to zero.
"""

import hashlib
import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import DimensionMismatch, UnispanError, UnsupportedConfiguration
from .linalg import RANK_TOL, as_matrix, hs_norm, unitarity_residual


@dataclass(frozen=True)
class BlockSpec:
    """One central block ``M_k (x) ((+)_j C*1_{m_j})``."""

    k: int
    atom_mults: tuple

    def __post_init__(self):
        object.__setattr__(self, "atom_mults", tuple(int(m) for m in self.atom_mults))
        if self.k < 1:
            raise UnispanError(f"factor size must be >= 1, got {self.k}")
        if len(self.atom_mults) < 1:
            raise UnispanError("each block needs at least one atom")
        if any(m < 1 for m in self.atom_mults):
            raise UnispanError("atom multiplicities must be >= 1")

    @property
    def s(self) -> int:
        """Dimension of the abelian carrier, ``sum_j m_j``."""
        return sum(self.atom_mults)

    @property
    def dim(self) -> int:
        return self.k * self.s


@dataclass(frozen=True, eq=False)
class TypeISubalgebraSpec:
    """Structural description of a type I subalgebra in standard position."""

    blocks: tuple
    conjugation: Optional[np.ndarray] = None

    def __post_init__(self):
        blocks = tuple(
            b if isinstance(b, BlockSpec) else BlockSpec(*b) for b in self.blocks
        )
        if not blocks:
            raise UnispanError("spec needs at least one block")
        object.__setattr__(self, "blocks", blocks)
        if self.dimension**2 > np.iinfo(np.intp).max:
            raise UnispanError(f"dimension {self.dimension} is too large to index")
        if self.conjugation is not None:
            w = as_matrix(self.conjugation)
            if w.shape[0] != self.dimension:
                raise DimensionMismatch(
                    f"conjugation is {w.shape[0]}x{w.shape[0]}, "
                    f"spec dimension is {self.dimension}"
                )
            if unitarity_residual(w) > 1e-10:
                raise UnispanError("conjugation matrix is not unitary")
            w = w.copy()
            w.setflags(write=False)
            object.__setattr__(self, "conjugation", w)

    @property
    def dimension(self) -> int:
        """Ambient matrix dimension ``n``."""
        return sum(b.dim for b in self.blocks)

    @classmethod
    def masa(cls, n: int) -> "TypeISubalgebraSpec":
        """The diagonal masa of ``M_n``."""
        return cls(blocks=(BlockSpec(1, (1,) * n),))

    @classmethod
    def scalar(cls, m: int) -> "TypeISubalgebraSpec":
        """The scalars ``C*1_m`` inside ``M_m``."""
        return cls(blocks=(BlockSpec(1, (m,)),))

    @classmethod
    def atoms(cls, ranks: Sequence[int]) -> "TypeISubalgebraSpec":
        """An atomic abelian subalgebra ``(+)_j C*1_{r_j}``."""
        return cls(blocks=(BlockSpec(1, tuple(ranks)),))

    @classmethod
    def of_blocks(cls, pairs, conjugation=None) -> "TypeISubalgebraSpec":
        """Build from ``[(k, [m, ...]), ...]`` pairs."""
        return cls(
            blocks=tuple(BlockSpec(k, tuple(ms)) for k, ms in pairs),
            conjugation=conjugation,
        )

    def digest(self) -> int:
        """Stable 64-bit digest of the layout, used to key random streams."""
        parts = ["|".join(f"{b.k}:{','.join(map(str, b.atom_mults))}" for b in self.blocks)]
        h = hashlib.blake2b("".join(parts).encode(), digest_size=8)
        if self.conjugation is not None:
            h.update(np.ascontiguousarray(self.conjugation).tobytes())
        return int.from_bytes(h.digest(), "big")


class AtomLayout(NamedTuple):
    """Index layout of one atom ``M_k (x) C*1_m`` inside the ambient space.

    ``indices`` lists the carrier indices in factor-major ``(a, t)`` order,
    so the compression of a matrix to ``indices`` is literally an element of
    ``M_k (x) M_m``.
    """

    block: int
    atom: int
    k: int
    m: int
    dim: int
    indices: np.ndarray


def algebra_dimension(spec: TypeISubalgebraSpec) -> int:
    """Linear dimension of the subalgebra, ``sum_i k_i**2 * d_i``."""
    return sum(b.k**2 * len(b.atom_mults) for b in spec.blocks)


class ClassKind(Enum):
    C1_MASA = "c1"
    C2_SINGLE_ATOM = "c2"
    C3_ATOMIC_ABELIAN = "c3"
    C4_HOMOGENEOUS_TYPE1 = "c4"
    UNSUPPORTED = "unsupported"


@dataclass(frozen=True, eq=False)
class SpecClass:
    """Classification of a spec into a supported construction envelope."""

    kind: ClassKind
    n: int
    atoms: tuple
    reason: Optional[str] = None
    detail: str = ""

    @property
    def supported(self) -> bool:
        return self.kind is not ClassKind.UNSUPPORTED


def validate_spec(spec: TypeISubalgebraSpec, n: int) -> SpecClass:
    """Check the layout against the ambient dimension and classify the spec.

    Envelope rules:

    * C1: every ``k = 1`` and every ``m = 1`` (the diagonal masa).
    * C2: exactly one atom, ``m`` even ``>= 2`` (covers ``C*1_m`` at
      ``k = 1``).
    * C3: every ``k = 1``, at least two atoms, each multiplicity 1 or even.
    * C4: at least two atoms of one common dimension ``k*m``, each
      multiplicity 1 or even.
    * C3 and C4: every even atom needs a complement unitary (a witness) on
      the other atoms to pad against, else ``isolated-even-atom`` (C3) or
      ``no-padding-partner`` (C4).
    * anything else is UNSUPPORTED, with a machine-readable ``reason``.
    """
    if spec.dimension != n:
        raise DimensionMismatch(f"spec covers dimension {spec.dimension}, ambient is {n}")
    return layout_plan(spec.blocks).verdict


def supported_class(spec: TypeISubalgebraSpec, n: int) -> SpecClass:
    """The class of ``spec``; :class:`UnsupportedConfiguration` if unsupported."""
    cls = validate_spec(spec, n)
    if not cls.supported:
        raise UnsupportedConfiguration(cls.reason, cls.detail)
    return cls


class _AtomGroup(NamedTuple):
    """The atoms of one ``(k, m)``: their carrier indices stacked as
    ``rows (count, k*m, 1)`` and ``cols (count, 1, k*m)``, their indices
    ``members (count,)`` in the layout's atom list, their completion pads
    stacked as ``pads (count, n, n)`` (``None`` unless every member has
    one) and the stage name of each member's completion terms."""

    k: int
    m: int
    rows: np.ndarray
    cols: np.ndarray
    eye: np.ndarray
    members: np.ndarray
    pads: Optional[np.ndarray]
    stages: tuple


class LayoutPlan(NamedTuple):
    """A layout's atoms, ``E_A`` groups and verdict, the completion pad of
    each even atom of a multi-atom layout (else ``None``) and the ``gcd``
    piece rows ``(p, g)`` that carry the cross-atom part."""

    atoms: tuple
    groups: tuple
    verdict: SpecClass
    pads: tuple
    pieces: np.ndarray


def _frozen(a):
    """``a`` made read-only; ``None`` stays ``None``."""
    if a is not None:
        a.setflags(write=False)
    return a


@lru_cache(maxsize=64)
def layout_plan(blocks: tuple) -> LayoutPlan:
    """The plan of a layout ``spec.blocks``, made once; its arrays are read-only."""
    atoms = []
    offset = 0
    for bi, b in enumerate(blocks):
        atom_off = 0
        for ji, m in enumerate(b.atom_mults):
            a, t = np.divmod(np.arange(b.k * m, dtype=np.intp), m)
            idx = offset + a * b.s + atom_off + t
            atoms.append(AtomLayout(bi, ji, b.k, m, b.k * m, _frozen(idx)))
            atom_off += m
        offset += b.dim
    atoms = tuple(atoms)
    pads = tuple(_frozen(_witness_on(offset, [b for b in atoms if b is not a]))
                 if a.m % 2 == 0 and len(atoms) > 1 else None for a in atoms)
    groups = []
    for k, m in dict.fromkeys((a.k, a.m) for a in atoms):
        members = [i for i, a in enumerate(atoms) if (a.k, a.m) == (k, m)]
        rows = _frozen(np.stack([atoms[i].indices for i in members])[:, :, None])
        own = [pads[i] for i in members]
        groups.append(_AtomGroup(
            k, m, rows, rows.transpose(0, 2, 1), _frozen(np.eye(m)), _frozen(np.array(members)),
            None if any(p is None for p in own) else _frozen(np.stack(own)),
            tuple(f"atom-completion({atoms[i].block},{atoms[i].atom})" for i in members)))
    g = math.gcd(*[a.dim for a in atoms])
    pieces = _frozen(np.concatenate([a.indices for a in atoms]).reshape(-1, g))
    return LayoutPlan(atoms, tuple(groups), _classify(offset, atoms, pads), pads, pieces)


def _classify(n: int, atoms: tuple, pads: tuple) -> SpecClass:
    """The verdict of :func:`validate_spec` on atoms with completion pads ``pads``."""

    def unsupported(rule, detail):
        return SpecClass(ClassKind.UNSUPPORTED, n, atoms, rule, detail)

    all_k1 = all(a.k == 1 for a in atoms)
    if all_k1 and all(a.m == 1 for a in atoms):
        return SpecClass(ClassKind.C1_MASA, n, atoms)
    if len(atoms) == 1:
        a = atoms[0]
        if a.m >= 2 and a.m % 2 == 0:
            return SpecClass(ClassKind.C2_SINGLE_ATOM, n, atoms)
        if a.m == 1:
            return unsupported(
                "single-full-matrix-atom",
                "the lone atom is a full matrix block; the complement is {0}",
            )
        return unsupported("odd-atom-rank", f"single atom of odd multiplicity {a.m}")
    for a in atoms:
        if a.m >= 3 and a.m % 2 == 1:
            return unsupported(
                "odd-atom-rank", f"atom (block {a.block}, atom {a.atom}) has multiplicity {a.m}"
            )
    dims = {a.dim for a in atoms}
    if not all_k1 and len(dims) > 1:
        return unsupported(
            "heterogeneous-atom-dimensions", f"atom dimensions {sorted(dims)} differ"
        )
    for a, pad in zip(atoms, pads):
        if a.m % 2 == 0 and pad is None:
            if all_k1:
                return unsupported(
                    "isolated-even-atom",
                    f"even atom of rank {a.m} leaves only {n - a.dim} "
                    "dimension(s) to pad against",
                )
            return unsupported(
                "no-padding-partner",
                "the remaining atom is a full matrix block and carries "
                "no complement unitary",
            )
    kind = ClassKind.C3_ATOMIC_ABELIAN if all_k1 else ClassKind.C4_HOMOGENEOUS_TYPE1
    return SpecClass(kind, n, atoms)


def _witness_on(n, atoms):
    """Full-space unitary supported on the given atoms, with zero
    conditional expectation there; ``None`` when no construction applies."""
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


def _expect_standard(spec: TypeISubalgebraSpec, x: np.ndarray) -> np.ndarray:
    out = np.zeros_like(x)
    for a in layout_plan(spec.blocks).groups:
        sub = x[..., a.rows, a.cols]
        lead = sub.shape[:-2]
        partial = np.einsum("...atbt->...ab", sub.reshape(lead + (a.k, a.m, a.k, a.m))) / a.m
        # np.kron's own broadcast product, so the entries off the identity's
        # diagonal keep the signed zeros of ``partial * 0.0``
        block = partial[..., :, None, :, None] * a.eye[:, None, :]
        out[..., a.rows, a.cols] = block.reshape(lead + (a.k * a.m, a.k * a.m))
    return out


def conditional_expectation(spec: TypeISubalgebraSpec, x) -> np.ndarray:
    """Trace-preserving conditional expectation of ``x`` onto the subalgebra.

    ``x`` is one ``n x n`` matrix or a stack of shape ``(..., n, n)``; a
    stack maps matrix by matrix, with the same result as one call per
    matrix.
    """
    x = np.asarray(x, dtype=np.complex128)
    n = spec.dimension
    if x.ndim < 2 or x.shape[-2:] != (n, n):
        raise DimensionMismatch(f"expected shape (..., {n}, {n}), got {x.shape}")
    w = spec.conjugation
    if w is None:
        return _expect_standard(spec, x)
    return w @ _expect_standard(spec, w.conj().T @ x @ w) @ w.conj().T


def complement_project(spec: TypeISubalgebraSpec, x) -> np.ndarray:
    """Orthogonal projection onto the complement: ``x - E(x)``."""
    x = np.asarray(x, dtype=np.complex128)
    return x - conditional_expectation(spec, x)


def membership_residual(spec: TypeISubalgebraSpec, x):
    """``||E(x)||_2``; zero certifies that ``x`` lies in the complement.

    Takes one matrix, or a stack ``(..., n, n)`` and returns the residual of
    each of its matrices; a single matrix gives a ``float``.
    """
    return hs_norm(conditional_expectation(spec, x))


def complement_basis(spec: TypeISubalgebraSpec) -> np.ndarray:
    """HS-orthonormal basis of the complement, as a stack ``(N, n, n)``.

    Projects the matrix units through the complement projection and runs
    modified Gram-Schmidt (with one re-orthogonalization pass), dropping
    vectors of norm at most ``RANK_TOL``.  The stack holds exactly
    ``N = n**2 - algebra_dimension(spec)`` elements, in the order of the
    units they come from.

    A projected unit is solo when it has one nonzero entry and no other
    projected unit is nonzero there; ``E_A`` left it a multiple of its
    unit.  A solo unit is orthogonal to every other projected unit, hence
    to every basis vector, so Gram-Schmidt never changes it: all solo
    units are normalized at once.  The rest run plain modified
    Gram-Schmidt, twice, against every vector kept so far.
    """
    n = spec.dimension
    if n**4 > np.iinfo(np.intp).max:
        raise UnispanError(f"the {n**2} matrix units of dimension {n} are too many to stack")
    units = complement_project(spec, np.eye(n * n).reshape(n * n, n, n))
    nonzero = units.reshape(n * n, n * n) != 0
    solo = (np.count_nonzero(nonzero, axis=1) == 1) & (
        np.count_nonzero(nonzero, axis=0)[np.argmax(nonzero, axis=1)] == 1
    )
    lone = units[solo]
    norms = hs_norm(lone)
    # an absolute cut: a dependent residual is rounding noise, an
    # independent one keeps a norm of order 1/n or more
    kept = norms > RANK_TOL
    found = np.flatnonzero(solo)[kept].tolist()  # the unit of each vector
    rest = np.flatnonzero(~solo)
    basis = np.empty((len(rest), n, n), dtype=np.complex128)  # the loop's vectors
    size = 0
    for i, v in zip(rest.tolist(), units[rest]):
        for _ in range(2):
            for b in basis[:size]:
                # hs_inner(v, b)'s formula, without its conversions and shape check
                v = v - (complex(np.vdot(b, v)) / n) * b
        norm = hs_norm(v)
        if norm > RANK_TOL:
            basis[size] = v / norm
            size += 1
            found.append(i)
    vectors = np.concatenate((lone[kept] / norms[kept, None, None], basis[:size]))
    expected = n * n - algebra_dimension(spec)
    if len(vectors) != expected:
        raise ArithmeticError(
            f"complement basis has {len(vectors)} elements, expected {expected}"
        )
    return vectors[np.argsort(found)]


def _rng_for(spec: TypeISubalgebraSpec, seed: int, stream: int) -> np.random.Generator:
    key = np.array(
        [np.uint64(seed), np.uint64((spec.digest() + stream) % (1 << 64))],
        dtype=np.uint64,
    )
    return np.random.Generator(np.random.Philox(key=key))


def _standard_normal_complex(rng, shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def random_algebra_element(spec: TypeISubalgebraSpec, seed: int) -> np.ndarray:
    """Pseudorandom element of the subalgebra, deterministic per (spec, seed).

    Counter-based generator (Philox) keyed by the seed and a digest of the
    layout, so parallel trials are reproducible.
    """
    rng = _rng_for(spec, seed, 0)
    n = spec.dimension
    out = np.zeros((n, n), dtype=np.complex128)
    for a in layout_plan(spec.blocks).atoms:
        y = _standard_normal_complex(rng, (a.k, a.k))
        out[np.ix_(a.indices, a.indices)] = np.kron(y, np.eye(a.m))
    w = spec.conjugation
    if w is not None:
        out = w @ out @ w.conj().T
    return out


def random_complement_element(spec: TypeISubalgebraSpec, seed: int) -> np.ndarray:
    """Pseudorandom Gaussian matrix projected onto the complement."""
    rng = _rng_for(spec, seed, 1)
    n = spec.dimension
    g = _standard_normal_complex(rng, (n, n))
    return complement_project(spec, g)
