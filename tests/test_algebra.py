"""Algebra-model tests: spec classification, layout, conditional
expectation axioms, complement bases and random elements."""

import numpy as np
import pytest

from conftest import e_unit, oracle_specs, random_complex, random_unitary
from envelope_sweep import atom_slice, reference_verdict, small_layouts, sweep
from unispan import algebra, decompose, harness, linalg
from unispan.algebra import (
    BlockSpec,
    TypeISubalgebraSpec,
    algebra_dimension,
    complement_basis,
    complement_project,
    conditional_expectation,
    membership_residual,
    random_algebra_element,
    random_complement_element,
    validate_spec,
)
from unispan.selftest import spec_grid
from unispan.errors import DimensionMismatch, UnispanError, UnsupportedConfiguration
from unispan.linalg import RANK_TOL, hs_inner, hs_norm


def verdict(spec):
    """``validate_spec``'s verdict: the ``(rule, detail)`` it raises, or ``None``."""
    try:
        validate_spec(spec)
    except UnsupportedConfiguration as exc:
        return exc.rule, exc.detail
    return None


class TestClassification:
    def test_masa(self):
        assert validate_spec(TypeISubalgebraSpec.masa(3)) is None

    def test_scalars(self):
        assert validate_spec(TypeISubalgebraSpec.scalar(4)) is None

    def test_factor_with_even_multiplicity(self):
        assert validate_spec(TypeISubalgebraSpec.of_blocks([(2, [2])])) is None

    def test_single_odd_atom_unsupported(self):
        spec = TypeISubalgebraSpec.of_blocks([(2, [3])])
        assert verdict(spec) == ("odd-atom-rank", "single atom of odd multiplicity 3")

    def test_atomic_abelian(self):
        for ranks in ((2, 2), (2, 4), (1, 1, 2), (1, 2, 2, 4)):
            assert validate_spec(TypeISubalgebraSpec.atoms(ranks)) is None

    def test_homogeneous_type_one(self):
        assert validate_spec(TypeISubalgebraSpec.of_blocks([(2, [2]), (2, [2])])) is None
        assert validate_spec(TypeISubalgebraSpec.of_blocks([(1, [4]), (2, [2])])) is None

    def test_full_matrix_blocks_supported_without_content(self):
        assert validate_spec(TypeISubalgebraSpec.of_blocks([(2, [1]), (2, [1])])) is None

    def test_heterogeneous_dimensions_unsupported(self):
        spec = TypeISubalgebraSpec.of_blocks([(2, [2]), (1, [2])])
        assert verdict(spec)[0] == "heterogeneous-atom-dimensions"

    def test_isolated_even_atom_unsupported(self):
        assert verdict(TypeISubalgebraSpec.atoms((1, 2)))[0] == "isolated-even-atom"

    def test_full_matrix_padding_partner_unsupported(self):
        spec = TypeISubalgebraSpec.of_blocks([(2, [1]), (1, [2])])
        assert verdict(spec)[0] == "no-padding-partner"

    def test_single_full_matrix_atom(self):
        spec = TypeISubalgebraSpec.of_blocks([(3, [1])])
        assert verdict(spec)[0] == "single-full-matrix-atom"

    def test_dimension_mismatch(self):
        # the dimension is checked by E_A's shape check, after the support check
        with pytest.raises(DimensionMismatch):
            decompose.type_one_stack(TypeISubalgebraSpec.masa(3), np.zeros((1, 4, 4)))
        with pytest.raises(UnsupportedConfiguration):
            decompose.type_one_stack(TypeISubalgebraSpec.atoms((1, 2)), np.zeros((1, 4, 4)))

    def test_validate_spec_returns_or_raises_the_rule(self):
        assert validate_spec(TypeISubalgebraSpec.atoms((2, 4))) is None
        with pytest.raises(UnsupportedConfiguration) as exc:
            validate_spec(TypeISubalgebraSpec.atoms((2, 3)))
        assert (exc.value.rule, exc.value.detail) == (
            "odd-atom-rank", "atom (block 0, atom 1) has multiplicity 3")

    def test_every_entry_classifies_through_the_module_global(self, monkeypatch):
        # a wrapper bound to algebra.validate_spec sees one call per request
        calls = []
        original = algebra.validate_spec
        monkeypatch.setattr(algebra, "validate_spec",
                            lambda spec: calls.append(spec.dimension) or original(spec))
        spec = TypeISubalgebraSpec.masa(3)
        x = random_complement_element(spec, 0)
        decompose.type_one_decomp(spec, x)
        assert calls == [3]
        harness.run_random_instance(spec, 0)
        assert calls == [3, 3]
        # run_spancert checks before it builds the basis, type_one_stack again
        harness.run_spancert(spec)
        assert calls == [3, 3, 3, 3]

    def test_algebra_dimension(self):
        assert algebra_dimension(TypeISubalgebraSpec.masa(5)) == 5
        assert algebra_dimension(TypeISubalgebraSpec.of_blocks([(2, [2])])) == 4
        assert algebra_dimension(TypeISubalgebraSpec.of_blocks([(2, [2, 2])])) == 8

    def test_bad_blocks_rejected(self):
        with pytest.raises(UnispanError):
            BlockSpec(0, (1,))
        with pytest.raises(UnispanError):
            BlockSpec(1, ())
        with pytest.raises(UnispanError):
            TypeISubalgebraSpec(blocks=())


class TestEnvelopeOracle:
    def test_every_small_layout_classifies_as_the_reference(self):
        layouts = small_layouts()
        assert len(layouts) == 7423
        rules = set()
        for pairs in layouts:
            spec = TypeISubalgebraSpec.of_blocks(pairs)
            want = reference_verdict(spec)
            assert verdict(spec) == want, pairs
            rules.add(want and want[0])
        assert rules == {None, "single-full-matrix-atom", "odd-atom-rank", "isolated-even-atom",
                         "heterogeneous-atom-dimensions", "no-padding-partner"}


class TestEnvelopeSweep:
    def test_one_layout_per_atom_multiset_is_certified(self):
        counts, failures = sweep(atom_slice(small_layouts()))
        assert failures == []
        assert counts == {"layouts": 64, "supported": 64, "unsupported": 0, "rules": {},
                          "failures": 0, "fallbacks": 0}


class TestLayout:
    def test_factor_major_order(self):
        spec = TypeISubalgebraSpec.of_blocks([(2, [2, 1]), (1, [2])])
        atoms = algebra.layout_plan(spec.blocks).atoms
        # block 0 has s = 3: atom 0 rows (a, t) -> a*3 + t, atom 1 -> a*3 + 2
        np.testing.assert_array_equal(atoms[0].indices, [0, 1, 3, 4])
        np.testing.assert_array_equal(atoms[1].indices, [2, 5])
        np.testing.assert_array_equal(atoms[2].indices, [6, 7])
        assert spec.dimension == 8

    def test_cached_layout_indices_are_read_only(self):
        spec = TypeISubalgebraSpec.of_blocks([(2, [2, 1]), (1, [2])])
        same_layout = TypeISubalgebraSpec.of_blocks([(2, [2, 1]), (1, [2])])
        plan = algebra.layout_plan(spec.blocks)
        assert plan is algebra.layout_plan(same_layout.blocks)
        for a in plan.atoms:
            with pytest.raises(ValueError):
                a.indices[0] = 5
        for group in plan.groups:
            for arr in (group.rows, group.cols, group.eye):
                with pytest.raises(ValueError):
                    arr[(0,) * arr.ndim] = 5
        with pytest.raises(ValueError):
            plan.pieces[0, 0] = 5
        np.testing.assert_array_equal(plan.atoms[0].indices, [0, 1, 3, 4])

    def test_plan_pads_are_cached_witnesses_of_the_other_atoms(self, rng, grid_specs):
        c4 = TypeISubalgebraSpec.of_blocks([(2, [2]), (2, [2])],
                                           conjugation=random_unitary(rng, 8))
        for name, spec in grid_specs + [("c4-conjugated", c4)]:
            plan = algebra.layout_plan(spec.blocks)
            twin = algebra.layout_plan(
                TypeISubalgebraSpec.of_blocks([(b.k, b.atom_mults) for b in spec.blocks]).blocks)
            members = np.concatenate([grp.members for grp in plan.groups])
            assert sorted(members.tolist()) == list(range(len(plan.atoms))), name
            for i, grp in enumerate(plan.groups):
                if grp.m < 2 or len(plan.atoms) == 1:
                    assert grp.pads is None, name
                    continue
                assert len(grp.pads) == len(grp.members), name
                for j, pad in zip(grp.members.tolist(), grp.pads):
                    a = plan.atoms[j]
                    fresh = algebra._witness_on(spec.dimension,
                                                [b for b in plan.atoms if b is not a])
                    assert (pad.dtype, pad.shape) == (fresh.dtype, fresh.shape), name
                    assert pad.tobytes() == fresh.tobytes(), name
                    with pytest.raises(ValueError):
                        pad[0, 0] = 5
                assert twin.groups[i].pads is grp.pads, name

    def test_digest_stable_and_layout_sensitive(self):
        a = TypeISubalgebraSpec.atoms((2, 4))
        b = TypeISubalgebraSpec.atoms((4, 2))
        assert a.digest() == TypeISubalgebraSpec.atoms((2, 4)).digest()
        assert a.digest() != b.digest()


class TestConditionalExpectation:
    def test_scalar_kills_trace_zero(self):
        spec = TypeISubalgebraSpec.scalar(2)
        e = conditional_expectation(spec, np.diag([1.0, -1.0]))
        np.testing.assert_allclose(e, np.zeros((2, 2)))

    def test_masa_pinch(self):
        spec = TypeISubalgebraSpec.masa(2)
        e = conditional_expectation(spec, np.array([[1, 2], [3, 4]], dtype=complex))
        np.testing.assert_allclose(e, np.diag([1.0, 4.0]))

    def test_partial_trace_on_factor_block(self):
        spec = TypeISubalgebraSpec.of_blocks([(2, [2])])
        e = conditional_expectation(spec, e_unit(4, 0, 0))
        np.testing.assert_allclose(e, np.diag([0.5, 0.5, 0.0, 0.0]))

    def test_complement_projection_examples(self):
        masa = TypeISubalgebraSpec.masa(2)
        x = np.array([[1, 2], [3, 4]], dtype=complex)
        np.testing.assert_allclose(
            complement_project(masa, x), np.array([[0, 2], [3, 0]])
        )
        scal = TypeISubalgebraSpec.scalar(2)
        np.testing.assert_allclose(
            complement_project(scal, np.array([[2, 1], [0, 0]], dtype=complex)),
            np.array([[1, 1], [0, -1]]),
        )

    def test_membership_examples(self):
        scal = TypeISubalgebraSpec.scalar(2)
        assert membership_residual(scal, np.eye(2)) == pytest.approx(1.0)
        masa = TypeISubalgebraSpec.masa(2)
        assert membership_residual(masa, e_unit(2, 0, 1)) == 0

    def test_algebra_elements_fixed(self, grid_specs):
        for name, spec in grid_specs:
            a = random_algebra_element(spec, 5)
            assert linalg.hs_norm(conditional_expectation(spec, a) - a) <= 1e-12, name

    def test_axioms_random(self, grid_specs, rng):
        for name, spec in grid_specs:
            n = spec.dimension
            for trial in range(5):
                x = random_complex(rng, (n, n))
                y = random_complex(rng, (n, n))
                a = random_algebra_element(spec, trial)
                b = random_algebra_element(spec, trial + 100)
                ex = conditional_expectation(spec, x)
                assert linalg.hs_norm(
                    conditional_expectation(spec, ex) - ex
                ) <= 1e-12, name
                assert linalg.hs_norm(
                    conditional_expectation(spec, a @ x @ b) - a @ ex @ b
                ) <= 1e-11, name
                assert abs(
                    linalg.normalized_trace(ex) - linalg.normalized_trace(x)
                ) <= 1e-12, name
                ey = conditional_expectation(spec, y)
                assert abs(
                    linalg.hs_inner(ex, y) - linalg.hs_inner(x, ey)
                ) <= 1e-11, name
                assert abs(linalg.hs_inner(x - ex, a)) <= 1e-11, name
                assert linalg.hs_norm(
                    conditional_expectation(spec, x.conj().T) - ex.conj().T
                ) <= 1e-12, name
                assert linalg.hs_norm(ex) <= linalg.hs_norm(x) + 1e-12, name
                assert (
                    linalg.operator_norm(ex) <= linalg.operator_norm(x) + 1e-9
                ), name

    def test_conjugated_spec(self, rng):
        w = random_unitary(rng, 4)
        spec = TypeISubalgebraSpec.of_blocks([(2, [2])], conjugation=w)
        std = TypeISubalgebraSpec.of_blocks([(2, [2])])
        x = random_complex(rng, (4, 4))
        lhs = conditional_expectation(spec, x)
        rhs = w @ conditional_expectation(std, w.conj().T @ x @ w) @ w.conj().T
        np.testing.assert_allclose(lhs, rhs, atol=1e-13)
        # conjugated algebra elements are fixed points
        a = random_algebra_element(spec, 3)
        assert linalg.hs_norm(conditional_expectation(spec, a) - a) <= 1e-12

    def test_stack_matches_per_matrix(self, rng):
        for spec in (
            TypeISubalgebraSpec.of_blocks([(2, [2]), (2, [2])]),
            TypeISubalgebraSpec.of_blocks([(1, [2, 4])], conjugation=random_unitary(rng, 6)),
        ):
            n = spec.dimension
            xs = random_complex(rng, (2, 3, n, n))
            stacked = conditional_expectation(spec, xs)
            assert stacked.shape == xs.shape
            for i, j in np.ndindex(2, 3):
                assert np.array_equal(stacked[i, j], conditional_expectation(spec, xs[i, j]))

    def test_membership_residual_of_stack_matches_per_matrix(self, rng):
        spec = TypeISubalgebraSpec.of_blocks([(2, [2]), (2, [2])])
        nan = random_complex(rng, (8, 8))
        nan[3, 3] = np.nan
        mats = [np.zeros((8, 8)), random_unitary(rng, 8), np.eye(8), nan]
        got = membership_residual(spec, np.array(mats))
        assert got.shape == (len(mats),)
        alone = [membership_residual(spec, m) for m in mats]
        assert all(type(r) is float for r in alone)
        assert np.array_equal(got, alone, equal_nan=True)
        assert membership_residual(spec, np.zeros((0, 8, 8))).shape == (0,)

    def test_shape_mismatch_raises(self):
        spec = TypeISubalgebraSpec.masa(3)
        for x in (np.zeros((4, 4)), np.zeros((2, 3, 4)), np.zeros(3)):
            with pytest.raises(DimensionMismatch):
                conditional_expectation(spec, x)

    def test_entrywise_factor_units(self, rng):
        # For a factor block, a single factor-cell embedding lies in the
        # complement exactly when the embedded entry is trace-free on every
        # atom carrier.
        spec = TypeISubalgebraSpec.of_blocks([(2, [2, 2])])
        s = 4
        for s0 in range(2):
            for t0 in range(2):
                y = random_complex(rng, (s, s))
                x = np.zeros((8, 8), dtype=np.complex128)
                x[s0 * s : (s0 + 1) * s, t0 * s : (t0 + 1) * s] = y
                resid = membership_residual(spec, x)
                assert resid > 1e-3  # generic y has atom traces
                y0 = y.copy()
                y0[:2, :2] -= np.trace(y[:2, :2]) / 2 * np.eye(2)
                y0[2:, 2:] -= np.trace(y[2:, 2:]) / 2 * np.eye(2)
                x0 = np.zeros_like(x)
                x0[s0 * s : (s0 + 1) * s, t0 * s : (t0 + 1) * s] = y0
                assert membership_residual(spec, x0) <= 1e-13


class TestFrameBoundary:
    def test_standard_spec_returns_its_input(self, rng):
        spec = TypeISubalgebraSpec.of_blocks([(2, [2])])
        for x in (random_complex(rng, (4, 4)), random_complex(rng, (3, 4, 4))):
            assert spec.to_standard(x) is x
            assert spec.from_standard(x) is x

    def test_conjugated_spec_is_the_explicit_product(self, rng):
        spec = TypeISubalgebraSpec.of_blocks([(1, [2, 4])], conjugation=random_unitary(rng, 6))
        w = spec.conjugation
        for x in (random_complex(rng, (6, 6)), random_complex(rng, (3, 6, 6))):
            assert spec.to_standard(x).tobytes() == (w.conj().T @ x @ w).tobytes()
            assert spec.from_standard(x).tobytes() == (w @ x @ w.conj().T).tobytes()
            back = spec.from_standard(spec.to_standard(x))
            assert np.max(np.abs(back - x)) <= 1e-14


class TestFullMatrixAtomLemma:
    """A unitary with ``E_A(u) = 0`` vanishes on the diagonal block of every
    full-matrix atom (``m = 1``) of dimension ``d``, so it maps that atom's
    space isometrically into the other ``n - d`` dimensions."""

    def test_no_complement_unitary_when_the_atom_is_more_than_half(self):
        spec = TypeISubalgebraSpec.of_blocks([(2, [1]), (1, [1])])  # M_2 + C in M_3
        assert verdict(spec)[0] == "heterogeneous-atom-dimensions"
        for seed in range(20):
            x = random_complement_element(spec, seed)
            assert not np.any(x[:2, :2]), seed
            # so only the last row of x reaches the M_2 block of x* x, which
            # has rank one and is never the identity
            s = np.linalg.svd((x.conj().T @ x)[:2, :2], compute_uv=False)
            assert s[1] <= 1e-12 * s[0], seed

    def test_the_unitaries_miss_a_block_when_the_atom_is_half(self, rng):
        spec = TypeISubalgebraSpec.of_blocks([(2, [1]), (1, [2])])  # M_2 + C*1_2 in M_4
        assert verdict(spec)[0] == "no-padding-partner"
        assert spec.dimension**2 - algebra_dimension(spec) == 11
        zero = np.zeros((2, 2))
        unitaries = np.array([np.block([[zero, random_unitary(rng, 2)],
                                        [random_unitary(rng, 2), zero]]) for _ in range(16)])
        assert np.max(membership_residual(spec, unitaries)) <= 1e-15
        assert linalg.gram_rank(unitaries) == 8
        inside = np.diag([0.0, 0.0, 1.0, -1.0]).astype(complex)
        assert membership_residual(spec, inside) == 0.0
        assert all(hs_inner(u, inside) == 0 for u in unitaries)


class TestComplementBasis:
    def test_counts(self):
        assert len(complement_basis(TypeISubalgebraSpec.masa(2))) == 2
        assert len(complement_basis(TypeISubalgebraSpec.scalar(2))) == 3
        assert len(complement_basis(TypeISubalgebraSpec.of_blocks([(2, [2])]))) == 12
        empty = complement_basis(TypeISubalgebraSpec.masa(1))
        assert (empty.shape, empty.dtype) == ((0, 1, 1), np.complex128)

    def test_orthonormal_and_in_complement(self, grid_specs):
        for name, spec in grid_specs[:6]:
            basis = complement_basis(spec)
            assert len(basis) == spec.dimension**2 - algebra_dimension(spec), name
            for i, b in enumerate(basis):
                assert membership_residual(spec, b) <= 1e-12, name
                assert linalg.hs_norm(b) == pytest.approx(1, abs=1e-12), name
                for c in basis[:i]:
                    assert abs(linalg.hs_inner(b, c)) <= 1e-12, name

    def test_conjugated(self, rng):
        w = random_unitary(rng, 4)
        spec = TypeISubalgebraSpec.of_blocks([(1, [2, 2])], conjugation=w)
        basis = complement_basis(spec)
        assert len(basis) == 16 - 2
        for b in basis:
            assert membership_residual(spec, b) <= 1e-12


class TestRandomElements:
    def test_scalar_spec_gives_multiples_of_identity(self):
        a = random_algebra_element(TypeISubalgebraSpec.scalar(4), 11)
        np.testing.assert_allclose(a, a[0, 0] * np.eye(4), atol=1e-14)

    def test_masa_gives_diagonal(self):
        a = random_algebra_element(TypeISubalgebraSpec.masa(5), 11)
        np.testing.assert_allclose(a - np.diag(np.diag(a)), 0, atol=1e-14)

    def test_factor_block_structure(self):
        a = random_algebra_element(TypeISubalgebraSpec.of_blocks([(2, [2])]), 11)
        # y (x) 1_2 in factor-major layout
        y = a[::2, ::2]
        np.testing.assert_allclose(a, np.kron(y, np.eye(2)), atol=1e-14)

    def test_deterministic_per_seed(self):
        spec = TypeISubalgebraSpec.atoms((2, 4))
        assert np.array_equal(
            random_algebra_element(spec, 7), random_algebra_element(spec, 7)
        )
        assert not np.array_equal(
            random_algebra_element(spec, 7), random_algebra_element(spec, 8)
        )
        assert np.array_equal(
            random_complement_element(spec, 7), random_complement_element(spec, 7)
        )

    def test_complement_element_is_in_complement(self, grid_specs):
        for name, spec in grid_specs:
            x = random_complement_element(spec, 1)
            assert membership_residual(spec, x) <= 1e-13, name


# ---------------------------------------------------------------------------
# oracles: the plain implementations that the structured ones replace,
# compared byte for byte, so the signs of zeros count


def kron_loop_expectation(spec, x):
    """``E_A`` in standard position, one ``np.kron`` per atom."""
    out = np.zeros_like(x)
    for a in algebra.layout_plan(spec.blocks).atoms:
        rows, cols = a.indices[:, None], a.indices
        sub = x[..., rows, cols].reshape(x.shape[:-2] + (a.k, a.m, a.k, a.m))
        partial = np.einsum("...atbt->...ab", sub) / a.m
        out[..., rows, cols] = np.kron(partial, np.eye(a.m))
    return out


def dense_mgs_basis(spec, rank_tol=RANK_TOL):
    """Modified Gram-Schmidt against every basis vector, twice."""
    n = spec.dimension
    basis = []
    for v in complement_project(spec, np.eye(n * n).reshape(n * n, n, n)):
        for _ in range(2):
            for b in basis:
                v = v - hs_inner(v, b) * b
        norm = hs_norm(v)
        if norm > rank_tol:
            basis.append(v / norm)
    return basis


def reference_complement_basis(spec):
    """Gram-Schmidt that skips every basis vector whose support misses
    ``v``'s, over every projected unit.  ``complement_basis`` runs modified
    Gram-Schmidt on the nonzero units that are not solo and skips every
    update by an inner product of exactly zero, so matching this oracle and
    :func:`dense_mgs_basis` bit for bit checks that both skips equal the
    plain loop: an inner product over disjoint supports is exactly zero."""
    n = spec.dimension
    basis = []
    support = np.zeros((n * n, n * n), dtype=bool)
    for v in complement_project(spec, np.eye(n * n).reshape(n * n, n, n)):
        for _ in range(2):
            j = 0
            while True:
                hits = np.flatnonzero(np.any(support[j : len(basis)] & (v.ravel() != 0), axis=1))
                if not hits.size:
                    break
                j += int(hits[0])
                v = v - hs_inner(v, basis[j]) * basis[j]
                j += 1
        norm = hs_norm(v)
        if norm > RANK_TOL:
            basis.append(v / norm)
            support[len(basis) - 1] = basis[-1].ravel() != 0
    return basis


def random_layouts(rng, count):
    """Layouts of two or three blocks, some factor ``k >= 2``, dimension
    at most 12 (supported or not: the basis does not ask)."""
    out = []
    while len(out) < count:
        blocks = [(int(rng.integers(1, 4)), [int(m) for m in rng.integers(1, 4, rng.integers(1, 3))])
                  for _ in range(int(rng.integers(2, 4)))]
        spec = TypeISubalgebraSpec.of_blocks(blocks)
        if max(k for k, _ in blocks) >= 2 and spec.dimension <= 12:
            out.append((f"random-{blocks}", spec))
    return out


def oracle_expectation(spec, x):
    w = spec.conjugation
    if w is None:
        return kron_loop_expectation(spec, x)
    std = TypeISubalgebraSpec(spec.blocks)
    return w @ kron_loop_expectation(std, w.conj().T @ x @ w) @ w.conj().T


class TestOracles:
    def test_expectation_matches_kron_loop(self, rng):
        for name, spec in oracle_specs(rng):
            n = spec.dimension
            units = np.eye(n * n, dtype=np.complex128).reshape(n * n, n, n)
            for x in (random_complex(rng, (n, n)), random_complex(rng, (2, 3, n, n)),
                      units, -units):
                got = conditional_expectation(spec, x)
                want = oracle_expectation(spec, x)
                assert got.shape == want.shape and got.tobytes() == want.tobytes(), name

    def test_expectation_keeps_krons_signed_zeros(self):
        # a negative partial trace times the identity's off-diagonal zeros
        spec = TypeISubalgebraSpec.scalar(2)
        e = conditional_expectation(spec, -np.eye(2, dtype=np.complex128))
        assert np.signbit(e.real[0, 1]) and e.tobytes() == kron_loop_expectation(
            spec, -np.eye(2, dtype=np.complex128)).tobytes()

    def test_basis_matches_the_full_loop(self, rng):
        specs = oracle_specs(rng) + [
            ("c1-masa-n16", TypeISubalgebraSpec.masa(16)),
            ("c1-masa-n24", TypeISubalgebraSpec.masa(24)),
            ("c2-k4-m4", TypeISubalgebraSpec.of_blocks([(4, [4])])),
        ] + random_layouts(rng, 20)
        for name, spec in specs:
            got, want = complement_basis(spec), reference_complement_basis(spec)
            assert got.shape == (len(want), spec.dimension, spec.dimension), name
            assert got.dtype == np.complex128 and got.tobytes() == np.array(want).tobytes(), name

    def test_solo_units_of_the_masa(self):
        # a projected unit with one nonzero entry that no other projected
        # unit touches: the 56 off-diagonal units of masa(8); each diagonal
        # unit projects to zero
        n = 8
        units = complement_project(TypeISubalgebraSpec.masa(n),
                                   np.eye(n * n).reshape(n * n, n, n)).reshape(n * n, n * n) != 0
        per_entry = units.sum(axis=0)
        solo = [u for u in units if u.sum() == 1 and per_entry[u].tolist() == [1]]
        assert len(solo) == 56

    def test_basis_matches_dense_gram_schmidt(self, rng):
        specs = oracle_specs(rng)
        # a conjugated spec has no solo units: every unit runs the loop
        for name, blocks in (("c2-k1-m4", [(1, [4])]), ("c3-atoms-1-1-2", [(1, [1, 1, 2])])):
            conj = random_unitary(rng, 4)
            specs.append((f"{name}-conjugated", TypeISubalgebraSpec.of_blocks(blocks, conj)))
        for name, spec in specs:
            got, want = complement_basis(spec), dense_mgs_basis(spec)
            assert len(got) == len(want), name
            assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want)), name
