"""Decomposition-engine tests.

Every construction is checked against :func:`verify_decomposition`, which
recomputes sums and residuals independently of the construction code.
Exact expected term lists come from hand arithmetic; combinatorial helpers
are checked against brute-force enumeration.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import e_unit, random_complex, random_hermitian, random_unitary
from unispan import linalg
from unispan.algebra import TypeISubalgebraSpec, membership_residual
from unispan.decompose import (
    TRACE_ZERO,
    Decomposition,
    Provenance,
    UnitaryTerm,
    amplify_entry,
    canonical_trace_zero_unitary,
    four_unitary,
    lex_derangement,
    masa_quadrant_decomp,
    scalar_case_decomp,
    selfadjoint_corner_dilation,
    set_fault_injection,
    two_unitary_selfadjoint,
    type_one_decomp,
    verify_decomposition,
    witness_unitary,
    zero_piece_diagonal_decomp,
)
from unispan.errors import (
    BadPosition,
    DiagonalNotZero,
    NotDivisibleBy4,
    NotInComplement,
    NotTraceZero,
    OddDimension,
    PaddingNotUnitary,
    PieceDiagonalNotZero,
    SinglePiece,
    UnsupportedConfiguration,
)

S = np.array([[0, 1], [1, 0]], dtype=complex)
T = np.array([[0, 1], [-1, 0]], dtype=complex)


def term_map(d, ndigits=10):
    """Canonical {rounded unitary bytes: coeff} map for exact comparisons."""
    out = {}
    for t in d.terms:
        key = np.round(t.unitary, ndigits).tobytes()
        out[key] = out.get(key, 0) + t.coeff
    return out


def assert_terms_equal(d, expected, atol=1e-12):
    assert len(d.terms) == len(expected)
    remaining = list(expected)
    for t in d.terms:
        for i, (coeff, u) in enumerate(remaining):
            if np.allclose(t.unitary, u, atol=atol) and abs(t.coeff - coeff) <= atol:
                remaining.pop(i)
                break
        else:
            raise AssertionError(f"unexpected term {t.coeff}:\n{t.unitary}")


class TestTwoUnitary:
    def test_zero_input(self):
        d = two_unitary_selfadjoint(np.zeros((2, 2)))
        assert_terms_equal(d, [(0.5, 1j * np.eye(2)), (0.5, -1j * np.eye(2))])

    def test_half_spectrum(self):
        d = two_unitary_selfadjoint(np.diag([0.5, -0.5]))
        u = np.diag([np.exp(1j * np.pi / 3), np.exp(2j * np.pi / 3)])
        assert_terms_equal(d, [(0.5, u), (0.5, u.conj().T)])

    def test_selfadjoint_unitary_degenerate(self):
        x = np.diag([1.0, -1.0])
        d = two_unitary_selfadjoint(x)
        assert len(d.terms) == 2
        for t in d.terms:
            assert t.coeff == 0.5
            np.testing.assert_allclose(t.unitary, x, atol=1e-14)

    def test_random_reconstruction(self, rng):
        for _ in range(25):
            n = int(rng.integers(1, 9))
            h = random_hermitian(rng, n)
            h /= max(linalg.operator_norm(h), 1e-300)
            d = two_unitary_selfadjoint(h)
            rep = verify_decomposition(None, h, d)
            assert rep.recon_residual <= 1e-12
            assert rep.max_unitarity_residual <= 1e-12


class TestFourUnitary:
    def test_zero_gives_empty(self):
        d = four_unitary(np.zeros((3, 3)))
        assert d.terms == ()
        assert verify_decomposition(None, np.zeros((3, 3)), d).recon_residual == 0

    def test_unitary_fast_path(self, rng):
        u = random_unitary(rng, 4)
        d = four_unitary(u)
        assert len(d.terms) == 1
        assert d.terms[0].coeff == pytest.approx(1, abs=1e-12)
        np.testing.assert_allclose(d.terms[0].unitary, u, atol=1e-12)

    def test_nilpotent_budget(self):
        # x = 1*S + i*Y with S, Y the self-adjoint unitaries below: the
        # real and imaginary parts are unitaries already, so two terms
        x = np.array([[0, 2], [0, 0]], dtype=complex)
        d = four_unitary(x)
        y = np.array([[0, -1j], [1j, 0]])
        assert_terms_equal(d, [(1, S), (1j, y)], atol=1e-14)
        rep = verify_decomposition(None, x, d)
        assert rep.coeff_sum == pytest.approx(2, abs=1e-14)
        assert rep.recon_residual <= 1e-14

    def test_budget_500_randoms(self, rng):
        for _ in range(500):
            n = int(rng.integers(1, 13))
            x = random_complex(rng, (n, n))
            d = four_unitary(x)
            rep = verify_decomposition(None, x, d)
            assert rep.term_count <= 4
            assert rep.coeff_sum <= 2 * linalg.operator_norm(x) + 1e-9
            assert rep.recon_residual <= 1e-12
            assert rep.max_unitarity_residual <= 1e-12


@settings(max_examples=25, deadline=None)
@given(
    arrays(np.float64, (4, 4), elements=st.floats(-5, 5)),
    arrays(np.float64, (4, 4), elements=st.floats(-5, 5)),
)
def test_four_unitary_property(re, im):
    x = re + 1j * im
    d = four_unitary(x)
    rep = verify_decomposition(None, x, d)
    assert rep.term_count <= 4
    assert rep.recon_residual <= 1e-11 * max(1.0, linalg.hs_norm(x))
    assert rep.coeff_sum <= 2 * linalg.operator_norm(x) + 1e-9
    assert rep.max_unitarity_residual <= 1e-12


class TestLexDerangement:
    def test_against_brute_force(self):
        for count in range(2, 7):
            for alpha in range(count):
                for beta in range(count):
                    if alpha == beta:
                        continue
                    got = lex_derangement(count, alpha, beta)
                    candidates = [
                        p
                        for p in itertools.permutations(range(count))
                        if p[alpha] == beta and all(p[i] != i for i in range(count))
                    ]
                    assert tuple(got) == min(candidates), (count, alpha, beta)

    def test_errors(self):
        with pytest.raises(SinglePiece):
            lex_derangement(1, 0, 0)


class TestZeroPieceDiagonal:
    def test_single_unit(self):
        x = e_unit(2, 0, 1)
        d = zero_piece_diagonal_decomp(x, [[0], [1]])
        assert_terms_equal(d, [(0.5, S), (0.5, T)])

    def test_merged_masa_pair(self):
        x = np.array([[0, 2], [3, 0]], dtype=complex)
        d = zero_piece_diagonal_decomp(x, [[0], [1]])
        assert_terms_equal(d, [(2.5, S), (-0.5, T)])
        assert verify_decomposition(None, x, d).recon_residual == 0

    def test_unitary_block_pair(self, rng):
        v = random_unitary(rng, 2)
        x = np.zeros((4, 4), dtype=complex)
        x[:2, 2:] = v
        d = zero_piece_diagonal_decomp(x, [range(2), range(2, 4)])
        expected_plus = np.block([[np.zeros((2, 2)), v], [np.eye(2), np.zeros((2, 2))]])
        expected_minus = np.block([[np.zeros((2, 2)), v], [-np.eye(2), np.zeros((2, 2))]])
        assert_terms_equal(d, [(0.5, expected_plus), (0.5, expected_minus)])

    def test_noncontiguous_pieces(self, rng):
        x = np.zeros((4, 4), dtype=complex)
        pieces = [[0, 2], [1, 3]]
        x[np.ix_([0, 2], [1, 3])] = random_complex(rng, (2, 2))
        d = zero_piece_diagonal_decomp(x, pieces)
        rep = verify_decomposition(None, x, d)
        assert rep.recon_residual <= 1e-14
        assert rep.max_unitarity_residual <= 1e-13

    def test_trace_zero_mode_blocks_are_trace_free(self, rng):
        g = 2
        x = np.zeros((4, 4), dtype=complex)
        b = random_complex(rng, (g, g))
        b -= np.trace(b) / g * np.eye(g)
        x[:g, g:] = b
        d = zero_piece_diagonal_decomp(x, [range(g), range(g, 2 * g)], TRACE_ZERO)
        rep = verify_decomposition(None, x, d)
        assert rep.recon_residual <= 1e-13
        for t in d.terms:
            for rows in (slice(0, g), slice(g, 2 * g)):
                for cols in (slice(0, g), slice(g, 2 * g)):
                    assert abs(np.trace(t.unitary[rows, cols])) <= 1e-12

    def test_random_many_pieces(self, rng):
        for count, g in ((3, 1), (4, 2), (5, 1)):
            n = count * g
            pieces = [range(i * g, (i + 1) * g) for i in range(count)]
            x = random_complex(rng, (n, n))
            for p in pieces:
                x[np.ix_(p, p)] = 0
            d = zero_piece_diagonal_decomp(x, pieces)
            rep = verify_decomposition(None, x, d)
            assert rep.recon_residual <= 1e-13
            assert rep.max_unitarity_residual <= 1e-13
            assert rep.term_count <= d.term_budget
            for t in d.terms:
                for p in pieces:
                    assert np.max(np.abs(t.unitary[np.ix_(p, p)])) == 0

    def test_errors(self):
        with pytest.raises(SinglePiece):
            zero_piece_diagonal_decomp(np.zeros((2, 2)), [range(2)])
        with pytest.raises(PieceDiagonalNotZero):
            zero_piece_diagonal_decomp(np.eye(2), [[0], [1]])


class TestCornerDilation:
    def test_dilation_identity_random(self, rng):
        for _ in range(50):
            g = int(rng.integers(1, 7))
            y = random_hermitian(rng, g)
            y /= max(linalg.operator_norm(y), 1e-300)
            y -= np.trace(y) / g * np.eye(g)
            y /= max(linalg.operator_norm(y), 1e-300)
            u1, u2, u3 = selfadjoint_corner_dilation(y)
            assert linalg.unitarity_residual(u1) <= 1e-12
            assert linalg.unitarity_residual(u2) <= 1e-12
            target = np.zeros((2 * g, 2 * g), dtype=complex)
            target[:g, :g] = y
            np.testing.assert_allclose(
                u1 / 2 + u2 / 2 - u3, target, atol=1e-12
            )
            assert abs(np.trace(u1)) <= 1e-12
            assert abs(np.trace(u2)) <= 1e-12


class TestScalarCase:
    def test_trace_zero_unitary_fast_path(self):
        x = np.diag([1.0, -1.0])
        d = scalar_case_decomp(x)
        assert_terms_equal(d, [(1.0, x)])

    def test_worked_two_by_two(self):
        x = np.array([[1, 2], [3, -1]], dtype=complex)
        d = scalar_case_decomp(x)
        assert_terms_equal(
            d, [(1.0, np.diag([1.0, -1.0])), (2.5, S), (-0.5, T)]
        )
        assert verify_decomposition(None, x, d).recon_residual == 0

    def test_random_m4_all_unitaries_trace_zero(self, rng):
        spec = TypeISubalgebraSpec.scalar(4)
        for _ in range(10):
            x = random_complex(rng, (4, 4))
            x -= np.trace(x) / 4 * np.eye(4)
            d = scalar_case_decomp(x)
            rep = verify_decomposition(spec, x, d)
            assert rep.recon_residual <= 1e-10
            assert rep.max_unitarity_residual <= 1e-12
            assert rep.max_membership_residual <= 1e-10
            for t in d.terms:
                assert abs(np.trace(t.unitary)) <= 1e-10 * 4

    def test_errors(self):
        with pytest.raises(NotTraceZero):
            scalar_case_decomp(np.eye(2))
        with pytest.raises(OddDimension):
            scalar_case_decomp(np.diag([1.0, 1.0, -2.0]))


class TestMasaQuadrant:
    def test_n4_degenerate_is_pure_cross(self, rng):
        x = random_complex(rng, (4, 4))
        np.fill_diagonal(x, 0)
        d = masa_quadrant_decomp(x)
        assert all(t.provenance is Provenance.ZERO_DIAG for t in d.terms)
        rep = verify_decomposition(TypeISubalgebraSpec.masa(4), x, d)
        assert rep.recon_residual <= 1e-13
        assert rep.max_membership_residual <= 1e-13

    def test_n8_explicit_defect(self):
        x = np.zeros((8, 8), dtype=complex)
        x[0, 1] = x[1, 0] = 0.5  # first quadrant-diagonal block
        d = masa_quadrant_decomp(x)
        dil = [t for t in d.terms if t.provenance is Provenance.DILATION]
        assert dil, "expected dilation terms"
        found = False
        for t in dil:
            block = t.unitary[0:2, 4:6]
            if np.allclose(block, np.sqrt(3) / 2 * np.eye(2), atol=1e-12):
                found = True
            assert linalg.unitarity_residual(t.unitary) <= 1e-12
        assert found, "defect block sqrt(3)/2 * I not found"
        rep = verify_decomposition(TypeISubalgebraSpec.masa(8), x, d)
        assert rep.recon_residual <= 1e-12

    def test_cross_path_agreement(self, rng):
        for n in (4, 8, 12):
            spec = TypeISubalgebraSpec.masa(n)
            from unispan.algebra import random_complement_element

            for seed in range(3):
                x = random_complement_element(spec, seed)
                for d in (masa_quadrant_decomp(x), type_one_decomp(spec, x)):
                    rep = verify_decomposition(spec, x, d)
                    assert rep.recon_residual <= 1e-10
                    assert rep.max_unitarity_residual <= 1e-10
                    assert rep.max_membership_residual <= 1e-10
                    np.testing.assert_allclose(d.reconstruction(), x, atol=1e-10)

    def test_errors(self):
        with pytest.raises(NotDivisibleBy4):
            masa_quadrant_decomp(np.zeros((6, 6)))
        with pytest.raises(DiagonalNotZero):
            masa_quadrant_decomp(np.eye(4))


class TestWitness:
    def test_masa_two(self):
        np.testing.assert_allclose(
            witness_unitary(TypeISubalgebraSpec.masa(2)), S
        )

    def test_scalar_three(self):
        w = witness_unitary(TypeISubalgebraSpec.scalar(3))
        omega = np.exp(2j * np.pi / 3)
        np.testing.assert_allclose(np.diag(w), [1, omega, omega**2], atol=1e-14)

    def test_scalar_four(self):
        w = witness_unitary(TypeISubalgebraSpec.scalar(4))
        np.testing.assert_allclose(np.diag(w), [1, 1j, -1, -1j], atol=1e-14)

    def test_membership_on_grid(self, grid_specs):
        for name, spec in grid_specs:
            w = witness_unitary(spec)
            assert linalg.unitarity_residual(w) <= 1e-12, name
            assert membership_residual(spec, w) <= 1e-12, name

    def test_single_point_masa_has_no_witness(self):
        with pytest.raises(UnsupportedConfiguration):
            witness_unitary(TypeISubalgebraSpec.masa(1))


def hand_decomposition(terms):
    target = sum(c * u for c, u in terms)
    return Decomposition(
        None,
        target,
        tuple(
            UnitaryTerm(complex(c), np.asarray(u, dtype=complex), Provenance.MASTER)
            for c, u in terms
        ),
    )


class TestAmplify:
    def test_identity_of_the_trick(self, rng):
        u = random_unitary(rng, 2)
        v = random_unitary(rng, 2)
        d = amplify_entry(hand_decomposition([(1.0, u)]), 2, (1, 1), v)
        expect = np.zeros((4, 4), dtype=complex)
        expect[:2, :2] = u
        np.testing.assert_allclose(d.reconstruction(), expect, atol=1e-13)
        assert_terms_equal(
            d,
            [
                (0.5, np.block([[u, np.zeros((2, 2))], [np.zeros((2, 2)), v]])),
                (0.5, np.block([[u, np.zeros((2, 2))], [np.zeros((2, 2)), -v]])),
            ],
        )

    def test_sigma3_padding_example(self):
        s3 = np.diag([1.0, -1.0]).astype(complex)
        d = amplify_entry(hand_decomposition([(1.0, s3)]), 2, (1, 1), s3)
        assert_terms_equal(
            d,
            [(0.5, np.diag([1.0, -1, 1, -1])), (0.5, np.diag([1.0, -1, -1, 1]))],
        )
        for t in d.terms:
            assert abs(np.trace(t.unitary[:2, :2])) == 0
            assert abs(np.trace(t.unitary[2:, 2:])) == 0

    def test_move_bookkeeping_oracle(self, rng):
        # oracle: build the expected matrices with explicit permutations
        u = random_unitary(rng, 2)
        v = canonical_trace_zero_unitary(2)
        k, s, t = 3, 2, 3
        d = amplify_entry(hand_decomposition([(1.0, u)]), k, (s, t), v)
        left = np.eye(k)
        left[[0, s - 1]] = left[[s - 1, 0]]
        right = np.eye(k)
        right[:, [0, t - 1]] = right[:, [t - 1, 0]]
        expected = []
        for sign in (1.0, -1.0):
            blocks = np.zeros((k * 2, k * 2), dtype=complex)
            blocks[:2, :2] = u
            blocks[2:4, 2:4] = sign * v
            blocks[4:6, 4:6] = sign * v
            expected.append(
                (0.5, np.kron(left, np.eye(2)) @ blocks @ np.kron(right, np.eye(2)))
            )
        assert_terms_equal(d, expected)
        target = np.zeros((6, 6), dtype=complex)
        target[(s - 1) * 2 : s * 2, (t - 1) * 2 : t * 2] = u
        np.testing.assert_allclose(d.reconstruction(), target, atol=1e-13)

    def test_errors(self, rng):
        u = random_unitary(rng, 2)
        with pytest.raises(BadPosition):
            amplify_entry(hand_decomposition([(1.0, u)]), 2, (0, 1), u)
        with pytest.raises(PaddingNotUnitary):
            amplify_entry(hand_decomposition([(1.0, u)]), 2, (1, 1), 0.5 * u)
        with pytest.raises(PaddingNotUnitary):
            amplify_entry(hand_decomposition([(1.0, 0.5 * u)]), 2, (1, 1), u)


class TestAtomicAbelian:
    def test_two_even_atoms_exact(self):
        spec = TypeISubalgebraSpec.atoms((2, 2))
        x = np.diag([1.0, -1.0, 0.0, 0.0]).astype(complex)
        d = type_one_decomp(spec, x)
        assert_terms_equal(
            d,
            [(0.5, np.diag([1.0, -1, 1, -1])), (0.5, np.diag([1.0, -1, -1, 1]))],
        )

    def test_masa_three_cycle(self):
        spec = TypeISubalgebraSpec.masa(3)
        x = e_unit(3, 0, 2)
        d = type_one_decomp(spec, x)
        plus = np.zeros((3, 3), dtype=complex)
        plus[0, 2] = plus[1, 0] = plus[2, 1] = 1
        minus = plus.copy()
        minus[1, 0] = minus[2, 1] = -1
        assert_terms_equal(d, [(0.5, plus), (0.5, minus)])

    def test_mixed_atoms_with_gcd_refinement(self, rng):
        from unispan.algebra import random_complement_element

        spec = TypeISubalgebraSpec.atoms((2, 4))
        for seed in range(5):
            x = random_complement_element(spec, seed)
            d = type_one_decomp(spec, x)
            rep = verify_decomposition(spec, x, d)
            assert rep.recon_residual <= 1e-10
            assert rep.max_unitarity_residual <= 1e-10
            assert rep.max_membership_residual <= 1e-10

    def test_rejects_algebra_elements(self):
        spec = TypeISubalgebraSpec.atoms((2, 2))
        with pytest.raises(NotInComplement):
            type_one_decomp(spec, np.diag([1.0, 1.0, -1.0, -1.0]))

    def test_rejects_unsupported(self, rng):
        spec = TypeISubalgebraSpec.atoms((3, 3))
        with pytest.raises(UnsupportedConfiguration) as exc:
            type_one_decomp(spec, np.zeros((6, 6)))
        assert exc.value.rule == "odd-atom-rank"

    def test_one_dimensional_masa_is_empty(self):
        d = type_one_decomp(TypeISubalgebraSpec.masa(1), [[0]])
        assert d.terms == ()
        assert (d.term_budget, d.coeff_budget) == (0, 0.0)

    def test_completion_stages_name_block_and_atom(self):
        from unispan.algebra import random_complement_element

        spec = TypeISubalgebraSpec.of_blocks([(1, [2]), (1, [2])])
        d = type_one_decomp(spec, random_complement_element(spec, 1))
        stages = {t.stage for t in d.terms if t.provenance is Provenance.ATOMIC}
        assert stages == {"atom-completion(0,0)", "atom-completion(1,0)"}


class TestTypeOne:
    def test_factor_block_example(self):
        spec = TypeISubalgebraSpec.of_blocks([(2, [2])])
        x = np.diag([1.0, -1.0, 0.0, 0.0]).astype(complex)
        d = type_one_decomp(spec, x)
        assert_terms_equal(
            d,
            [(0.5, np.diag([1.0, -1, 1, -1])), (0.5, np.diag([1.0, -1, -1, 1]))],
        )

    def test_scalar_dispatch_identity(self):
        spec = TypeISubalgebraSpec.scalar(2)
        x = np.array([[1, 2], [3, -1]], dtype=complex)
        assert term_map(type_one_decomp(spec, x)) == term_map(scalar_case_decomp(x))

    def test_two_block_masa_consistency(self, rng):
        from unispan.algebra import random_complement_element

        atoms = TypeISubalgebraSpec.atoms((2, 2))
        split = TypeISubalgebraSpec.of_blocks([(1, [2]), (1, [2])])
        x = random_complement_element(atoms, 3)
        assert term_map(type_one_decomp(atoms, x)) == term_map(
            type_one_decomp(split, x)
        )

    def test_conjugated_spec(self, rng):
        from unispan.algebra import random_complement_element

        w = random_unitary(rng, 6)
        spec = TypeISubalgebraSpec.atoms((2, 4), )
        conj = TypeISubalgebraSpec.of_blocks([(1, [2, 4])], conjugation=w)
        x = random_complement_element(conj, 5)
        d = type_one_decomp(conj, x)
        rep = verify_decomposition(conj, x, d)
        assert rep.recon_residual <= 1e-10
        assert rep.max_unitarity_residual <= 1e-10
        assert rep.max_membership_residual <= 1e-10

    def test_linearity_compatibility(self, rng):
        from unispan.algebra import random_complement_element

        spec = TypeISubalgebraSpec.scalar(4)
        x = random_complement_element(spec, 2)
        alpha = 1.7 - 0.3j
        d1 = type_one_decomp(spec, alpha * x)
        np.testing.assert_allclose(d1.reconstruction(), alpha * x, atol=1e-12)
        d0 = type_one_decomp(spec, x)
        np.testing.assert_allclose(
            alpha * d0.reconstruction(), alpha * x, atol=1e-12
        )

    def test_selfadjoint_closure(self, rng):
        from unispan.algebra import random_complement_element

        spec = TypeISubalgebraSpec.atoms((2, 2))
        x = random_complement_element(spec, 4)
        x = (x + x.conj().T) / 2
        d = type_one_decomp(spec, x)
        adj = sum(
            (np.conj(t.coeff) * t.unitary.conj().T for t in d.terms),
            np.zeros_like(x),
        )
        np.testing.assert_allclose(adj, x, atol=1e-12)

    def test_budgets_on_grid(self, grid_specs):
        from unispan.algebra import random_complement_element

        for name, spec in grid_specs:
            x = random_complement_element(spec, 0)
            d = type_one_decomp(spec, x)
            rep = verify_decomposition(spec, x, d)
            assert rep.term_count <= d.term_budget, name
            assert rep.coeff_sum <= d.coeff_budget + 1e-9, name

    def test_budgets_hold_across_scales(self, grid_specs):
        # dilation inputs are only rescaled above the unit ball, so the
        # coefficient budget scales with max(1, ||x||)
        from unispan.algebra import random_complement_element

        for scale in (1e-3, 50.0):
            for name, spec in grid_specs[:8]:
                x = scale * random_complement_element(spec, 1)
                d = type_one_decomp(spec, x)
                rep = verify_decomposition(spec, x, d)
                assert rep.term_count <= d.term_budget, (name, scale)
                assert rep.coeff_sum <= d.coeff_budget + 1e-9, (name, scale)
                assert rep.recon_residual <= 1e-9 * max(1, scale), (name, scale)

    @pytest.mark.parametrize("scale", [1e100, 1e160])
    def test_relative_recon_at_huge_scale(self, scale):
        # relative error measured on the unscaled sum, so no norm of the
        # huge matrices is formed here
        from unispan.algebra import random_complement_element

        spec = TypeISubalgebraSpec.of_blocks([(2, [2]), (2, [2])])
        x = random_complement_element(spec, 3)
        d = type_one_decomp(spec, scale * x)
        recon = sum((t.coeff / scale) * t.unitary for t in d.terms)
        assert linalg.hs_norm(recon - x) <= 1e-13 * linalg.hs_norm(x)

    def test_unsupported_rules(self):
        with pytest.raises(UnsupportedConfiguration) as exc:
            type_one_decomp(TypeISubalgebraSpec.atoms((1, 2)), np.zeros((3, 3)))
        assert exc.value.rule == "isolated-even-atom"
        with pytest.raises(UnsupportedConfiguration) as exc:
            type_one_decomp(
                TypeISubalgebraSpec.of_blocks([(2, [2]), (1, [2])]), np.zeros((6, 6))
            )
        assert exc.value.rule == "heterogeneous-atom-dimensions"


class TestVerify:
    def test_exact_hand_built(self):
        d = hand_decomposition([(0.5, S), (0.5, T)])
        rep = verify_decomposition(None, e_unit(2, 0, 1), d)
        assert rep.recon_residual <= 1e-15
        assert rep.max_unitarity_residual <= 1e-15
        assert rep.term_count == 2
        assert rep.coeff_sum == 1.0

    def test_detects_shrunk_unitary(self):
        d = hand_decomposition([(0.5, S), (0.5, 0.999 * T)])
        rep = verify_decomposition(None, d.target, d)
        assert rep.max_unitarity_residual == pytest.approx(1 - 0.999**2, rel=1e-3)

    def test_empty_decomposition_of_zero(self):
        d = Decomposition(None, np.zeros((2, 2), dtype=complex), ())
        rep = verify_decomposition(None, np.zeros((2, 2)), d)
        assert rep.recon_residual == 0
        assert rep.term_count == 0


class TestFaultInjection:
    def test_mutation_breaks_verification(self, rng):
        spec = TypeISubalgebraSpec.scalar(4)
        x = random_complex(rng, (4, 4))
        x -= np.trace(x) / 4 * np.eye(4)
        set_fault_injection(True)
        try:
            d = scalar_case_decomp(x)
        finally:
            set_fault_injection(False)
        rep = verify_decomposition(spec, x, d)
        assert (
            rep.recon_residual > 1e-10 or rep.max_unitarity_residual > 1e-10
        ), "fault injection must be detectable"
