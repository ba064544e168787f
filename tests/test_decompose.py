"""Decomposition-engine tests.

Every construction is checked against :func:`verify_decomposition`, which
recomputes sums and residuals independently of the construction code.
Exact expected term lists come from hand arithmetic; combinatorial helpers
are checked against brute-force enumeration.
"""

import dataclasses
import inspect
import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import e_unit, oracle_specs, random_complex, random_hermitian, random_unitary
from unispan import algebra, decompose, harness, linalg
from unispan.algebra import TypeISubalgebraSpec, membership_residual
from unispan.decompose import (
    MERGE_TOL,
    RECON_TOL,
    TERM_TOL,
    Decomposition,
    Provenance,
    VerificationReport,
    canonical_trace_zero_unitary,
    four_unitary,
    masa_quadrant_decomp,
    selfadjoint_corner_dilation,
    set_fault_injection,
    type_one_decomp,
    verify_decomposition,
)
from unispan.harness import report_within
from unispan.selftest import expectation_axioms_suite, spec_grid
from unispan.serialize import (
    canonical_dumps,
    canonical_loads,
    decomposition_from_json,
    decomposition_to_json,
)
from unispan.errors import (
    DimensionMismatch,
    NotDivisibleBy4,
    NotInComplement,
    NotTraceZero,
    UnispanError,
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
    """The terms of ``d``, a decomposition or raw term stacks, are
    ``expected`` up to order."""
    assert len(d.coeffs) == len(expected)
    remaining = list(expected)
    for c, w in zip(d.coeffs.tolist(), d.unitaries):
        for i, (coeff, u) in enumerate(remaining):
            if np.allclose(w, u, atol=atol) and abs(c - coeff) <= atol:
                remaining.pop(i)
                break
        else:
            raise AssertionError(f"unexpected term {c}:\n{w}")


class TestTwoUnitary:
    def test_zero_input(self):
        raw = decompose._two_unitary_raw(np.zeros((1, 2, 2)), np.zeros(1, dtype=np.intp), ("",))
        assert_terms_equal(raw, [(0.5, 1j * np.eye(2)), (0.5, -1j * np.eye(2))])

    def test_half_spectrum(self):
        raw = decompose._two_unitary_raw(np.diag([0.5, -0.5])[None], np.zeros(1, dtype=np.intp),
                                         ("",))
        u = np.diag([np.exp(1j * np.pi / 3), np.exp(2j * np.pi / 3)])
        assert_terms_equal(raw, [(0.5, u), (0.5, u.conj().T)])

    def test_selfadjoint_unitary_degenerate(self):
        x = np.diag([1.0, -1.0])
        raw = decompose._two_unitary_raw(x[None], np.zeros(1, dtype=np.intp), ("",))
        assert raw.coeffs.tolist() == [0.5, 0.5]
        for u in raw.unitaries:
            np.testing.assert_allclose(u, x, atol=1e-14)

    def test_random_reconstruction(self, rng):
        # one call per size decomposes a stack of contractions, each into
        # the pair that its owner index and its stage name
        for n in range(1, 9):
            hs = np.array([random_hermitian(rng, n) for _ in range(4)])
            hs /= linalg.operator_norm(hs)[:, None, None]
            raw = decompose._two_unitary_raw(hs, np.arange(4), ("a", "b", "c", "d"))
            assert raw.owner.tolist() == [0, 0, 1, 1, 2, 2, 3, 3]
            assert raw.stages == ("a", "a", "b", "b", "c", "c", "d", "d")
            recon = (raw.coeffs[:, None, None] * raw.unitaries).reshape(4, 2, n, n).sum(axis=1)
            assert np.max(linalg.hs_norm(recon - hs)) <= 1e-12
            assert np.max(linalg.unitarity_residual(raw.unitaries)) <= 1e-12


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


class TestUnitaryMultiples:
    def test_split_with_and_without_the_trace_test(self):
        # zero, a unitary multiple with trace, a trace-free unitary
        # multiple and a matrix that is neither
        x = np.array([np.zeros((2, 2)), 2.0 * np.eye(2), 3.0 * np.diag([1.0, -1.0]),
                      [[1.0, 2.0], [0.0, 1.0]]], dtype=complex)
        for trace_free, fast, slow in ((False, [1, 2], [3]), (True, [2], [1, 3])):
            multiples, rest = decompose._unitary_multiples(x, trace_free)
            assert multiples.owner.tolist() == fast
            assert rest.tolist() == slow
            assert multiples.stages == ("unitary-multiple",) * len(fast)
            recon = multiples.coeffs[:, None, None] * multiples.unitaries
            np.testing.assert_allclose(recon, x[fast], atol=1e-15)

    def test_zero_stack_gives_no_terms(self):
        multiples, rest = decompose._unitary_multiples(np.zeros((3, 2, 2), dtype=complex))
        assert len(multiples.coeffs) == len(rest) == 0
        assert multiples.unitaries.shape == (0, 2, 2)


@settings(max_examples=25, deadline=None)
@given(
    arrays(np.float64, (4, 4), elements=st.floats(-5, 5)),
    arrays(np.float64, (4, 4), elements=st.floats(-5, 5)),
)
# subnormal operator norms, of x and of its real part (1/s overflows)
@example(np.zeros((4, 4)), np.full((4, 4), 2.2250738585e-311))
@example(np.diag([5e-324, 0.0, 0.0, 0.0]), np.diag([1.0, 2.0, 3.0, 4.0]))
def test_four_unitary_property(re, im):
    x = re + 1j * im
    d = four_unitary(x)
    rep = verify_decomposition(None, x, d)
    assert rep.term_count <= 4
    assert rep.recon_residual <= 1e-11 * max(1.0, linalg.hs_norm(x))
    assert rep.coeff_sum <= 2 * linalg.operator_norm(x) + 1e-9
    assert rep.max_unitarity_residual <= 1e-12


class TestDerangement:
    def test_against_brute_force(self):
        for count in range(2, 8):
            for alpha in range(count):
                for beta in range(count):
                    if alpha == beta:
                        continue
                    got = decompose._derangement(count, alpha, beta)
                    candidates = [
                        p
                        for p in itertools.permutations(range(count))
                        if p[alpha] == beta and all(p[i] != i for i in range(count))
                    ]
                    assert tuple(got.tolist()) == min(candidates), (count, alpha, beta)


class TestZeroPieceDiagonal:
    """The block-permutation stage, reached through layouts whose
    complement elements have no atom part: their cross part is all of
    them."""

    def test_single_unit(self):
        x = e_unit(2, 0, 1)
        d = type_one_decomp(TypeISubalgebraSpec.masa(2), x)
        assert_terms_equal(d, [(0.5, S), (0.5, T)])

    def test_merged_masa_pair(self):
        x = np.array([[0, 2], [3, 0]], dtype=complex)
        d = type_one_decomp(TypeISubalgebraSpec.masa(2), x)
        assert_terms_equal(d, [(2.5, S), (-0.5, T)])
        assert verify_decomposition(None, x, d).recon_residual == 0

    def test_unitary_block_pair(self, rng):
        v = random_unitary(rng, 2)
        x = np.zeros((4, 4), dtype=complex)
        x[:2, 2:] = v
        d = type_one_decomp(TypeISubalgebraSpec.atoms((2, 2)), x)
        expected_plus = np.block([[np.zeros((2, 2)), v], [np.eye(2), np.zeros((2, 2))]])
        expected_minus = np.block([[np.zeros((2, 2)), v], [-np.eye(2), np.zeros((2, 2))]])
        assert_terms_equal(d, [(0.5, expected_plus), (0.5, expected_minus)])

    def test_noncontiguous_pieces(self, rng):
        # M_2 (x) (C + C): the two atoms sit on the indices [0, 2] and [1, 3]
        spec = TypeISubalgebraSpec.of_blocks([(2, [1, 1])])
        assert algebra.layout_plan(spec.blocks).pieces.tolist() == [[0, 2], [1, 3]]
        x = np.zeros((4, 4), dtype=complex)
        x[np.ix_([0, 2], [1, 3])] = random_complex(rng, (2, 2))
        d = type_one_decomp(spec, x)
        assert {t.stage.split("(")[0] for t in d.terms} == {"cross-block"}
        rep = verify_decomposition(spec, x, d)
        assert rep.recon_residual <= 1e-14
        assert rep.max_unitarity_residual <= 1e-13
        assert rep.max_membership_residual <= 1e-13

    def test_random_many_pieces(self, rng):
        for spec in (TypeISubalgebraSpec.masa(3), TypeISubalgebraSpec.masa(5),
                     TypeISubalgebraSpec.atoms((2, 2, 2, 2))):
            pieces = algebra.layout_plan(spec.blocks).pieces
            n = spec.dimension
            x = random_complex(rng, (n, n))
            for p in pieces:
                x[np.ix_(p, p)] = 0
            d = type_one_decomp(spec, x)
            rep = verify_decomposition(spec, x, d)
            assert rep.recon_residual <= 1e-13
            assert rep.max_unitarity_residual <= 1e-13
            assert rep.term_count <= 8 * len(pieces) * (len(pieces) - 1) <= d.term_budget
            for t in d.terms:
                for p in pieces:
                    assert np.max(np.abs(t.unitary[np.ix_(p, p)])) == 0


def all_pairs_zero_piece_raw(x, pieces):
    """The zero-piece-diagonal construction as a loop over all block pairs."""
    n = x.shape[0]
    rows = np.array(pieces)
    count, g = rows.shape
    pad = np.eye(g, dtype=np.complex128)[None]
    parts = []
    for alpha in range(count):
        others = np.arange(count) != alpha
        for beta in range(count):
            if alpha == beta:
                continue
            target = (rows[alpha, :, None], rows[beta, None, :])
            block = x[target]
            if not np.any(block):
                continue
            entry = decompose._four_unitary_raw(block[None])
            sigma = decompose._derangement(count, alpha, beta)
            pads = ((slice(None), rows[others, :, None], rows[sigma[others], None, :]), pad)
            stages = (f"cross-block({alpha},{beta})",) * len(entry.coeffs)
            parts.append(decompose._padded_pairs(entry, n, (slice(None),) + target, pads,
                                                 Provenance.ZERO_DIAG, stages))
    return decompose._cat(n, parts)


def cross_part_cases(rng):
    """``(name, x, pieces)``: the cross-atom part and gcd pieces of every
    grid spec and of a conjugated c4 (in standard position), for a Gaussian
    input and for each of its single matrix units."""
    c4 = TypeISubalgebraSpec.of_blocks([(2, [2]), (2, [2])], conjugation=random_unitary(rng, 8))
    for name, spec in spec_grid() + [("c4-conjugated", c4)]:
        n = spec.dimension
        atoms = algebra.layout_plan(spec.blocks).atoms
        g = np.gcd.reduce([a.dim for a in atoms])
        pieces = [a.indices[s : s + g] for a in atoms for s in range(0, a.dim, g)]
        if len(pieces) < 2:
            continue
        mask = np.ones((n, n), dtype=bool)
        for a in atoms:
            mask[np.ix_(a.indices, a.indices)] = False
        x = algebra.random_complement_element(spec, 3)
        if spec.conjugation is not None:
            x = spec.conjugation.conj().T @ x @ spec.conjugation
        yield name, np.where(mask, x, 0), pieces
        for i, j in zip(*np.nonzero(mask)):
            yield f"{name}-unit({i},{j})", e_unit(n, i, j), pieces


class TestZeroPieceOracle:
    def test_matches_all_pairs_loop(self, rng):
        for name, x, pieces in cross_part_cases(rng):
            got = decompose._zero_piece_raw(x[None], np.array(pieces))
            want = all_pairs_zero_piece_raw(x, pieces)
            assert got.coeffs.tobytes() == want.coeffs.tobytes(), name
            assert got.unitaries.tobytes() == want.unitaries.tobytes(), name
            assert (got.provenance, got.stages) == (want.provenance, want.stages), name

    def test_memoized_derangement_is_read_only(self):
        sigma = decompose._derangement(5, 3, 1)
        assert sigma is decompose._derangement(5, 3, 1)
        assert sigma.tolist() == [2, 0, 4, 1, 3]
        with pytest.raises(ValueError):
            sigma[0] = 0


def merge_input(raw, owner=0):
    """``_merge_raw``'s arguments for a list of ``(coeff, unitary, prov,
    stage)`` whose terms all belong to ``owner``."""
    return (np.array([c for c, _, _, _ in raw], dtype=complex),
            np.array([u for _, u, _, _ in raw], dtype=complex),
            np.full(len(raw), owner, dtype=np.intp))


def reference_merge(terms):
    """The merge that compares every term with every earlier cluster, kept
    as the reference for the keyed ``_merge_raw``.  Returns
    ``(summed coeff, index of the cluster's first term)`` per cluster."""
    if not terms:
        return []
    flat = np.array([u for _, u, _, _ in terms]).reshape(len(terms), -1)
    mags = np.abs(flat)
    peaks = mags.max(axis=1)
    pivots = np.argmax(mags >= 0.5 * peaks[:, None], axis=1)
    canon = np.empty_like(flat)  # phase-canonical rows of the clusters
    reps = []  # [summed coeff, index of the verbatim unitary, phase]
    for i, ((coeff, _, _, _), row, peak, pivot) in enumerate(zip(terms, flat, peaks, pivots)):
        if peak == 0.0:
            continue
        phase = row[pivot] / abs(row[pivot])
        uc = row * np.conj(phase)
        hits = np.flatnonzero(
            np.max(np.abs(uc - canon[: len(reps)]), axis=1) <= MERGE_TOL
        )
        if hits.size:
            rep = reps[hits[0]]
            rep[0] += coeff * phase / rep[2]
        else:
            canon[len(reps)] = uc
            reps.append([coeff, i, phase])
    top = max((abs(r[0]) for r in reps), default=0.0)
    if top == 0.0:
        return []
    return [(c, i) for c, i, _ in reps if abs(c) > 1e-15 * top]


def merge_case(rng, n=None):
    """A shuffled raw term list of ``n x n`` unitaries (``n`` drawn from 1
    to 4 unless given) built to stress the merge: ``(+v, -v)`` padding
    pairs, unit-modulus multiples, zero unitaries, cancelling coefficients
    and perturbations on both sides of ``MERGE_TOL``."""
    n = int(rng.integers(1, 5)) if n is None else n
    m = Provenance.MASTER
    bases = [random_unitary(rng, n) for _ in range(3)]
    bases.append(np.eye(n)[rng.permutation(n)] * rng.choice([-1.0, 1.0], n))
    raw = []
    for _ in range(int(rng.integers(1, 30))):
        u = bases[int(rng.integers(len(bases)))].astype(complex)
        c = complex(*rng.standard_normal(2))
        kind = int(rng.integers(6))
        if kind == 0:  # a padding pair: the same unitary with a block negated
            v = u.copy()
            v[: n // 2 + 1] *= -1.0
            raw += [(c, u.copy(), m, "pad+"), (c, v, m, "pad-")]
        elif kind == 1:
            raw.append((c, np.exp(1j * rng.uniform(0, 2 * np.pi)) * u, m, "phase"))
        elif kind == 2:
            raw.append((c, np.zeros((n, n), dtype=complex), m, "zero"))
        elif kind == 3:  # cancels the first term of this unitary up to rounding
            theta = rng.uniform(0, 2 * np.pi)
            raw += [(c, u.copy(), m, "c"),
                    (-c * np.exp(-1j * theta), np.exp(1j * theta) * u, m, "-c")]
        elif kind == 4:
            v = u.copy()
            v[rng.integers(n), rng.integers(n)] += rng.choice([0.5, 0.99, 1.01, 1.5]) * MERGE_TOL
            raw.append((c, v, m, "perturbed"))
        else:
            raw.append((c, u.copy(), m, "plain"))
    return [raw[i] for i in rng.permutation(len(raw))]


class TestMerge:
    def test_keyed_merge_matches_reference(self, rng):
        merged = 0
        for _ in range(300):
            raw = merge_case(rng)
            coeffs, kept = decompose._merge_raw(*merge_input(raw))
            ref = reference_merge(raw)
            assert kept.tolist() == [i for _, i in ref]
            assert coeffs.tobytes() == np.array([c for c, _ in ref], dtype=complex).tobytes()
            merged += len(raw) - len(ref)
        assert merged > 300  # the lists do merge, so the clusters are exercised

    def test_merge_rule(self):
        a = np.diag([1.0, -1.0]).astype(complex)
        b = np.diag([1.0, -1.0 + 1.5 * MERGE_TOL]).astype(complex)
        c = np.diag([1.0, -1.0 + 0.75 * MERGE_TOL]).astype(complex)  # near a and b
        w = 1j * S
        m = Provenance.MASTER
        raw = [
            (1.0, a, m, "a"),
            (0.25, b, m, "b"),
            (0.5, c, m, "c"),
            (-0.75, w, m, "w"),
            (5.0, np.zeros((2, 2), dtype=complex), m, "zero"),
            (1.0, T, m, "t"),
            (0.75, -w, m, "-w"),
            (1.0, -T, m, "-t"),
            (0.5, np.eye(2, dtype=complex), m, "e"),
            (0.25, 1j * np.eye(2), m, "ie"),  # folds in with its phase i
        ]
        coeffs, kept = decompose._merge_raw(*merge_input(raw))
        assert [(c, raw[i][3]) for c, i in zip(coeffs.tolist(), kept.tolist())] == [
            (1.5, "a"), (0.25, "b"), (-1.5, "w"), (0.5 + 0.25j, "e")
        ]
        # each cluster keeps its first term's unitary verbatim: a, b and w
        assert kept.tolist()[:3] == [0, 1, 3]

    def test_stacked_merge_matches_reference_per_owner(self, rng):
        n = 3
        m = Provenance.MASTER
        u = random_unitary(rng, n)
        for _ in range(40):
            same = merge_case(rng, n)
            lists = {
                0: merge_case(rng, n),
                2: same,  # owner 1 has no terms
                3: same,  # the same list under a second owner
                4: [(complex(*rng.standard_normal(2)), np.zeros((n, n), dtype=complex), m, "z")
                    for _ in range(3)],
                # five phase multiples of one unitary: a run of five close keys
                5: [(complex(*rng.standard_normal(2)),
                     np.exp(1j * rng.uniform(0, 2 * np.pi)) * u, m, "phase") for _ in range(5)]
                   + merge_case(rng, n),
                # the same rule at other scales: the drop threshold is per owner
                7: [(1e-20 * c, v, p, t) for c, v, p, t in merge_case(rng, n)],
                8: [(1e20 * c, v, p, t) for c, v, p, t in merge_case(rng, n)],
            }
            parts = [merge_input(raw, owner) for owner, raw in lists.items()]
            coeffs, kept = decompose._merge_raw(*(np.concatenate(f) for f in zip(*parts)))
            want_kept, want_coeffs, offset = [], [], 0
            for raw in lists.values():
                ref = reference_merge(raw)
                want_kept += [offset + i for _, i in ref]
                want_coeffs += [c for c, _ in ref]
                offset += len(raw)
            assert kept.tolist() == want_kept
            assert coeffs.tobytes() == np.array(want_coeffs, dtype=complex).tobytes()


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


def scalar_decomp(x):
    """The single-even-atom construction against the scalars ``C*1_m``."""
    return type_one_decomp(TypeISubalgebraSpec.scalar(len(x)), x)


class TestScalarCase:
    def test_trace_zero_unitary_fast_path(self):
        x = np.diag([1.0, -1.0])
        d = scalar_decomp(x)
        assert_terms_equal(d, [(1.0, x)])

    def test_worked_two_by_two(self):
        x = np.array([[1, 2], [3, -1]], dtype=complex)
        d = scalar_decomp(x)
        assert_terms_equal(
            d, [(1.0, np.diag([1.0, -1.0])), (2.5, S), (-0.5, T)]
        )
        assert verify_decomposition(None, x, d).recon_residual == 0

    def test_random_m4_all_unitaries_trace_zero(self, rng):
        spec = TypeISubalgebraSpec.scalar(4)
        for _ in range(10):
            x = random_complex(rng, (4, 4))
            x -= np.trace(x) / 4 * np.eye(4)
            d = scalar_decomp(x)
            rep = verify_decomposition(spec, x, d)
            assert rep.recon_residual <= 1e-10
            assert rep.max_unitarity_residual <= 1e-12
            assert rep.max_membership_residual <= 1e-10
            for t in d.terms:
                assert abs(np.trace(t.unitary)) <= 1e-10 * 4

    def test_subnormal_operator_norm(self):
        x = 1e-310 * np.diag([1.0, -1.0, 2.0, -2.0])  # 1/||x|| overflows
        rep = verify_decomposition(None, x, scalar_decomp(x))
        assert rep.recon_residual <= 1e-10
        assert rep.max_unitarity_residual <= 1e-12

    def test_errors(self):
        with pytest.raises(NotInComplement):
            scalar_decomp(np.eye(2))
        with pytest.raises(UnsupportedConfiguration) as exc:
            scalar_decomp(np.diag([1.0, 1.0, -2.0]))
        assert exc.value.rule == "odd-atom-rank"

    def test_atom_trace_not_zero(self):
        # the membership check is relative to ||x||_2, so a trace of 1e-5
        # inside one atom of a large input passes it; the atom's own
        # trace check then rejects the block
        spec = TypeISubalgebraSpec.atoms((2, 2))
        x = np.zeros((4, 4), dtype=complex)
        x[0, 2] = 1e6
        x[0, 0] = 1e-5
        assert membership_residual(spec, x) <= RECON_TOL * linalg.hs_norm(x)
        with pytest.raises(NotTraceZero):
            type_one_decomp(spec, x)


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
                    assert rep.term_count <= d.term_budget
                    assert rep.coeff_sum <= d.coeff_budget + 1e-9
                    np.testing.assert_allclose(d.reconstruction(), x, atol=1e-10)

    def test_errors(self):
        with pytest.raises(NotDivisibleBy4):
            masa_quadrant_decomp(np.zeros((6, 6)))
        with pytest.raises(NotInComplement):
            masa_quadrant_decomp(np.eye(4))
        with pytest.raises(NotInComplement):  # the gate comes before 4 | n
            masa_quadrant_decomp(np.eye(6))

    def test_diagonal_inside_the_gate_is_dropped(self):
        # both masa paths share type_one_stack's gate: a diagonal entry of
        # 5e-10 passes it, and neither path carries it into a unitary
        for n in (4, 8):
            spec = TypeISubalgebraSpec.masa(n)
            x = algebra.random_complement_element(spec, 0)
            x[0, 0] = 5e-10
            caller = x.copy()
            for d in (masa_quadrant_decomp(x), type_one_decomp(spec, x)):
                assert report_within(verify_decomposition(spec, x, d))
                assert np.array_equal(d.target, caller)
                assert np.all(np.diagonal(d.unitaries, axis1=1, axis2=2) == 0.0)
            assert np.array_equal(x, caller)

    def test_matches_the_pair_loop(self, rng):
        """The stacked body gives the bits of a loop over the two slot pairs
        and the real and imaginary parts, one pair of terms at a time."""

        def selfadjoint_parts(z):
            zc = z.conj().T
            return (((z + zc) / 2.0, 1.0, "real"), ((z - zc) / 2.0j, 1.0j, "imag"))

        def loop(x):
            n = len(x)
            q = n // 4
            quads = np.arange(n).reshape(4, q)
            remainder = x.copy()
            remainder[quads[:, :, None], quads[:, None, :]] = 0.0
            terms = []
            for pair in (((0, 3, 2), (1, 2, 3)), ((2, 1, 0), (3, 0, 1))):
                blocks = [x[np.ix_(quads[slot], quads[slot])] for slot, _, _ in pair]
                for (pa, mult, tag), (pb, _, _) in zip(*map(selfadjoint_parts, blocks)):
                    if not (np.any(pa) or np.any(pb)):
                        continue
                    s = max(1.0, linalg.operator_norm(pa), linalg.operator_norm(pb))
                    u = np.zeros((2, n, n), dtype=complex)
                    for (slot, row2, col2), p in zip(pair, (pa, pb)):
                        u1, u2, u3 = selfadjoint_corner_dilation(p / s)
                        rows, cols = quads[[slot, row2]].ravel(), quads[[slot, col2]].ravel()
                        u[:, rows[:, None], cols[None, :]] = (u1, u2)
                        remainder[np.ix_(quads[slot], quads[col2])] -= mult * s * u3[:q, q:]
                    terms += [(mult * s / 2.0, w, f"quadrant-{tag}") for w in u]
            coeffs, unitaries, stages = zip(*terms) if terms else ((), np.zeros((0, n, n)), ())
            dilations = decompose._Terms(
                np.array(coeffs, dtype=complex), np.array(unitaries, dtype=complex),
                (Provenance.DILATION,) * len(terms), stages, np.zeros(len(terms), dtype=np.intp))
            raw = decompose._cat(n, [dilations, decompose._zero_piece_raw(remainder[None], quads)])
            return decompose._assemble(None, x[None], raw, None, [None])[0]

        for n in (4, 8, 12):
            x = random_complex(rng, (n, n))
            zero_pair = x.copy()
            zero_pair[: n // 2, : n // 2] = 0.0  # the blocks of slots 0 and 1
            for y in (x, x.real, 1j * x.imag, x + x.conj().T, zero_pair):
                y = np.array(y, dtype=complex)
                np.fill_diagonal(y, 0.0)
                d, ref = masa_quadrant_decomp(y), loop(y)
                assert (d.provenance, d.stages) == (ref.provenance, ref.stages)
                assert d.coeffs.tobytes() == ref.coeffs.tobytes()
                assert d.unitaries.tobytes() == ref.unitaries.tobytes()


def layout_witness(spec):
    """The complement unitary ``algebra._witness_on`` builds on all atoms of
    ``spec`` in standard position, or ``None``."""
    return algebra._witness_on(spec.dimension, algebra.layout_plan(spec.blocks).atoms)


class TestWitness:
    def test_masa_two(self):
        np.testing.assert_allclose(layout_witness(TypeISubalgebraSpec.masa(2)), S)

    def test_scalar_three(self):
        w = layout_witness(TypeISubalgebraSpec.scalar(3))
        omega = np.exp(2j * np.pi / 3)
        np.testing.assert_allclose(np.diag(w), [1, omega, omega**2], atol=1e-14)

    def test_scalar_four(self):
        w = layout_witness(TypeISubalgebraSpec.scalar(4))
        np.testing.assert_allclose(np.diag(w), [1, 1j, -1, -1j], atol=1e-14)

    def test_membership_on_grid(self, grid_specs):
        for name, spec in grid_specs:
            w = layout_witness(spec)
            assert linalg.unitarity_residual(w) <= 1e-12, name
            assert membership_residual(spec, w) <= 1e-12, name

    def test_completion_pads_on_grid(self, grid_specs):
        # the pad of an even atom is a witness on the other atoms: zero on
        # the atom's own block, unitary once the atom's identity is added
        padded = 0
        for name, spec in grid_specs:
            plan = algebra.layout_plan(spec.blocks)
            for a, pad in zip(plan.atoms, plan.pads):
                if pad is None:
                    continue
                padded += 1
                own = np.zeros_like(pad)
                own[a.indices, a.indices] = 1.0
                assert not np.any(pad[np.ix_(a.indices, a.indices)]), name
                assert linalg.unitarity_residual(pad + own) <= 1e-12, name
                assert membership_residual(spec, pad) <= 1e-12, name
        assert padded

    def test_single_point_masa_has_no_witness(self):
        assert layout_witness(TypeISubalgebraSpec.masa(1)) is None


def hand_decomposition(terms):
    target = sum(c * u for c, u in terms)
    return Decomposition(
        None,
        target,
        [c for c, _ in terms],
        [np.asarray(u, dtype=complex) for _, u in terms],
        (Provenance.MASTER,) * len(terms),
        ("",) * len(terms),
    )


def trace_free_unitary(rng):
    """A random ``2 x 2`` unitary with zero trace."""
    w = random_unitary(rng, 2)
    return w @ np.diag([1.0, -1.0]) @ w.conj().T


def entry_block(k, s, t, u):
    """The ``2k x 2k`` matrix with ``u`` in entry ``(s, t)`` (1-based) of a
    ``k x k`` grid of ``2 x 2`` blocks, zero elsewhere: a complement
    element of ``M_k (x) 1_2`` when ``u`` has zero trace."""
    x = np.zeros((2 * k, 2 * k), dtype=complex)
    x[2 * (s - 1) : 2 * s, 2 * (t - 1) : 2 * t] = u
    return x


class TestAmplify:
    """The entry-move stage, reached through one atom ``M_k (x) 1_2`` and a
    trace-free unitary entry, which the scalar case keeps as one term; the
    pad is ``canonical_trace_zero_unitary(2)``."""

    def test_identity_of_the_trick(self, rng):
        u = trace_free_unitary(rng)
        v = canonical_trace_zero_unitary(2)
        x = entry_block(2, 1, 1, u)
        d = type_one_decomp(TypeISubalgebraSpec.of_blocks([(2, [2])]), x)
        np.testing.assert_allclose(d.reconstruction(), x, atol=1e-13)
        assert_terms_equal(
            d,
            [
                (0.5, np.block([[u, np.zeros((2, 2))], [np.zeros((2, 2)), v]])),
                (0.5, np.block([[u, np.zeros((2, 2))], [np.zeros((2, 2)), -v]])),
            ],
        )

    def test_sigma3_padding_example(self):
        s3 = np.diag([1.0, -1.0]).astype(complex)
        d = type_one_decomp(TypeISubalgebraSpec.of_blocks([(2, [2])]), entry_block(2, 1, 1, s3))
        assert_terms_equal(
            d,
            [(0.5, np.diag([1.0, -1, 1, -1])), (0.5, np.diag([1.0, -1, -1, 1]))],
        )
        for t in d.terms:
            assert abs(np.trace(t.unitary[:2, :2])) == 0
            assert abs(np.trace(t.unitary[2:, 2:])) == 0

    @pytest.mark.parametrize("k, s, t", [(k, s, t) for k in (2, 3, 4)
                                         for s in range(1, k + 1) for t in range(1, k + 1)])
    def test_move_bookkeeping_oracle(self, rng, k, s, t):
        # oracle: build the expected matrices with explicit permutations;
        # s = t and slot 1 are where a slot swap degenerates to the identity
        u = trace_free_unitary(rng)
        v = canonical_trace_zero_unitary(2)
        x = entry_block(k, s, t, u)
        d = type_one_decomp(TypeISubalgebraSpec.of_blocks([(k, [2])]), x)
        left = np.eye(k)
        left[[0, s - 1]] = left[[s - 1, 0]]
        right = np.eye(k)
        right[:, [0, t - 1]] = right[:, [t - 1, 0]]
        expected = []
        for sign in (1.0, -1.0):
            blocks = np.kron(np.diag([0.0] + [sign] * (k - 1)), v)
            blocks[:2, :2] = u
            expected.append(
                (0.5, np.kron(left, np.eye(2)) @ blocks @ np.kron(right, np.eye(2)))
            )
        assert_terms_equal(d, expected)
        assert {t.stage for t in d.terms} == {f"entry-move({s},{t})"}
        np.testing.assert_allclose(d.reconstruction(), x, atol=1e-13)


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


def same_decomposition(a, b) -> bool:
    """Every field of two decompositions has the same bit pattern."""
    return (
        a.spec is b.spec
        and all(getattr(a, f).shape == getattr(b, f).shape
                and getattr(a, f).tobytes() == getattr(b, f).tobytes()
                for f in ("target", "coeffs", "unitaries"))
        and (a.provenance, a.stages, a.term_budget) == (b.provenance, b.stages, b.term_budget)
        and np.float64(a.coeff_budget).tobytes() == np.float64(b.coeff_budget).tobytes()
    )


def mixed_targets(spec):
    """Complement elements of ``spec``: Gaussian ones at two scales, a zero
    target and a unitary multiple (the fast path)."""
    n = spec.dimension
    witness, w = layout_witness(spec), spec.conjugation
    if w is not None:
        witness = w @ witness @ w.conj().T
    return np.array([
        algebra.random_complement_element(spec, 11),
        np.zeros((n, n)),
        0.75 * witness,
        1e-3 * algebra.random_complement_element(spec, 12),
        algebra.random_complement_element(spec, 13),
    ])


class TestNonFiniteInput:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("construct, n", [
        (lambda x: decompose.type_one_stack(TypeISubalgebraSpec.masa(3), [np.zeros((3, 3)), x]), 3),
        (four_unitary, 3),
        (masa_quadrant_decomp, 4),
    ], ids=["type_one_stack", "four_unitary", "masa_quadrant_decomp"])
    def test_rejected_before_any_kernel(self, capfd, construct, n, bad):
        # off the diagonal, where a NaN leaves E_A(x) = 0 and a NaN
        # residual passes the membership gate
        x = np.zeros((n, n), dtype=complex)
        x[0, 1] = bad
        with pytest.raises(UnispanError, match="non-finite"):
            construct(x)
        assert capfd.readouterr().err == ""

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("kernel", [
        linalg.hermitian_eig,
        linalg.sqrt_defect,
        selfadjoint_corner_dilation,
        lambda x: linalg.gram_rank(x[None]),
    ], ids=["hermitian_eig", "sqrt_defect", "selfadjoint_corner_dilation", "gram_rank"])
    def test_eigen_path_refuses(self, capfd, kernel, bad):
        # the one eigen path checks its input before any arithmetic, so an
        # infinity warns nowhere and a NaN never reaches LAPACK
        x = np.diag([0.0, 0.5]).astype(complex)
        x[0, 0] = bad
        with pytest.raises(UnispanError, match="non-finite"):
            kernel(x)
        assert capfd.readouterr().err == ""


class TestTypeOneStack:
    def test_each_target_as_if_alone(self, rng):
        fast = set()
        for name, spec in oracle_specs(rng):
            xs = mixed_targets(spec)
            alone = [type_one_decomp(spec, x) for x in xs]
            if any(t.stage == "unitary-multiple" for t in alone[2].terms):
                fast.add(name)
            for order in (slice(None), slice(None, None, -1)):
                stacked = decompose.type_one_stack(spec, xs[order])
                assert len(stacked) == len(xs), name
                assert all(map(same_decomposition, stacked, alone[order])), name
        # the unitary multiple of a lone scalar atom is one fast-path term
        assert {"c2-k1-m2", "c2-k1-m4", "c2-k1-m6"} <= fast

    def test_equal_term_lists_stay_with_their_target(self, rng):
        # x, x, -x and 1j*x give one term list under four owners, which a
        # merge across targets would fold into the first
        for name, spec in oracle_specs(rng):
            x = algebra.random_complement_element(spec, 21)
            xs = np.array([x, x, -x, 1j * x])
            alone = [type_one_decomp(spec, y) for y in xs]
            assert all(map(same_decomposition, decompose.type_one_stack(spec, xs), alone)), name

    def test_mixed_scales_merge_on_their_own(self, rng):
        # each target's drop threshold and key window come from its own terms
        for name, spec in oracle_specs(rng):
            xs = np.array([s * algebra.random_complement_element(spec, 30 + i)
                           for i, s in enumerate((2.0**-40, 1e-3, 1.0, 1e3))])
            alone = [type_one_decomp(spec, y) for y in xs]
            assert all(map(same_decomposition, decompose.type_one_stack(spec, xs), alone)), name

    def test_no_kernel_call_on_an_empty_stack(self, monkeypatch):
        calls = []
        for name in ("operator_norm", "sqrt_defect", "unitarity_residual"):
            kernel = getattr(decompose, name)

            def counted(x, kernel=kernel, name=name):
                calls.append((name, np.shape(x)))
                return kernel(x)

            monkeypatch.setattr(decompose, name, counted)
        for _, spec in spec_grid():
            harness.run_spancert(spec)
        assert calls and not [c for c in calls if c[1][:-2] == (0,)]

    def test_empty_stack(self):
        spec = TypeISubalgebraSpec.masa(3)
        ds = decompose.type_one_stack(spec, np.zeros((0, 3, 3)))
        assert len(ds) == 0 and list(ds) == []

    def test_not_in_complement_names_the_target(self):
        spec = TypeISubalgebraSpec.atoms((2, 2))
        xs = mixed_targets(spec)
        xs[3] = np.eye(4)
        with pytest.raises(NotInComplement, match=r"^target 3: conditional expectation"):
            decompose.type_one_stack(spec, xs)
        with pytest.raises(NotInComplement) as exc:
            decompose.type_one_stack(spec, xs[3:4])
        assert str(exc.value) == (
            "conditional expectation has norm 1.000e+00; project the input first"
        )

    def test_rejects_a_single_matrix(self):
        with pytest.raises(DimensionMismatch):
            decompose.type_one_stack(TypeISubalgebraSpec.masa(2), np.zeros((2, 2)))


# ---------------------------------------------------------------------------
# the construction one part, one atom and one block kind at a time: the
# reference for the stacked rounds of the construction


def selfadjoint_parts(z):
    """``(part, mult, tag)`` for the real and imaginary self-adjoint parts
    of ``z = h + i*k`` (one matrix or a stack), one part at a time."""
    zc = linalg.adjoint(z)
    return (((z + zc) / 2.0, 1.0, "real"), ((z - zc) / 2.0j, 1.0j, "imag"))


def loop_four_unitary_raw(x):
    multiples, slow = decompose._unitary_multiples(x)
    if not slow.size:
        return multiples
    parts = [multiples]
    for part, mult, tag in selfadjoint_parts(x[slow]):
        sp = linalg.operator_norm(part)
        nz = sp != 0.0
        two = decompose._two_unitary_raw(decompose._divide_by_norm(part[nz], sp[nz]), slow[nz],
                                         (f"selfadjoint-split-{tag}",) * int(nz.sum()))
        parts.append(two._replace(coeffs=np.repeat(mult * sp[nz], 2) * two.coeffs))
    return decompose._cat(x.shape[-1], parts)


def loop_zero_piece_raw(x, rows):
    blocks, cells = decompose._grid_blocks(x, rows)
    return decompose._cross_block_raw(x.shape[-1], rows, cells, loop_four_unitary_raw(blocks))


def block_dilation(y):
    r = linalg.sqrt_defect(y)
    zero = np.zeros_like(y)
    return (np.block([[y, r], [-r, y]]), np.block([[y, r], [r, -y]]),
            np.block([[zero, r], [zero, zero]]))


def loop_scalar_case_raw(x):
    m = x.shape[-1]
    multiples, slow = decompose._unitary_multiples(x, trace_free=True)
    if not slow.size:
        return multiples
    parts = [multiples]
    y = x[slow]
    g = m // 2
    corner = np.zeros((len(slow), g, g), dtype=complex)
    for part, mult, tag in selfadjoint_parts(y[:, :g, :g] + y[:, g:, g:]):
        nz = np.flatnonzero(np.any(part, axis=(1, 2)))
        if not nz.size:
            continue
        sp = np.maximum(1.0, linalg.operator_norm(part[nz]))
        u1, u2, u3 = block_dilation(part[nz] / sp[:, None, None])
        count = 2 * len(nz)
        parts.append(decompose._Terms(
            np.repeat(mult * sp / 2.0, 2).astype(complex),
            np.stack((u1, u2), axis=1).reshape(count, m, m), (Provenance.DILATION,) * count,
            (f"diag-dilation-{tag}",) * count, np.repeat(slow[nz], 2)))
        corner[nz] = corner[nz] - (mult * sp)[:, None, None] * u3[:, :g, g:]
    balanced = loop_four_unitary_raw(y[:, g:, g:])
    u = balanced.unitaries
    count = len(u)
    parts.append(decompose._Terms(
        balanced.coeffs, np.block([[-u, np.zeros_like(u)], [np.zeros_like(u), u]]),
        (Provenance.FOUR_UNITARY,) * count, ("balanced-pair",) * count, slow[balanced.owner]))
    offdiag = np.zeros_like(y)
    offdiag[:, :g, g:] = y[:, :g, g:] + corner
    offdiag[:, g:, :g] = y[:, g:, :g]
    cross = loop_zero_piece_raw(offdiag, np.arange(m).reshape(2, g))
    parts.append(cross._replace(owner=slow[cross.owner]))
    return decompose._cat(m, parts)


def loop_type_one_raw(plan, x):
    n = x.shape[-1]
    parts = []
    cross = x.copy()
    for a, pad in zip(plan.atoms, plan.pads):
        block = (slice(None),) + np.ix_(a.indices, a.indices)
        cross[block] = 0.0
        if a.m < 2:
            continue
        if a.k == 1:
            atom_terms = loop_scalar_case_raw(x[block])
        else:
            rows = np.arange(a.dim).reshape(a.k, a.m)
            blocks, cells = decompose._grid_blocks(x[block], rows)
            atom_terms = decompose._block_grid_raw(
                a.dim, rows, cells, loop_scalar_case_raw(blocks), decompose._entry_move,
                canonical_trace_zero_unitary(a.m), Provenance.AMPLIFY,
                lambda s, t: f"entry-move({s + 1},{t + 1})")
        if pad is None:
            parts.append(atom_terms)
            continue
        stages = (f"atom-completion({a.block},{a.atom})",) * len(atom_terms.coeffs)
        parts.append(decompose._padded_pairs(atom_terms, n, block, ((slice(None),), pad),
                                             Provenance.ATOMIC, stages))
    if np.any(cross):
        parts.append(loop_zero_piece_raw(cross, plan.pieces))
    return decompose._cat(n, parts)


class TestConstructionRounds:
    @pytest.mark.parametrize("blocks", [
        [(1, [2, 4, 2])],
        [(2, [2]), (1, [4]), (2, [2])],
        [(2, [2])] * 3,
    ], ids=["atoms-2-4-2", "blocks-2x2-1x4-2x2", "blocks-2x2-2x2-2x2"])
    def test_matches_the_loops(self, blocks):
        """Both self-adjoint parts in one stack, the atoms of one ``(k, m)``
        in one group and the balanced block split with the cross blocks give
        the bits of the loops over parts, atoms and block kinds, for every
        target of a stack, including equal atoms that are not adjacent."""
        spec = TypeISubalgebraSpec.of_blocks(blocks)
        xs = np.array([scale * algebra.random_complement_element(spec, seed)
                       for seed in range(3) for scale in (1.0, 2.0**-40, 1e3)])
        plan = algebra.layout_plan(spec.blocks)
        got = decompose.type_one_stack(spec, xs)
        tb, cf = decompose._type_one_budgets(plan)
        want = decompose._assemble(spec, xs, loop_type_one_raw(plan, xs), tb,
                                   [cf * max(1.0, s) for s in linalg.operator_norm(xs).tolist()])
        assert got.offsets == want.offsets
        assert (got.provenance, got.stages) == (want.provenance, want.stages)
        assert got.coeffs.tobytes() == want.coeffs.tobytes()
        assert got.unitaries.tobytes() == want.unitaries.tobytes()
        assert all(map(same_decomposition, got, want))

    def test_four_unitary_makes_one_eigen_call(self, rng, monkeypatch):
        calls = eigen_calls(monkeypatch)
        four_unitary(random_complex(rng, (3, 3)))
        assert calls == [(2, 3, 3)]  # both self-adjoint parts, in one stack

    def test_two_factor_blocks_make_two_eigen_calls(self, monkeypatch):
        # one for the corner dilations of every entry of both atoms (the
        # 1 x 1 corner sums of trace-free 2 x 2 entries are rounding residue
        # here, 7 of them nonzero), one for the cross-atom blocks; the 1 x 1
        # balanced and cross blocks are unitary multiples and need none
        spec = TypeISubalgebraSpec.of_blocks([(2, [2]), (2, [2])])
        x = algebra.random_complement_element(spec, 0)
        calls = eigen_calls(monkeypatch)
        type_one_decomp(spec, x)
        assert calls == [(7, 1, 1), (4, 4, 4)]


def eigen_calls(monkeypatch):
    """The argument shapes of every :func:`linalg.hermitian_eig` call from here on."""
    calls = []
    kernel = linalg.hermitian_eig

    def counted(h):
        calls.append(np.shape(h))
        return kernel(h)

    monkeypatch.setattr(linalg, "hermitian_eig", counted)
    return calls


class TestDecompositionStack:
    def test_items_are_read_only_views_of_the_pool(self, rng):
        spec = TypeISubalgebraSpec.of_blocks([(2, [2]), (2, [2])])
        xs = mixed_targets(spec)
        ds = decompose.type_one_stack(spec, xs)
        for name in ("targets", "coeffs", "unitaries"):
            assert getattr(ds, name).flags.writeable is False, name
        for i, d in enumerate(ds):
            lo, hi = ds.offsets[i], ds.offsets[i + 1]
            assert d.unitaries.flags.writeable is False and d.coeffs.flags.writeable is False
            if hi > lo:
                assert np.shares_memory(d.unitaries, ds.unitaries)
                assert np.shares_memory(d.coeffs, ds.coeffs)
            assert np.shares_memory(d.target, ds.targets)
            assert (d.coeff_budget, d.term_budget) == (ds.coeff_budgets[i], ds.term_budget)
            with pytest.raises(ValueError):
                d.target[0, 0] = 1.0
        with pytest.raises(ValueError):
            ds.unitaries[0, 0, 0] = 1.0
        # the targets are the stack's own copy
        assert not np.shares_memory(ds.targets, xs)
        xs[0, 0, 1] = 9.0
        assert ds.targets[0, 0, 1] != 9.0

    def test_sequence_protocol(self):
        spec = TypeISubalgebraSpec.of_blocks([(1, [2, 2])])
        xs = mixed_targets(spec)
        ds = decompose.type_one_stack(spec, xs)
        assert len(ds) == len(xs) == len(list(ds))
        for i in range(len(ds)):
            assert same_decomposition(ds[i - len(ds)], ds[i])
        with pytest.raises(TypeError):
            ds[1:3]
        for i in (len(ds), -len(ds) - 1):
            with pytest.raises(IndexError):
                ds[i]
        d, d2 = decompose.type_one_stack(spec, xs[:2])
        assert same_decomposition(d, ds[0]) and same_decomposition(d2, ds[1])

    def test_inconsistent_offsets_are_rejected(self):
        spec = TypeISubalgebraSpec.masa(3)
        ds = decompose.type_one_stack(spec, mixed_targets(spec))
        for offsets in (ds.offsets[:-1], (1,) + ds.offsets[1:], ds.offsets[:-1] + (0,)):
            with pytest.raises(DimensionMismatch):
                dataclasses.replace(ds, offsets=offsets)


def certificate_parts(spec):
    """The complement basis of ``spec``, its decomposition stack and the
    verifier's report, as :func:`harness.run_spancert` makes them."""
    basis = algebra.complement_basis(spec)
    ds = decompose.type_one_stack(spec, basis)
    return basis, ds, verify_decomposition(spec, basis, ds)


def with_terms(ds, i, coeffs, unitaries):
    """``ds`` with target ``i``'s terms replaced by ``coeffs, unitaries``."""
    lo, hi = ds.offsets[i], ds.offsets[i + 1]
    shift = len(coeffs) - (hi - lo)
    return dataclasses.replace(
        ds,
        coeffs=np.concatenate((ds.coeffs[:lo], coeffs, ds.coeffs[hi:])),
        unitaries=np.concatenate((ds.unitaries[:lo], unitaries, ds.unitaries[hi:])),
        offsets=ds.offsets[: i + 1] + tuple(o + shift for o in ds.offsets[i + 1 :]),
        provenance=ds.provenance[:lo] + (Provenance.MASTER,) * len(coeffs) + ds.provenance[hi:],
        stages=ds.stages[:lo] + ("",) * len(coeffs) + ds.stages[hi:],
    )


@pytest.fixture
def gram_calls(monkeypatch):
    """The argument shapes of every :func:`gram_rank` call the harness makes."""
    calls = []

    def counted(mats, rank_tol=linalg.RANK_TOL):
        calls.append(np.shape(mats))
        return linalg.gram_rank(mats, rank_tol=rank_tol)

    monkeypatch.setattr(harness, "gram_rank", counted)
    return calls


class TestSpanRank:
    def test_bound_decides_where_gram_rank_gives_n(self, rng, gram_calls):
        conjugated = [
            TypeISubalgebraSpec.of_blocks(blocks, conjugation=random_unitary(rng, n))
            for blocks, n in (([(1, [1] * 4)], 4), ([(1, [1, 1, 2])], 4),
                              ([(2, [2]), (2, [2])], 8))
        ]
        extra = [TypeISubalgebraSpec.masa(16), TypeISubalgebraSpec.of_blocks([(4, [4])]),
                 TypeISubalgebraSpec.of_blocks([(3, [2])])]
        for spec in [spec for _, spec in spec_grid()] + extra + conjugated:
            basis, ds, rep = certificate_parts(spec)
            assert harness.span_rank(basis, ds, rep) == len(basis), spec
            assert not gram_calls, spec
            assert linalg.gram_rank(ds.unitaries) == len(basis), spec

    def test_undecided_bound_falls_back_to_gram_rank(self, gram_calls):
        # each doctored pool puts one input of the bound out of its range:
        # target 0 loses its terms (sqrt(N) eps >= 1), or gains a cancelling
        # pair of size 1e6 (S c large) or of identities (delta = 1, and the
        # identity's direction, which only the membership bound sees)
        for blocks in ([(1, [1] * 4)], [(2, [2])], [(2, [2]), (2, [2])]):
            spec = TypeISubalgebraSpec.of_blocks(blocks)
            basis, ds, _ = certificate_parts(spec)
            d, size, one = ds[0], len(basis), np.eye(spec.dimension)[None]
            cases = [
                (with_terms(ds, 0, np.zeros(0), d.unitaries[:0]),
                 lambda rep: np.sqrt(size) * rep.recon_residual >= 1.0, None),
                (with_terms(ds, 0, np.r_[d.coeffs, 1e6, -1e6],
                            np.concatenate((d.unitaries, d.unitaries[:1], d.unitaries[:1]))),
                 lambda rep: report_within(rep) and rep.coeff_sum > 1e6, size),
                (with_terms(ds, 0, np.r_[d.coeffs, 0.5, -0.5],
                            np.concatenate((d.unitaries, one, one))),
                 lambda rep: rep.max_membership_residual == 1.0 and report_within(
                     dataclasses.replace(rep, max_membership_residual=0.0)), size + 1),
            ]
            for pool, premise, expected in cases:
                rep = verify_decomposition(spec, basis, pool)
                assert premise(rep), blocks
                rank = harness.span_rank(basis, pool, rep)
                assert gram_calls == [pool.unitaries.shape], blocks
                assert rank == linalg.gram_rank(pool.unitaries), blocks
                assert expected in (None, rank), blocks
                gram_calls.clear()

    def test_tiny_rank_tol_falls_back_to_gram_rank(self, gram_calls):
        # below 8 (T + n**2) u gram_rank counts rounding noise (masa(4): 13
        # of 12 at 1e-20), and --rank-tol keeps that meaning
        for blocks in ([(1, [1] * 4)], [(2, [2])], [(2, [2]), (2, [2])]):
            spec = TypeISubalgebraSpec.of_blocks(blocks)
            _, ds, _ = certificate_parts(spec)
            for rank_tol in (1e-300, 1e-20):
                cert = harness.run_spancert(spec, rank_tol=rank_tol)
                assert gram_calls == [ds.unitaries.shape], (blocks, rank_tol)
                assert cert.gram_rank == linalg.gram_rank(ds.unitaries, rank_tol=rank_tol)
                gram_calls.clear()
        assert harness.run_spancert(TypeISubalgebraSpec.masa(4), rank_tol=1e-20).gram_rank == 13


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
        d = Decomposition(None, np.zeros((2, 2), dtype=complex), [], np.zeros((0, 2, 2)), (), ())
        for spec in (None, TypeISubalgebraSpec.masa(2)):
            rep = verify_decomposition(spec, np.zeros((2, 2)), d)
            assert rep == VerificationReport(0.0, 0.0, 0.0, 0, 0.0)

    def test_flags_term_inside_algebra(self):
        d = hand_decomposition([(0.5, S), (0.5, T), (1.0, np.eye(2))])
        rep = verify_decomposition(TypeISubalgebraSpec.masa(2), d.target, d)
        assert rep.max_membership_residual == 1.0
        assert rep.recon_residual == 0

    def test_reconstruction_matches_term_loop(self):
        def loop_reconstruction(d):
            out = np.zeros_like(d.target)
            for c, u in zip(d.coeffs.tolist(), d.unitaries):
                out = out + c * u
            return out

        decomps = [hand_decomposition([(0.5, S), (-0.25j, T), (2.0, np.eye(2))]),
                   Decomposition(None, np.zeros((2, 2)), [], np.zeros((0, 2, 2)), (), ())]
        for _, spec in spec_grid():
            x = algebra.random_complement_element(spec, 0)
            decomps += [type_one_decomp(spec, x), type_one_decomp(spec, 1e-3 * x)]
        x = algebra.random_complement_element(TypeISubalgebraSpec.masa(8), 0)
        decomps.append(masa_quadrant_decomp(x))
        for d in decomps:
            got = d.reconstruction()
            assert got.shape == d.target.shape
            assert np.array_equal(got, loop_reconstruction(d))

    def test_gate_tolerances(self):
        assert TERM_TOL == RECON_TOL / 10  # the value perfbench's gate reads
        edge = VerificationReport(RECON_TOL, TERM_TOL, TERM_TOL, 1, 1.0)
        assert report_within(edge)
        for field in ("recon_residual", "max_unitarity_residual", "max_membership_residual"):
            over = np.nextafter(getattr(edge, field), np.inf)
            assert not report_within(dataclasses.replace(edge, **{field: over}))
            assert not report_within(dataclasses.replace(edge, **{field: np.nan}))
        assert report_within(VerificationReport(1e-3, 1e-4, 1e-4, 1, 1.0), 1e-3)
        assert not report_within(VerificationReport(1e-3, 2e-4, 0.0, 1, 1.0), 1e-3)

    def test_stack_matches_per_target_fold(self, rng):
        def fold(spec, xs, ds):
            # the per-target loop the stack form replaces
            worst = VerificationReport(0.0, 0.0, 0.0, 0, 0.0)
            for x, d in zip(xs, ds):
                rep = verify_decomposition(spec, x, d)
                worst = VerificationReport(
                    max(worst.recon_residual, rep.recon_residual),
                    max(worst.max_unitarity_residual, rep.max_unitarity_residual),
                    max(worst.max_membership_residual, rep.max_membership_residual),
                    worst.term_count + rep.term_count,
                    max(worst.coeff_sum, rep.coeff_sum),
                )
            return worst

        def bits(rep):
            return [np.float64(v).tobytes() if isinstance(v, float) else v
                    for v in dataclasses.astuple(rep)]

        c4 = TypeISubalgebraSpec.of_blocks([(2, [2]), (2, [2])], conjugation=random_unitary(rng, 8))
        for name, spec in spec_grid() + [("c4-conjugated", c4)]:
            xs = np.concatenate((algebra.complement_basis(spec), [
                s * algebra.random_complement_element(spec, 1) for s in (1e-3, 50.0)]))
            ds = [type_one_decomp(spec, x) for x in xs]
            # the pool of one stack sums each target in the same order
            rep = verify_decomposition(spec, xs, decompose.type_one_stack(spec, xs))
            assert bits(rep) == bits(fold(spec, xs, ds)), name
            assert rep.term_count == sum(len(d.coeffs) for d in ds)
            assert bits(verify_decomposition(spec, xs[:1], decompose.type_one_stack(
                spec, xs[:1]))) == bits(verify_decomposition(spec, xs[0], ds[0])), name

    def test_empty_stack(self):
        empty = decompose.type_one_stack(TypeISubalgebraSpec.masa(2), np.zeros((0, 2, 2)))
        for spec in (None, TypeISubalgebraSpec.masa(2)):
            rep = verify_decomposition(spec, np.zeros((0, 2, 2)), empty)
            assert rep == VerificationReport(0.0, 0.0, 0.0, 0, 0.0)

    def test_stack_length_differs_from_decompositions(self):
        spec = TypeISubalgebraSpec.masa(2)
        xs = mixed_targets(spec)
        ds = decompose.type_one_stack(spec, xs)
        d = hand_decomposition([(0.5, S), (0.5, T)])
        cases = [(xs[1:], ds), (np.concatenate((xs, xs[:1])), ds), (xs[:0], ds), (xs[None], ds),
                 (np.zeros((2, 2, 2)), d), (np.zeros((0, 2, 2)), d)]
        for targets, terms in cases:
            with pytest.raises(DimensionMismatch):
                verify_decomposition(spec, targets, terms)
        with pytest.raises(AttributeError):
            verify_decomposition(spec, xs, list(ds))

    def test_term_shape_differs_from_target(self):
        d = Decomposition(
            None, np.zeros((2, 2), dtype=complex), [1.0], [np.eye(3)], (Provenance.MASTER,), ("",)
        )
        with pytest.raises(DimensionMismatch):
            verify_decomposition(None, np.zeros((2, 2)), d)


class TestReadOnlyStorage:
    def test_returned_and_parsed_stacks_are_read_only(self, rng):
        spec = TypeISubalgebraSpec.of_blocks([(2, [2]), (2, [2])])
        x = algebra.random_complement_element(spec, 4)
        d = type_one_decomp(spec, x)
        text = canonical_dumps(decomposition_to_json(d))
        parsed, _ = decomposition_from_json(canonical_loads(text))
        for dec in (d, parsed):
            assert len(dec.terms) == len(dec.unitaries) == len(dec.coeffs) > 0
            assert dec.unitaries.flags.writeable is False
            assert all(t.unitary.flags.writeable is False for t in dec.terms)
            with pytest.raises(ValueError):
                dec.unitaries[0, 0, 0] = 1.0
        assert x.flags.writeable  # the caller's input is not frozen

    def test_caller_arrays_are_copied(self, rng):
        spec = TypeISubalgebraSpec.of_blocks([(2, [2]), (2, [2])])
        x = algebra.random_complement_element(spec, 4)
        d = type_one_decomp(spec, x)
        target, recon = d.target.copy(), d.reconstruction()
        assert not np.shares_memory(d.target, x)
        x[0, 0] = 5.0
        assert np.array_equal(d.target, target)
        assert np.array_equal(d.reconstruction(), recon)

    def test_hand_built_arrays_are_read_only_views(self):
        target = np.zeros((2, 2), dtype=complex)
        coeffs, unitaries = np.ones(2, dtype=complex), np.stack([np.eye(2, dtype=complex)] * 2)
        hand = Decomposition(None, target, coeffs, unitaries, (Provenance.MASTER,) * 2, ("", ""))
        ds = decompose.DecompositionStack(None, target[None], coeffs, unitaries, (0, 2),
                                          (Provenance.MASTER,) * 2, ("", ""), None, (None,))
        for held in (hand, ds):
            assert np.shares_memory(held.coeffs, coeffs)
            assert np.shares_memory(held.unitaries, unitaries)
            assert held.coeffs.flags.writeable is False
        assert np.shares_memory(hand.target, target) and np.shares_memory(ds.targets, target)
        assert coeffs.flags.writeable and unitaries.flags.writeable and target.flags.writeable
        coeffs[0] = 7.0
        assert hand.coeffs[0] == ds.coeffs[0] == 7.0
        # a list, another dtype or a non-contiguous array is converted
        converted = Decomposition(None, np.eye(2), [1.0, 1.0], unitaries.transpose(0, 2, 1),
                                  (Provenance.MASTER,) * 2, ("", ""))
        assert converted.target.dtype == converted.coeffs.dtype == np.complex128
        assert converted.unitaries.flags.c_contiguous
        assert not np.shares_memory(converted.unitaries, unitaries)

    def test_stacks_and_tuples_of_different_lengths_are_refused(self):
        unitaries = np.stack([np.eye(2, dtype=complex)] * 2)
        with pytest.raises(DimensionMismatch, match="differ in length"):
            Decomposition(None, np.eye(2), [1.0, 1.0], unitaries, (Provenance.MASTER,), ("", ""))


class TestFaultInjection:
    def test_mutation_breaks_verification(self, rng):
        spec = TypeISubalgebraSpec.scalar(4)
        x = random_complex(rng, (4, 4))
        x -= np.trace(x) / 4 * np.eye(4)
        set_fault_injection(True)
        try:
            d = scalar_decomp(x)
        finally:
            set_fault_injection(False)
        rep = verify_decomposition(spec, x, d)
        assert (
            rep.recon_residual > 1e-10 or rep.max_unitarity_residual > 1e-10
        ), "fault injection must be detectable"


# ---------------------------------------------------------------------------
# fault matrix: one fault at a time, and the check that rejects it


def mutate(monkeypatch, module, func, old, new):
    """Patch ``func`` in ``module`` with a one-token edit of its source."""
    src = inspect.getsource(func)
    assert src.count(old) == 1, f"{old!r} must occur once in {func.__name__}"
    ns = {}
    exec(src.replace(old, new), vars(module), ns)
    monkeypatch.setattr(module, func.__name__, ns[func.__name__])


def failing_gates(spec, x, d):
    """Names of the verifier gates that ``d`` fails."""
    rep = verify_decomposition(spec, x, d)
    return {name for name, value, tol in (
        ("recon", rep.recon_residual, RECON_TOL),
        ("unitarity", rep.max_unitarity_residual, TERM_TOL),
        ("membership", rep.max_membership_residual, TERM_TOL),
    ) if value > tol}


def traceless(rng, m):
    x = random_complex(rng, (m, m))
    return x - np.trace(x) / m * np.eye(m)


def cross_block_case(rng):
    # zero atom blocks leave only the cross part to carry the fault
    spec = TypeISubalgebraSpec.atoms((2, 2))
    x = random_complex(rng, (4, 4))
    x[:2, :2] = x[2:, 2:] = 0
    return spec, x, lambda: type_one_decomp(spec, x)


def entry_move_case(rng):
    # a trace-free unitary entry is one inner term, so only the entry-move
    # pairs can carry the fault
    spec = TypeISubalgebraSpec.of_blocks([(3, [2])])
    x = entry_block(3, 2, 3, trace_free_unitary(rng))
    return spec, x, lambda: type_one_decomp(spec, x)


def atom_completion_case(rng):
    # diagonal atom blocks decompose without inner padding, so only the
    # completion pairs can carry the fault
    spec = TypeISubalgebraSpec.atoms((2, 2))
    a, b = random_complex(rng, 2)
    x = np.diag([a, -a, b, -b])
    return spec, x, lambda: type_one_decomp(spec, x)


class TestFaultMatrix:
    @pytest.mark.parametrize("family, case", [
        ("cross-block", cross_block_case),
        ("entry-move", entry_move_case),
        ("atom-completion", atom_completion_case),
    ], ids=["cross-block", "entry-move", "atom-completion"])
    def test_padding_sign(self, rng, family, case):
        spec, x, build = case(rng)
        assert failing_gates(spec, x, build()) == set()
        set_fault_injection(True)
        try:
            d = build()
        finally:
            set_fault_injection(False)
        assert {t.stage.split("(")[0] for t in d.terms} == {family}
        assert failing_gates(spec, x, d) == {"recon"}

    def test_dilation_defect_sign(self, rng, monkeypatch):
        mutate(monkeypatch, decompose, selfadjoint_corner_dilation,
               "u2[..., g:, :g] = r", "u2[..., g:, :g] = -r")
        # at m = 4 the dilated parts are 2 x 2 and trace-free, so after
        # normalization their defect r vanishes; m = 6 keeps it nonzero
        x = traceless(rng, 6)
        gates = failing_gates(TypeISubalgebraSpec.scalar(6), x, scalar_decomp(x))
        assert gates == {"recon", "unitarity"}

    def test_dilation_defect_sign_in_quadrant_path(self, monkeypatch):
        mutate(monkeypatch, decompose, selfadjoint_corner_dilation,
               "u2[..., g:, :g] = r", "u2[..., g:, :g] = -r")
        spec = TypeISubalgebraSpec.masa(8)
        x = algebra.random_complement_element(spec, 0)
        assert all(np.any(x[i : i + 2, i : i + 2]) for i in range(0, 8, 2))
        assert failing_gates(spec, x, masa_quadrant_decomp(x)) == {"recon", "unitarity"}

    def test_balanced_pair_sign(self, rng, monkeypatch):
        mutate(monkeypatch, decompose, decompose._scalar_case_raw,
               "lifted[:, :g, :g] = -u", "lifted[:, :g, :g] = u")
        x = traceless(rng, 4)
        gates = failing_gates(TypeISubalgebraSpec.scalar(4), x, scalar_decomp(x))
        assert gates == {"recon", "membership"}

    def test_merge_phase_fold(self, monkeypatch):
        mutate(monkeypatch, decompose, decompose._merge_raw,
               "phases[pos] / phases[h]", "phases[h] / phases[pos]")
        # the two cross blocks of a self-adjoint x ride on unitaries that
        # agree up to the phase of x[0, 1]
        spec = TypeISubalgebraSpec.masa(2)
        x = np.array([[0, 0.5 + 0.25j], [0.5 - 0.25j, 0]])
        assert failing_gates(spec, x, type_one_decomp(spec, x)) == {"recon"}
        with pytest.raises(AssertionError):
            TestMerge().test_merge_rule()

    def test_expectation_without_trace_normalization(self, rng, monkeypatch):
        mutate(monkeypatch, algebra, algebra._expect_standard, " / a.m", "")
        # complement elements have zero partial traces, so the verifier's
        # membership gate cannot see the fault; the axioms suite does
        spec = TypeISubalgebraSpec.scalar(4)
        x = traceless(rng, 4)
        assert failing_gates(spec, x, scalar_decomp(x)) == set()
        result = expectation_axioms_suite(spec_grid(max_n=4), 0, 8)
        assert not result.passed and "idempotent" in result.detail
