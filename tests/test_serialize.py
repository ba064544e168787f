"""Canonical JSON serialization tests: exact float round trips and
bit-identical re-serialization."""

import numpy as np
import pytest

from conftest import random_complex
from unispan.algebra import TypeISubalgebraSpec, random_complement_element
from unispan.decompose import type_one_decomp, verify_decomposition
from unispan.errors import ParseError, UnispanError
from unispan.serialize import (
    canonical_dumps,
    canonical_loads,
    decomposition_from_json,
    decomposition_to_json,
    instance_from_json,
    instance_to_json,
    matrix_from_json,
    matrix_to_json,
    spec_from_json,
    spec_to_json,
)


class TestFloatFormat:
    @pytest.mark.parametrize(
        "value",
        [0.0, -0.0, 1.0, -1.5, 1 / 3, 1e-300, -2.2250738585072014e-308,
         1.7976931348623157e308, 123456789.123456789, 2.5e-17],
    )
    def test_exact_round_trip(self, value):
        text = canonical_dumps(value)
        back = canonical_loads(text)
        assert isinstance(back, float)
        assert back == value or (np.isnan(back) and np.isnan(value))
        assert np.copysign(1.0, back) == np.copysign(1.0, value)
        assert canonical_dumps(back) == text

    def test_non_finite_rejected(self):
        with pytest.raises(UnispanError):
            canonical_dumps(float("inf"))

    def test_big_seed_integers_survive(self):
        doc = {"seed": 2**63 + 12345}
        assert canonical_loads(canonical_dumps(doc))["seed"] == 2**63 + 12345


class TestMatrixRoundTrip:
    def test_exact(self, rng):
        m = random_complex(rng, (5, 5))
        back = matrix_from_json(matrix_to_json(m))
        assert np.array_equal(back, m)

    def test_shape_errors(self):
        with pytest.raises(ParseError):
            matrix_from_json({"re": [[1, 2]], "im": [[0, 0]]})
        with pytest.raises(ParseError):
            matrix_from_json({"re": [[1]], "im": [[0, 0]]})
        with pytest.raises(ParseError):
            matrix_from_json([1, 2])

    def test_non_finite_rejected(self):
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ParseError):
                matrix_from_json({"re": [[1.0]], "im": [[bad]]})


class TestSpecRoundTrip:
    def test_plain(self):
        spec = TypeISubalgebraSpec.of_blocks([(2, [2, 4]), (1, [3])])
        back = spec_from_json(spec_to_json(spec))
        assert [(b.k, b.atom_mults) for b in back.blocks] == [
            (2, (2, 4)),
            (1, (3,)),
        ]
        assert back.conjugation is None

    def test_with_conjugation(self):
        w = np.eye(3)[[1, 2, 0]].astype(complex)
        spec = TypeISubalgebraSpec.of_blocks([(1, [1, 1, 1])], conjugation=w)
        back = spec_from_json(spec_to_json(spec))
        assert np.array_equal(back.conjugation, w)

    def test_malformed(self):
        with pytest.raises(ParseError):
            spec_from_json({"blocks": [{"k": 1}]})
        with pytest.raises(ParseError):
            spec_from_json({})


class TestDocumentRoundTrips:
    def test_instance_bit_identical(self):
        spec = TypeISubalgebraSpec.atoms((2, 4))
        doc = instance_to_json(spec, random_complement_element(spec, 3), seed=3)
        text = canonical_dumps(doc)
        assert canonical_dumps(canonical_loads(text)) == text
        back_spec, back_matrix, seed = instance_from_json(canonical_loads(text))
        assert seed == 3
        assert np.array_equal(back_matrix, random_complement_element(spec, 3))
        assert back_spec.dimension == 6

    def test_instance_validation(self):
        spec = TypeISubalgebraSpec.masa(2)
        doc = instance_to_json(spec, np.zeros((2, 2)))
        bad = dict(doc)
        bad["n"] = 3
        with pytest.raises(ParseError):
            instance_from_json(bad)
        with pytest.raises(ParseError):
            instance_from_json({"n": 2})

    def test_decomposition_bit_identical_and_reverifiable(self):
        spec = TypeISubalgebraSpec.scalar(4)
        x = random_complement_element(spec, 8)
        d = type_one_decomp(spec, x)
        rep = verify_decomposition(spec, x, d)
        text = canonical_dumps(decomposition_to_json(d, rep))
        assert canonical_dumps(canonical_loads(text)) == text
        d2, stored = decomposition_from_json(canonical_loads(text))
        rep2 = verify_decomposition(d2.spec, d2.target, d2)
        assert rep2.recon_residual == pytest.approx(rep.recon_residual, abs=1e-12)
        assert rep2.term_count == stored.term_count
        assert abs(rep2.max_unitarity_residual - stored.max_unitarity_residual) <= 1e-12
        assert abs(rep2.max_membership_residual - stored.max_membership_residual) <= 1e-12
