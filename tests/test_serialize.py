"""Canonical JSON serialization tests: exact float round trips and
bit-identical re-serialization."""

import json
import math

import numpy as np
import pytest

from conftest import random_complex
from unispan import harness, serialize
from unispan.algebra import TypeISubalgebraSpec, random_complement_element
from unispan.decompose import (
    Decomposition,
    Provenance,
    VerificationReport,
    type_one_decomp,
    verify_decomposition,
)
from unispan.errors import ParseError, UnispanError
from unispan.harness import run_decompose, run_random_instance, run_spancert
from unispan.selftest import spec_grid
from unispan.serialize import (
    canonical_dumps,
    canonical_loads,
    decomposition_from_json,
    decomposition_to_json,
    instance_from_json,
    instance_to_json,
    matrix_from_json,
    matrix_to_json,
    report_to_json,
    spec_from_json,
    spec_to_json,
)


def _plain(doc):
    """A built document as plain JSON data: built documents hold
    pre-rendered matrix text, which only the emitter reads."""
    return canonical_loads(canonical_dumps(doc))


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
        back = matrix_from_json(_plain(matrix_to_json(m)))
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

    def test_signed_zeros_kept(self):
        obj = {"re": [[-0.0, 0.0], [-0.0, 1.5]], "im": [[-0.0, -0.0], [0.0, -2.0]]}
        m = matrix_from_json(obj)
        assert np.array_equal(np.signbit(m.real), [[True, False], [True, False]])
        assert np.array_equal(np.signbit(m.imag), [[True, True], [False, True]])
        assert canonical_dumps(matrix_to_json(m)) == canonical_dumps(obj)


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
        back = spec_from_json(_plain(spec_to_json(spec)))
        assert np.array_equal(back.conjugation, w)

    def test_malformed(self):
        with pytest.raises(ParseError):
            spec_from_json({"blocks": [{"k": 1}]})
        with pytest.raises(ParseError):
            spec_from_json({})
        masa2 = {"blocks": [{"k": 1, "atom_mults": [1, 1]}]}
        for conjugation, detail in (
            ({"re": [[1.0]], "im": [[0.0]]}, "spec: conjugation is 1x1, spec dimension is 2"),
            ({"re": [[1.0, 0.0], [0.0, 2.0]], "im": [[0.0, 0.0], [0.0, 0.0]]},
             "spec: conjugation matrix is not unitary"),
            # w* w overflows: the residual is NaN, which is no pass
            ({"re": [[1e308, 0.0], [1e308, -1e308]], "im": [[0.0, 1e308], [0.0, 0.0]]},
             "spec: conjugation matrix is not unitary"),
        ):
            with pytest.raises(ParseError) as exc:
                spec_from_json(dict(masa2, conjugation=conjugation))
            assert str(exc.value) == detail


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
        doc = _plain(instance_to_json(spec, np.zeros((2, 2))))
        instance_from_json(doc)
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

    @pytest.mark.parametrize("name,spec", spec_grid(), ids=[n for n, _ in spec_grid()])
    def test_decompose_document_reparses_bit_identically(self, name, spec):
        # signed zeros included: parsing keeps every -0.0 of the document
        for seed in range(3):
            doc, _ = run_decompose(spec, random_complement_element(spec, seed))
            text = canonical_dumps(doc)
            d, stored = decomposition_from_json(canonical_loads(text))
            again = decomposition_to_json(d, stored)
            again["projection_residual"] = doc["projection_residual"]
            same = canonical_dumps(again) == text  # no string diff on failure: it is slow
            assert same, (name, seed)

    def _doc(self):
        spec = TypeISubalgebraSpec.of_blocks([(2, [1]), (2, [1])])
        d = type_one_decomp(spec, random_complement_element(spec, 3))
        return canonical_loads(canonical_dumps(decomposition_to_json(d)))

    def test_integer_coefficients_and_empty_terms(self):
        ints, floats = self._doc(), self._doc()
        for i, (a, b) in enumerate(zip(ints["terms"], floats["terms"])):
            a["coeff"] = {"re": i - 2, "im": 2**70 + 1}
            b["coeff"] = {"re": float(i - 2), "im": float(2**70 + 1)}
        d_int, _ = decomposition_from_json(ints)
        d_float, _ = decomposition_from_json(floats)
        assert d_int.coeffs.tobytes() == d_float.coeffs.tobytes()
        assert d_int.unitaries.tobytes() == d_float.unitaries.tobytes()
        empty = self._doc()
        empty["terms"] = []
        d, _ = decomposition_from_json(empty)
        assert d.coeffs.shape == (0,) and d.unitaries.shape == (0,) + d.target.shape

    @pytest.mark.parametrize(
        "edit, detail",
        [
            (lambda t: t["coeff"].update(re=True), "term 1 coefficient must be a finite"),
            (lambda t: t["coeff"].update(im="0.5"), "term 1 coefficient must be a finite"),
            (lambda t: t["coeff"].update(re=10**400), "term 1 coefficient must be a finite"),
            (lambda t: t.update(unitary={"re": [[0.0] * 16], "im": [[0.0] * 16]}),
             "term 1 unitary: arrays must be square"),
            (lambda t: t.pop("unitary"), "malformed term 1"),
            (lambda t: t.update(provenance="bogus"), "malformed term 1"),
            (lambda t: t.update(provenance=["atomic"]), "malformed term 1"),
            (lambda t: t.update(provenance=3), "malformed term 1"),
        ],
        ids=["bool", "string", "int-overflow", "flat-same-size", "no-unitary",
             "unknown-provenance", "list-provenance", "int-provenance"],
    )
    def test_bad_term_is_named(self, edit, detail):
        doc = self._doc()
        edit(doc["terms"][1])
        with pytest.raises(ParseError, match=detail):
            decomposition_from_json(doc)


# The emitter as it was before the float-list fast path, kept verbatim as
# the byte-level reference for the emitter.


def _ref_fmt_float(x: float) -> str:
    if not math.isfinite(x):
        raise UnispanError(f"cannot serialize non-finite value {x!r}")
    s = f"{x:.17g}"
    if not any(c in s for c in ".eE"):
        s += ".0"
    return s


def _ref_emit(obj, out) -> None:
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, str):
        out.append(json.dumps(obj, ensure_ascii=True))
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(_ref_fmt_float(obj))
    elif isinstance(obj, dict):
        out.append("{")
        for i, (k, v) in enumerate(obj.items()):
            if i:
                out.append(",")
            out.append(json.dumps(str(k), ensure_ascii=True))
            out.append(":")
            _ref_emit(v, out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, v in enumerate(obj):
            if i:
                out.append(",")
            _ref_emit(v, out)
        out.append("]")
    else:
        raise UnispanError(f"cannot serialize {type(obj).__name__}")


def _ref_dumps(obj) -> str:
    out = []
    _ref_emit(obj, out)
    out.append("\n")
    return "".join(out)


# The document builders as they were before matrices were pre-rendered,
# kept verbatim: they build the plain-list twin of a document, which
# _ref_dumps prints value by value.


def _ref_matrix_to_json(m) -> dict:
    m = np.asarray(m, dtype=np.complex128)
    return {
        "re": m.real.tolist(),
        "im": m.imag.tolist(),
    }


def _ref_decomposition_to_json(d: Decomposition, report=None) -> dict:
    columns = (d.coeffs.real.tolist(), d.coeffs.imag.tolist(), d.provenance, d.stages,
               d.unitaries.real.tolist(), d.unitaries.imag.tolist())
    doc = {
        "n": int(d.target.shape[0]),
        "spec": spec_to_json(d.spec) if d.spec is not None else None,
        "target": _ref_matrix_to_json(d.target),
        "terms": [
            {
                "coeff": {"re": c_re, "im": c_im},
                "provenance": prov.value,
                "stage": stage,
                "unitary": {"re": u_re, "im": u_im},
            }
            for c_re, c_im, prov, stage, u_re, u_im in zip(*columns)
        ],
        "term_budget": d.term_budget,
        "coeff_budget": float(d.coeff_budget) if d.coeff_budget is not None else None,
    }
    if report is not None:
        doc["report"] = report_to_json(report)
    return doc


@pytest.fixture
def plain_twin(monkeypatch):
    """``twin(produce)`` calls ``produce()`` with the reference builders in
    place, so the document it returns holds plain lists."""
    def twin(produce):
        with monkeypatch.context() as m:
            m.setattr(serialize, "matrix_to_json", _ref_matrix_to_json)
            m.setattr(harness, "decomposition_to_json", _ref_decomposition_to_json)
            return produce()
    return twin


_SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
            1e16, 1e17, -1e17, 3.0, -2.0, 2.0**53, 123456789.0, 1 / 3, -2.5e-17]


def _hand_made(seed: int, count: int = 5, n: int = 3) -> Decomposition:
    """A decomposition whose stacks draw their entries from ``_SPECIAL``."""
    rng = np.random.default_rng(seed)
    re, im = rng.choice(_SPECIAL, (2, count, n, n))
    unitaries = np.stack((re, im), -1).view(np.complex128)[..., 0]  # keeps -0.0
    coeffs = np.stack(rng.choice(_SPECIAL, (2, count)), -1).view(np.complex128)[..., 0]
    return Decomposition(None, unitaries[0], coeffs, unitaries,
                         [Provenance.DILATION] * count, ["hand"] * count)


class TestFastPathByteIdentity:
    @pytest.mark.parametrize("doc", [
        [0.0, -0.0, -0.0, 0.0],
        [-0.0, 0.0, -0.0],
        [1e16, 1e17, -3.0, 5e-324, 1.7976931348623157e308, 1 / 3],
        [1 / 3, -1 / 3, 1 / 3, 0.0, 1 / 3, -0.0],
        [],
        [[0.0, -0.0], [-0.0, 0.0], [1e16, -0.0]],
        [1, 2.0],
        [True, 1.0],
        [np.float64(-0.0), 0.0],
        [2.0, np.float64(2.0), -0.0, np.float64(0.0)],
        ({"a": [0.0, -0.0]}, [-0.0, 0.0], (1.0, -0.0)),
        [{"a": 1, "b": {"a": 2}}, {"b": 3, "a": 4}],
        {1: 1.0, "1": 2.0, 1.5: -0.0, None: 0.0},
    ], ids=repr)
    def test_hand_made_lists(self, doc):
        assert canonical_dumps(doc) == _ref_dumps(doc)

    @pytest.mark.parametrize("doc", [
        [1.0, float("nan")],
        [float("inf"), float("inf")],
        [[0.5], [1.0, float("-inf")]],
    ], ids=repr)
    def test_non_finite_rejected(self, doc):
        with pytest.raises(UnispanError):
            canonical_dumps(doc)

    @pytest.mark.parametrize("seed", range(4))
    def test_hand_made_stacks(self, seed):
        d = _hand_made(seed)
        assert np.signbit(d.unitaries.real[d.unitaries.real == 0]).any()
        assert canonical_dumps(decomposition_to_json(d)) == _ref_dumps(
            _ref_decomposition_to_json(d))
        for m in (d.unitaries[0], d.unitaries[1].T, d.unitaries[2, :2]):
            assert canonical_dumps(matrix_to_json(m)) == _ref_dumps(_ref_matrix_to_json(m))

    @pytest.mark.parametrize("count", [0, 1, 9])
    def test_hard_labels_and_conjugated_spec(self, count, plain_twin):
        # the term list is rendered as one text: quoting, key order and
        # separators must match the value-by-value emitter
        stages = ['a "quoted" stage', "back\\slash", "new\nline", "café ∈ N⊖A", ""]
        rng = np.random.default_rng(count)
        w = np.linalg.qr(random_complex(rng, (3, 3)))[0]
        spec = TypeISubalgebraSpec.of_blocks([(1, [1, 2])], conjugation=w)
        hand = _hand_made(count, count=max(count, 1))
        provenance = [list(Provenance)[i % len(Provenance)] for i in range(count)]
        d = Decomposition(spec, hand.target, hand.coeffs[:count], hand.unitaries[:count],
                          provenance, [stages[i % len(stages)] for i in range(count)],
                          term_budget=12, coeff_budget=1.5)
        rep = VerificationReport(0.25, 1e-17, -0.0, count, 1.5)
        doc = decomposition_to_json(d, rep)
        text = canonical_dumps(doc)
        assert text == _ref_dumps(plain_twin(lambda: _ref_decomposition_to_json(d, rep)))
        terms = canonical_loads(text)["terms"]
        assert len(terms) == count
        for term in terms:
            assert type(term) is dict
            assert list(term) == ["coeff", "provenance", "stage", "unitary"]

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("part", ["real", "imag"])
    def test_non_finite_unitary_rejected(self, bad, part):
        u = np.array(_hand_made(0).unitaries)
        getattr(u, part)[3, 1, 2] = bad
        d = Decomposition(None, u[0].real, np.ones(len(u)), u,
                          [Provenance.DILATION] * len(u), [""] * len(u))
        with pytest.raises(UnispanError, match="non-finite"):
            canonical_dumps(decomposition_to_json(d))
        with pytest.raises(UnispanError, match="non-finite"):
            canonical_dumps(matrix_to_json(u[3]))

    @pytest.mark.parametrize("name,spec", spec_grid(), ids=[n for n, _ in spec_grid()])
    def test_grid_decompositions(self, name, spec, plain_twin):
        x = random_complement_element(spec, 1)
        for scale in (1.0, 1e-3, 2.0**-40):
            doc, ok = run_decompose(spec, scale * x)
            twin, twin_ok = plain_twin(lambda: run_decompose(spec, scale * x))
            assert ok and twin_ok
            same = canonical_dumps(doc) == _ref_dumps(twin)  # no string diff: it is slow
            assert same, (name, scale)

    def test_zero_term_decomposition(self, plain_twin):
        spec = TypeISubalgebraSpec.masa(3)
        doc, ok = run_decompose(spec, np.zeros((3, 3)))
        twin, _ = plain_twin(lambda: run_decompose(spec, np.zeros((3, 3))))
        text = canonical_dumps(doc)
        assert ok and '"terms":[]' in text
        assert text == _ref_dumps(twin)

    def test_conjugated_decomposition(self, rng, plain_twin):
        w = np.linalg.qr(random_complex(rng, (4, 4)))[0]
        spec = TypeISubalgebraSpec.of_blocks([(2, [2])], conjugation=w)
        x = random_complement_element(spec, 2)
        doc, ok = run_decompose(spec, x)
        twin, _ = plain_twin(lambda: run_decompose(spec, x))
        assert ok
        assert twin["spec"]["conjugation"]["re"]
        assert canonical_dumps(doc) == _ref_dumps(twin)

    def test_instance_and_span_certificate(self, plain_twin):
        spec = TypeISubalgebraSpec.atoms((2, 4))
        for produce in (lambda: run_random_instance(spec, 3), lambda: run_spancert(spec).to_json()):
            assert canonical_dumps(produce()) == _ref_dumps(plain_twin(produce))
