"""CLI end-to-end tests: exit codes, determinism, and the contract that
stdout is valid JSON."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from unispan import cli, harness, selftest
from unispan.algebra import TypeISubalgebraSpec, conditional_expectation
from unispan.decompose import RECON_TOL
from unispan.errors import ParseError
from unispan.linalg import RANK_TOL
from unispan.selftest import run_selftest
from unispan.serialize import canonical_dumps, canonical_loads, instance_to_json, matrix_from_json


def _plain_instance(spec, matrix):
    """An instance document as plain JSON data, ready to edit."""
    return canonical_loads(canonical_dumps(instance_to_json(spec, matrix)))


NO_SPEC = "no subalgebra given: use --spec FILE, --class ... or --blocks ..."

_H = 0.5**0.5
# the masa of M_3 conjugated by a Hadamard block on its first two coordinates
HADAMARD_MASA3 = {"blocks": [{"k": 1, "atom_mults": [1, 1, 1]}],
                  "conjugation": {"re": [[_H, _H, 0.0], [_H, -_H, 0.0], [0.0, 0.0, 1.0]],
                                  "im": [[0.0] * 3] * 3}}


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRandomInstance:
    def test_deterministic_bytes(self, capsys, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        for path in (a, b):
            code, _, _ = run_cli(
                capsys, "random-instance", "--class", "c1", "--n", "4",
                "--seed", "7", "--out", str(path)
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_seed_changes_output(self, capsys):
        _, out7, _ = run_cli(capsys, "random-instance", "--class", "c1", "--n", "4", "--seed", "7")
        _, out8, _ = run_cli(capsys, "random-instance", "--class", "c1", "--n", "4", "--seed", "8")
        assert out7 != out8

    def test_atoms_flag(self, capsys):
        code, out, _ = run_cli(capsys, "random-instance", "--class", "c3", "--atoms", "2,4", "--seed", "1")
        assert code == 0
        doc = json.loads(out)
        assert doc["n"] == 6
        assert doc["spec"]["blocks"] == [{"k": 1, "atom_mults": [2, 4]}]


class TestDecomposePipeline:
    def test_end_to_end(self, capsys, tmp_path):
        inst = tmp_path / "inst.json"
        code, _, _ = run_cli(
            capsys, "random-instance", "--blocks", "2x2", "--seed", "5",
            "--out", str(inst)
        )
        assert code == 0
        dec = tmp_path / "dec.json"
        code, _, _ = run_cli(capsys, "decompose", "--in", str(inst), "--out", str(dec))
        assert code == 0
        doc = json.loads(dec.read_text())
        assert doc["report"]["recon_residual"] <= 1e-9
        assert doc["projection_residual"] <= 1e-12
        assert "warning" not in doc
        code, out, _ = run_cli(capsys, "verify", "--in", str(dec))
        assert code == 0
        assert json.loads(out)["matches_stored"] is True

    def test_projection_warning_on_algebra_element(self, capsys, tmp_path):
        spec = TypeISubalgebraSpec.scalar(2)
        inst = tmp_path / "ident.json"
        inst.write_text(canonical_dumps(instance_to_json(spec, np.eye(2))))
        code, out, err = run_cli(capsys, "decompose", "--in", str(inst))
        assert code == 0
        doc = json.loads(out)
        assert doc["terms"] == []
        assert "warning" in doc
        assert "not in the complement" in err

    def test_tampered_report_fails_verify(self, capsys, tmp_path):
        inst = tmp_path / "inst.json"
        run_cli(capsys, "random-instance", "--class", "c1", "--n", "3",
                "--seed", "2", "--out", str(inst))
        dec = tmp_path / "dec.json"
        run_cli(capsys, "decompose", "--in", str(inst), "--out", str(dec))
        doc = json.loads(dec.read_text())
        doc["report"]["recon_residual"] = 0.5
        dec.write_text(canonical_dumps(doc))
        code, out, _ = run_cli(capsys, "verify", "--in", str(dec))
        assert code == 1
        assert json.loads(out)["matches_stored"] is False

    def test_absurd_tolerance_gives_exit_one(self, capsys, tmp_path):
        inst = tmp_path / "inst.json"
        run_cli(capsys, "random-instance", "--class", "c3", "--atoms", "2,2",
                "--seed", "4", "--out", str(inst))
        code, _, _ = run_cli(capsys, "decompose", "--in", str(inst), "--tol", "1e-30")
        assert code == 1


class TestGoldenStdout:
    def test_decompose_masa3_dyadic(self, capsys, tmp_path):
        # 1x1 blocks with real or imaginary dyadic entries: every split is the
        # unitary-multiple fast path and every sum is exact, so the bytes
        # depend on no eigensolver or rounding of the host.
        x = np.array([[0, 0.5, -0.25j], [0.75, 0, 0], [0, 0.125j, 0]])
        inst = tmp_path / "masa3.json"
        inst.write_text(canonical_dumps(instance_to_json(TypeISubalgebraSpec.masa(3), x)))
        code, out, _ = run_cli(capsys, "decompose", "--in", str(inst))
        assert code == 0
        golden = Path(__file__).with_name("golden_decompose_masa3.json")
        assert out == golden.read_text()

    def test_decompose_c3_1_1_2_dyadic(self, capsys, tmp_path):
        # C*1_1 (+) C*1_1 (+) C*1_2 in M_4 with dyadic real or imaginary
        # entries and ||x|| < 1: the even atom's terms are completed across
        # the two points (atom-completion) and the rest rides on block
        # permutations (cross-block), all in exact arithmetic, so the file
        # pins the bytes of both padding pairs, zero signs included.
        x = np.array([[0, 0.375, -0.25j, 0.125], [0.25j, 0, 0, -0.375],
                      [0, 0.125, 0.25, 0.5j], [-0.125j, 0, 0, -0.25]])
        inst = tmp_path / "c3.json"
        spec = TypeISubalgebraSpec.atoms((1, 1, 2))
        inst.write_text(canonical_dumps(instance_to_json(spec, x)))
        code, out, _ = run_cli(capsys, "decompose", "--in", str(inst))
        assert code == 0
        golden = Path(__file__).with_name("golden_decompose_c3_1_1_2.json")
        assert out == golden.read_text()


class TestConjugatedSpecPipeline:
    def test_general_position_decompose_and_spancert(self, capsys, tmp_path):
        from unispan.algebra import random_complement_element
        from unispan.linalg import hermitian_eig

        h = np.array(
            [[0, 1, 0, 2], [1, 0.5, 1j, 0], [0, -1j, -2, 1], [2, 0, 1, 1]],
            dtype=complex,
        )
        w = hermitian_eig((h + h.conj().T) / 2).eigenvectors
        spec = TypeISubalgebraSpec.of_blocks([(2, [2])], conjugation=w)
        x = random_complement_element(spec, 6)
        inst = tmp_path / "conj.json"
        inst.write_text(canonical_dumps(instance_to_json(spec, x)))
        dec = tmp_path / "conj-dec.json"
        code, _, _ = run_cli(capsys, "decompose", "--in", str(inst), "--out", str(dec))
        assert code == 0
        code, out, _ = run_cli(capsys, "verify", "--in", str(dec))
        assert code == 0
        specfile = tmp_path / "conj-spec.json"
        from unispan.serialize import spec_to_json

        specfile.write_text(canonical_dumps(spec_to_json(spec)))
        code, out, _ = run_cli(capsys, "spancert", "--spec", str(specfile))
        assert code == 0
        assert json.loads(out)["gram_rank"] == 12


class TestExpect:
    def test_matches_library(self, capsys, tmp_path):
        spec = TypeISubalgebraSpec.of_blocks([(2, [2])])
        x = np.arange(16, dtype=float).reshape(4, 4) + 1j
        inst = tmp_path / "x.json"
        inst.write_text(canonical_dumps(instance_to_json(spec, x)))
        code, out, _ = run_cli(capsys, "expect", "--in", str(inst))
        assert code == 0
        got = matrix_from_json(json.loads(out)["expectation"])
        np.testing.assert_allclose(got, conditional_expectation(spec, x), atol=1e-14)


class TestSpancert:
    def test_empty_basis(self, capsys):
        # the masa of M_1 is all of M_1: no basis, no terms, nothing to fail
        code, out, _ = run_cli(capsys, "spancert", "--class", "c1", "--n", "1")
        assert code == 0
        assert out == (
            '{"n":1,"spec":{"blocks":[{"k":1,"atom_mults":[1]}]},"basis_size":0,'
            '"pooled_unitary_count":0,"gram_rank":0,"expected_rank":0,"pass":true,'
            '"residual_summary":{"recon_residual":0.0,"max_unitarity_residual":0.0,'
            '"max_membership_residual":0.0,"term_count":0,"coeff_sum":0.0}}\n'
        )

    def test_masa_three(self, capsys):
        code, out, _ = run_cli(capsys, "spancert", "--class", "c1", "--n", "3")
        assert code == 0
        doc = json.loads(out)
        assert doc["expected_rank"] == 6
        assert doc["gram_rank"] == 6
        assert doc["pass"] is True

    def test_spec_file_input(self, capsys, tmp_path):
        spec = TypeISubalgebraSpec.of_blocks([(2, [2])])
        f = tmp_path / "spec.json"
        from unispan.serialize import spec_to_json

        f.write_text(canonical_dumps(spec_to_json(spec)))
        code, out, _ = run_cli(capsys, "spancert", "--spec", str(f))
        assert code == 0
        assert json.loads(out)["expected_rank"] == 12
        # a document holding the spec, such as an instance file, reads the same
        inst = tmp_path / "inst.json"
        run_cli(capsys, "random-instance", "--spec", str(f), "--out", str(inst))
        assert run_cli(capsys, "spancert", "--spec", str(inst)) == (code, out, "")


class TestExitCodes:
    def test_unsupported_is_three_with_rule(self, capsys):
        code, out, _ = run_cli(capsys, "spancert", "--class", "c3", "--atoms", "3,3")
        assert code == 3
        doc = json.loads(out)
        assert doc["error"] == "unsupported"
        assert doc["rule"] == "odd-atom-rank"

    def test_unsupported_decompose_instance(self, capsys, tmp_path):
        spec = TypeISubalgebraSpec.atoms((3,))
        x = np.diag([1.0, 0.0, -1.0])
        inst = tmp_path / "odd.json"
        inst.write_text(canonical_dumps(instance_to_json(spec, x)))
        code, out, _ = run_cli(capsys, "decompose", "--in", str(inst))
        assert code == 3
        assert json.loads(out)["rule"] == "odd-atom-rank"

    @pytest.mark.parametrize("flag, path", [
        ("--in", "missing.json"),
        ("--in", "a-directory"),
        ("--out", "missing/x.json"),
        ("--out", "a-directory"),
    ])
    def test_file_that_cannot_be_read_or_written_is_two(self, capsys, tmp_path, flag, path):
        (tmp_path / "a-directory").mkdir()
        argv = {"--in": ["decompose"], "--out": ["random-instance", "--class", "c1", "--n", "2"]}
        code, out, _ = run_cli(capsys, *argv[flag], flag, str(tmp_path / path))
        assert code == 2
        doc = json.loads(out)
        assert doc["error"] == "parse"
        assert doc["detail"].startswith("cannot read" if flag == "--in" else "cannot write")
        assert ".unispan-" not in doc["detail"]
        assert not list(tmp_path.rglob(".unispan-*"))

    def test_parse_error_is_two(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, out, _ = run_cli(capsys, "decompose", "--in", str(bad))
        assert code == 2
        assert json.loads(out)["error"] == "parse"

    @pytest.mark.parametrize("depth", [1000, 100000])
    @pytest.mark.parametrize("argv", [
        ("verify", "--in", "FILE"),
        ("decompose", "--in", "FILE"),
        ("decompose", "--in", "-"),
        ("spancert", "--spec", "FILE"),
    ], ids=["verify", "decompose", "decompose-stdin", "spancert"])
    def test_deeply_nested_json_is_a_parse_error(self, capsys, monkeypatch, tmp_path, argv,
                                                 depth):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * depth)
        monkeypatch.setattr(sys, "stdin", io.StringIO("[" * depth))
        code, out, _ = run_cli(capsys, *(str(deep) if a == "FILE" else a for a in argv))
        assert (code, json.loads(out)) == (
            2, {"error": "parse", "detail": "invalid JSON: nested too deeply"})

    def test_non_finite_instance_is_two(self, capsys, tmp_path):
        for bad_value in (float("nan"), float("inf")):
            doc = _plain_instance(TypeISubalgebraSpec.masa(2), np.zeros((2, 2)))
            doc["matrix"]["re"][0][1] = bad_value
            inst = tmp_path / "non-finite.json"
            inst.write_text(json.dumps(doc))  # json writes NaN / Infinity tokens
            code, out, _ = run_cli(capsys, "decompose", "--in", str(inst))
            assert code == 2
            assert json.loads(out)["error"] == "parse"

    def test_non_finite_stored_decomposition_is_two(self, capsys, tmp_path):
        inst = tmp_path / "inst.json"
        run_cli(capsys, "random-instance", "--class", "c1", "--n", "3",
                "--seed", "2", "--out", str(inst))
        dec = tmp_path / "dec.json"
        run_cli(capsys, "decompose", "--in", str(inst), "--out", str(dec))
        doc = json.loads(dec.read_text())
        doc["terms"][0]["unitary"]["im"][0][0] = float("nan")
        dec.write_text(json.dumps(doc))
        code, out, _ = run_cli(capsys, "verify", "--in", str(dec))
        assert code == 2
        assert json.loads(out)["error"] == "parse"

    @pytest.mark.parametrize(
        "edit",
        [
            lambda doc: doc["terms"][0]["coeff"].update(re=float("nan")),
            lambda doc: doc.update(term_budget="x"),
            lambda doc: doc.update(terms=5),
            lambda doc: doc.update(coeff_budget=float("nan")),
            lambda doc: doc["report"].update(coeff_sum=float("inf")),
            lambda doc: doc["report"].update(term_count=float("inf")),
            lambda doc: doc.update(term_budget=doc["term_budget"] + 0.5),
            lambda doc: doc["report"].update(term_count=doc["report"]["term_count"] + 0.5),
            lambda doc: doc["report"].update(recon_residual=str(doc["report"]["recon_residual"])),
            lambda doc: doc["report"].update(max_unitarity_residual=False),
            lambda doc: doc["report"].update(max_membership_residual="0.0"),
            lambda doc: doc["report"].update(coeff_sum=True),
            lambda doc: doc.update(n=7),
            lambda doc: doc.update(n="3"),
            lambda doc: doc.pop("n"),
            lambda doc: doc["terms"][0].update(stage=5),
            lambda doc: doc["terms"][0].update(stage=None),
            lambda doc: doc["terms"][0].update(stage=["a"]),
            lambda doc: doc.update(spec={"blocks": [{"k": 1, "atom_mults": [1, 1, 1, 1]}]}),
            lambda doc: doc.pop("report"),
            lambda doc: doc.pop("terms"),
            lambda doc: doc.update(report=[]),
            lambda doc: doc["spec"]["blocks"][0].update(atom_mults=3),
        ],
        ids=["nan-coeff", "string-term-budget", "non-list-terms", "nan-coeff-budget",
             "inf-report-coeff-sum", "inf-report-term-count", "fractional-term-budget",
             "fractional-report-term-count", "string-report-recon-residual",
             "bool-report-unitarity-residual", "string-report-membership-residual",
             "bool-report-coeff-sum", "wrong-n", "string-n", "missing-n",
             "int-stage", "null-stage", "list-stage", "spec-dimension", "missing-report",
             "missing-terms", "list-report", "non-list-atom-mults"],
    )
    def test_malformed_stored_decomposition_is_two(self, capsys, tmp_path, edit):
        inst = tmp_path / "inst.json"
        run_cli(capsys, "random-instance", "--class", "c1", "--n", "3",
                "--seed", "2", "--out", str(inst))
        dec = tmp_path / "dec.json"
        run_cli(capsys, "decompose", "--in", str(inst), "--out", str(dec))
        doc = json.loads(dec.read_text())
        edit(doc)
        dec.write_text(json.dumps(doc))  # json writes NaN tokens
        code, out, _ = run_cli(capsys, "verify", "--in", str(dec))
        assert code == 2
        assert json.loads(out)["error"] == "parse"

    @pytest.mark.parametrize("conjugated, edit", [
        (False, lambda terms: [t["coeff"].update(re=1e308) for t in terms]),
        (False, lambda terms: [t["coeff"].update(re=(-1) ** i * 1e308)
                               for i, t in enumerate(terms)]),
        (False, lambda terms: terms[0]["unitary"]["re"][0].__setitem__(1, 1e308)),
        (True, lambda terms: [row.__setitem__(slice(0, 2), [1e308, 1e308])
                              for row in terms[0]["unitary"]["re"][:2]]),
    ], ids=["all-1e308", "alternating-1e308", "unitary-1e308", "conjugated-unitary-1e308"])
    def test_overflowing_reconstruction_is_one_json_error(self, capsys, tmp_path, conjugated,
                                                          edit):
        # the sum of the stored terms, a unitarity residual or a membership
        # residual through ``w @ ... @ w*`` overflows: the verifier's
        # residual is inf or NaN, with no RuntimeWarning, and the report
        # cannot be written
        inst = tmp_path / "inst.json"
        source = ("--class", "c1", "--n", "3")
        if conjugated:
            spec = tmp_path / "spec.json"
            spec.write_text(json.dumps(HADAMARD_MASA3))
            source = ("--spec", str(spec))
        run_cli(capsys, "random-instance", *source, "--seed", "2", "--out", str(inst))
        dec = tmp_path / "dec.json"
        run_cli(capsys, "decompose", "--in", str(inst), "--out", str(dec))
        doc = json.loads(dec.read_text())
        edit(doc["terms"])
        dec.write_text(json.dumps(doc))
        code, out, _ = run_cli(capsys, "verify", "--in", str(dec))
        assert (code, json.loads(out)) == (
            1, {"error": "failed", "detail": "cannot serialize non-finite value inf"})

    @pytest.mark.parametrize("verb, detail", [
        ("decompose", "input has a non-finite entry"),
        ("expect", "cannot serialize non-finite value nan"),
    ])
    def test_overflowing_conjugated_instance_is_one_json_error(self, capsys, tmp_path, verb,
                                                               detail):
        # finite entries of 1.5e308 overflow in E_A's rotation w* x w: the
        # projection is non-finite, with no RuntimeWarning
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(HADAMARD_MASA3))
        inst = tmp_path / "inst.json"
        run_cli(capsys, "random-instance", "--spec", str(spec), "--seed", "2", "--out", str(inst))
        doc = json.loads(inst.read_text())
        for row in doc["matrix"]["re"][:2]:
            row[:2] = [1.5e308, 1.5e308]
        inst.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, verb, "--in", str(inst))
        assert (code, json.loads(out)) == (1, {"error": "failed", "detail": detail})
        assert "Warning" not in err

    @pytest.mark.parametrize(
        "edit, detail",
        [
            (lambda doc: doc["terms"][3]["unitary"]["re"][1].pop(),
             "term 3 unitary: arrays are not rectangular numeric"),
            (lambda doc: doc["terms"][2]["unitary"]["im"][0].__setitem__(1, float("nan")),
             "term 2 unitary: entries must be finite (no NaN or Infinity)"),
            (lambda doc: doc["terms"][1].update(unitary={"re": [[0.0, 1.0], [1.0, 0.0]],
                                                         "im": [[0.0, 0.0], [0.0, 0.0]]}),
             "decomposition: term 1 dimension mismatch"),
            (lambda doc: doc["terms"][2].update(stage=5), "decomposition: malformed term 2"),
        ],
        ids=["ragged-term-3", "nan-term-2", "wrong-size-term-1", "int-stage-term-2"],
    )
    def test_bad_stored_term_is_named(self, capsys, tmp_path, edit, detail):
        inst = tmp_path / "inst.json"
        run_cli(capsys, "random-instance", "--class", "c1", "--n", "3",
                "--seed", "2", "--out", str(inst))
        dec = tmp_path / "dec.json"
        run_cli(capsys, "decompose", "--in", str(inst), "--out", str(dec))
        doc = json.loads(dec.read_text())
        assert len(doc["terms"]) > 3
        edit(doc)
        dec.write_text(json.dumps(doc))  # json writes NaN tokens
        code, out, _ = run_cli(capsys, "verify", "--in", str(dec))
        assert code == 2
        assert json.loads(out) == {"error": "parse", "detail": detail}

    @pytest.mark.parametrize(
        "edit",
        [
            lambda doc: doc["spec"]["blocks"][0].update(k="1"),
            lambda doc: doc["spec"]["blocks"][0].update(k=True),
            lambda doc: doc["spec"]["blocks"][0].update(atom_mults=[1, 1, 1.9]),
            lambda doc: doc["spec"].update(blocks=3),
            lambda doc: doc.update(seed=True),
            lambda doc: doc.update(_plain_instance(TypeISubalgebraSpec.masa(1),
                                                   np.zeros((1, 1))), n=True),
            lambda doc: doc["matrix"]["re"][0].__setitem__(1, "0.5"),
            lambda doc: doc["matrix"]["im"][1].__setitem__(0, True),
            lambda doc: doc["matrix"]["re"][0].__setitem__(1, 10**400),
            lambda doc: doc["spec"].update(blocks=[{"k": 1, "atom_mults": [1, 1, 1, 1]}]),
        ],
        ids=["string-k", "bool-k", "fractional-atom-mult", "non-list-blocks", "bool-seed",
             "bool-n", "string-entry", "bool-entry", "huge-int-entry", "spec-dimension"],
    )
    def test_malformed_instance_is_two(self, capsys, tmp_path, edit):
        doc = _plain_instance(TypeISubalgebraSpec.masa(3), np.array(
            [[0, 0.5, 0], [0.25, 0, 0], [0, 0, 0]]))
        edit(doc)
        inst = tmp_path / "inst.json"
        inst.write_text(json.dumps(doc))
        code, out, _ = run_cli(capsys, "decompose", "--in", str(inst))
        assert code == 2
        assert json.loads(out)["error"] == "parse"

    def test_instance_that_is_not_an_object_is_two(self, capsys, tmp_path):
        inst = tmp_path / "inst.json"
        inst.write_text("[]")
        code, out, _ = run_cli(capsys, "decompose", "--in", str(inst))
        assert (code, json.loads(out)) == (
            2, {"error": "parse", "detail": "instance: expected a JSON object"})

    # every size check numpy makes refuses these before allocating, or the
    # request is beyond any address space: none of them allocates
    @pytest.mark.parametrize("argv, code, detail", [
        (("spancert", "--class", "c2", "--k", "100000", "--m", "2"), 1,
         "the 40000000000 matrix units of dimension 200000 are too many to stack"),
        (("spancert", "--class", "c1", "--n", "3000"), 1, "Unable to allocate"),
        (("random-instance", "--class", "c2", "--k", "10000000000000000000", "--m", "2"), 2,
         "spec: dimension 20000000000000000000 is too large to index"),
    ], ids=["too-many-units", "memory-error", "unindexable-dimension"])
    def test_layout_too_large_to_allocate_is_a_json_error(self, capsys, argv, code, detail):
        got, out, _ = run_cli(capsys, *argv)
        doc = json.loads(out)
        assert (got, doc["error"]) == (code, "failed" if code == 1 else "parse")
        assert doc["detail"].startswith(detail)

    @pytest.mark.parametrize("argv", [
        ("spancert", "--class", "c1", "--n", "3", "--rank-tol", "-1"),
        ("spancert", "--class", "c1", "--n", "3", "--rank-tol", "nan"),
        ("spancert", "--class", "c1", "--n", "3", "--tol", "0"),
        ("spancert", "--class", "c1", "--n", "3", "--tol", "inf"),
        ("selftest", "--max-n", "1"),
        ("selftest", "--max-n", "2", "--trials", "0"),
        ("selftest", "--max-n", "2", "--trials", "-3"),
        ("random-instance", "--class", "c1", "--n", "0"),
        ("random-instance", "--class", "c2", "--m", "0"),
        ("random-instance", "--class", "c2", "--k", "0", "--m", "2"),
        ("random-instance", "--blocks", "0x2"),
        ("random-instance", "--class", "c3", "--atoms", "2,0"),
    ])
    def test_bad_tolerance_or_empty_grid_is_two(self, capsys, argv):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 2
        assert json.loads(out)["error"] == "parse"

    _FOREIGN = [
        (("--class", "c2", "--m", "2", "--n", "9"), "--n cannot be combined with --class c2"),
        (("--class", "c3", "--atoms", "2,2", "--n", "4"),
         "--n cannot be combined with --class c3"),
        (("--class", "c1", "--n", "3", "--m", "2"), "--m cannot be combined with --class c1"),
        (("--class", "c1", "--n", "3", "--k", "2"), "--k cannot be combined with --class c1"),
        (("--class", "c3", "--atoms", "2,2", "--m", "2"),
         "--m cannot be combined with --class c3"),
        (("--class", "c3", "--atoms", "2,2", "--k", "2"),
         "--k cannot be combined with --class c3"),
        (("--class", "c1", "--n", "3", "--atoms", "2,2"),
         "--atoms cannot be combined with --class c1"),
        (("--class", "c2", "--m", "2", "--atoms", "2,2"),
         "--atoms cannot be combined with --class c2"),
        (("--class", "c1", "--n", "3", "--blocks", "2x2"),
         "--blocks cannot be combined with --class c1"),
        (("--class", "c2", "--m", "2", "--blocks", "2x2"),
         "--blocks cannot be combined with --class c2"),
        (("--class", "c3", "--atoms", "2,2", "--blocks", "2x2"),
         "--blocks cannot be combined with --class c3"),
        (("--spec", "SPEC", "--class", "c1"), "--class cannot be combined with --spec"),
        (("--spec", "SPEC", "--n", "4"), "--n cannot be combined with --spec"),
        (("--spec", "SPEC", "--k", "2"), "--k cannot be combined with --spec"),
        (("--spec", "SPEC", "--m", "2"), "--m cannot be combined with --spec"),
        (("--spec", "SPEC", "--atoms", "2,2"), "--atoms cannot be combined with --spec"),
        (("--spec", "SPEC", "--blocks", "2x2"), "--blocks cannot be combined with --spec"),
    ]

    @pytest.mark.parametrize("argv, detail", _FOREIGN,
                             ids=[" ".join(argv) for argv, _ in _FOREIGN])
    def test_spec_flag_foreign_to_its_source_is_two(self, capsys, tmp_path, argv, detail):
        spec = tmp_path / "spec.json"
        spec.write_text(canonical_dumps({"blocks": [{"k": 1, "atom_mults": [1, 1]}]}))
        argv = [str(spec) if a == "SPEC" else a for a in argv]
        code, out, _ = run_cli(capsys, "random-instance", *argv)
        assert code == 2
        assert out == '{"error":"parse","detail":"%s"}\n' % detail

    # the stdout of every other spec-source error, byte for byte; the empty
    # values are missing values, while a given --n 0 reaches the spec parse
    _SOURCE_ERRORS = [
        (("--class", "c1"), "--class c1 needs --n"),
        (("--class", "c2"), "--class c2 needs --m (and optionally --k)"),
        (("--class", "c2", "--k", "2"), "--class c2 needs --m (and optionally --k)"),
        (("--class", "c3"), "--class c3 needs --atoms, e.g. --atoms 2,4"),
        (("--class", "c4"), "--class c4 needs --blocks, e.g. --blocks 2x2,1x4"),
        ((), NO_SPEC),
        (("--n", "4"), NO_SPEC),
        (("--k", "2", "--m", "2"), NO_SPEC),
        (("--atoms", "2,2"), NO_SPEC),
        (("--blocks", "2x"), "cannot parse --blocks '2x'"),
        (("--blocks", "2x2x2"), "cannot parse --blocks '2x2x2'"),
        (("--blocks", "axb"), "cannot parse --blocks 'axb'"),
        (("--blocks", "2x2,"), "cannot parse --blocks '2x2,'"),
        (("--blocks", "2,2"), "cannot parse --blocks '2,2'"),
        (("--class", "c4", "--blocks", "x2"), "cannot parse --blocks 'x2'"),
        (("--blocks", "0x2"), "spec: factor size must be >= 1, got 0"),
        (("--blocks", "2x0"), "spec: atom multiplicities must be >= 1"),
        (("--class", "c3", "--atoms", "2,x"), "cannot parse --atoms '2,x'"),
        (("--class", "c3", "--atoms", "1.5"), "cannot parse --atoms '1.5'"),
        (("--class", "c3", "--atoms", ","), "cannot parse --atoms ','"),
        (("--class", "c3", "--atoms", "2,0"), "spec: atom multiplicities must be >= 1"),
        (("--class", "c1", "--n", "0"), "spec: each block needs at least one atom"),
        (("--class", "c2", "--k", "0", "--m", "2"), "spec: factor size must be >= 1, got 0"),
        (("--spec", ""), NO_SPEC),
        (("--blocks", ""), NO_SPEC),
        (("--class", "c3", "--atoms", ""), "--class c3 needs --atoms, e.g. --atoms 2,4"),
        (("--class", "c4", "--blocks", ""), "--class c4 needs --blocks, e.g. --blocks 2x2,1x4"),
        (("--atoms", ""), NO_SPEC),
        (("--spec", "", "--n", "3"), "--n cannot be combined with --spec"),
        (("--spec", "", "--blocks", ""), "--blocks cannot be combined with --spec"),
        (("--blocks", "", "--n", "3"), "--n cannot be combined with --blocks"),
        (("--class", "c4", "--blocks", "2x2", "--n", "3", "--atoms", "2"),
         "--n, --atoms cannot be combined with --class c4"),
    ]

    @pytest.mark.parametrize("argv, detail", _SOURCE_ERRORS,
                             ids=[repr(argv) for argv, _ in _SOURCE_ERRORS])
    @pytest.mark.parametrize("verb", ["random-instance", "spancert"])
    def test_spec_source_error_document(self, capsys, verb, argv, detail):
        code, out, _ = run_cli(capsys, verb, *argv)
        assert code == 2
        assert out == '{"error":"parse","detail":"%s"}\n' % detail

    @pytest.mark.parametrize("argv", [
        ("--class", "c4", "--blocks", "2x2,1x4"),
        ("--blocks", "2x2"),
        ("--class", "c2", "--k", "2", "--m", "2"),
    ])
    def test_spec_flags_of_their_source_are_accepted(self, capsys, argv):
        code, out, _ = run_cli(capsys, "random-instance", *argv)
        assert code == 0
        assert "error" not in json.loads(out)

    @pytest.fixture
    def files(self, capsys, tmp_path):
        inst, dec = tmp_path / "inst.json", tmp_path / "dec.json"
        run_cli(capsys, "random-instance", "--class", "c1", "--n", "3", "--out", str(inst))
        run_cli(capsys, "decompose", "--in", str(inst), "--out", str(dec))
        return {"INST": str(inst), "DEC": str(dec)}

    # every (subcommand, flag) pair whose value the subcommand never reads
    @pytest.mark.parametrize("argv", [
        ("decompose", "--in", "INST", "--rank-tol", "3"),
        ("decompose", "--in", "INST", "--seed", "9"),
        ("verify", "--in", "DEC", "--rank-tol", "3"),
        ("verify", "--in", "DEC", "--seed", "9"),
        ("expect", "--in", "INST", "--tol", "5"),
        ("expect", "--in", "INST", "--rank-tol", "3"),
        ("expect", "--in", "INST", "--seed", "9"),
        ("spancert", "--class", "c1", "--n", "2", "--seed", "9"),
        ("random-instance", "--class", "c1", "--n", "2", "--tol", "5"),
        ("random-instance", "--class", "c1", "--n", "2", "--rank-tol", "3"),
        ("selftest", "--max-n", "2", "--trials", "1", "--tol", "1e-300"),
        ("selftest", "--max-n", "2", "--trials", "1", "--rank-tol", "3"),
    ], ids=" ".join)
    def test_flag_the_subcommand_does_not_read_is_two(self, capsys, files, argv):
        code, out, _ = run_cli(capsys, *[files.get(a, a) for a in argv])
        assert code == 2
        doc = json.loads(out)
        assert doc["error"] == "parse" and argv[-2] in doc["detail"]

    @pytest.mark.parametrize("argv", [
        (),
        ("frobnicate",),
        ("decompose",),
        ("decompose", "--in", "inst.json", "--bogus"),
        ("random-instance", "--class", "c1", "--n", "notanint"),
        ("random-instance", "--class", "c9", "--n", "2"),
        ("spancert", "--class", "c1", "--n", "2", "--tol", "abc"),
        ("random-instance", "--class", "c1", "--n", "3", "--seed", "-1"),
        ("random-instance", "--class", "c1", "--n", "3", "--seed", str(2**64)),
        ("selftest", "--seed", "-1"),
    ], ids=repr)
    def test_usage_error_is_two(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert json.loads(out)["error"] == "parse"
        assert err.startswith("error: ")

    def test_seeds_at_the_top_of_the_key_range_run(self, capsys):
        code, out, _ = run_cli(capsys, "random-instance", "--class", "c1", "--n", "3",
                               "--seed", str(2**64 - 1))
        assert code == 0 and json.loads(out)["seed"] == 2**64 - 1
        # selftest derives per-trial seeds such as seed * 104729 + t modulo 2**64
        for seed in ("176139000000000", str(2**64 - 1)):
            code, out, _ = run_cli(capsys, "selftest", "--max-n", "2", "--trials", "1",
                                   "--seed", seed)
            assert code == 0 and json.loads(out)["pass"] is True

    def test_library_seeds_outside_the_key_range_raise(self):
        spec = TypeISubalgebraSpec.masa(3)
        with pytest.raises(OverflowError):
            harness.run_random_instance(spec, -1)
        with pytest.raises(OverflowError):
            run_selftest(seed=-1, max_n=2, trials=1)

    def test_help_exits_zero_and_defaults_are_the_library_constants(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["spancert", "--help"])
        assert exc.value.code == 0
        assert "--rank-tol" in capsys.readouterr().out
        args = cli.build_parser().parse_args(["spancert", "--class", "c1", "--n", "2"])
        assert (args.tol, args.rank_tol) == (RECON_TOL, RANK_TOL)

    def test_arithmetic_failure_is_one(self, capsys, monkeypatch):
        def short_basis(spec):
            raise ArithmeticError("complement basis has 0 elements, expected 6")

        monkeypatch.setattr(harness, "complement_basis", short_basis)
        code, out, _ = run_cli(capsys, "spancert", "--class", "c1", "--n", "3")
        assert code == 1
        assert json.loads(out) == {"error": "failed",
                                   "detail": "complement basis has 0 elements, expected 6"}

    def test_rank_tol_reaches_only_the_gram_rank(self, capsys):
        # a large relative threshold lowers the Gram rank; the complement
        # basis is built as always
        code, out, _ = run_cli(capsys, "spancert", "--class", "c1", "--n", "8",
                               "--rank-tol", "0.5")
        assert code == 1
        doc = json.loads(out)
        assert (doc["basis_size"], doc["gram_rank"], doc["expected_rank"]) == (56, 1, 56)
        assert doc["pass"] is False

    def test_missing_file_is_two(self, capsys):
        code, out, _ = run_cli(capsys, "decompose", "--in", "/nonexistent.json")
        assert code == 2

    def test_stdout_is_json_in_every_mode(self, capsys):
        for argv in (
            ["spancert", "--class", "c1", "--n", "2"],
            ["spancert", "--class", "c3", "--atoms", "3,3"],
            ["random-instance", "--class", "c2", "--m", "2"],
        ):
            _, out, _ = run_cli(capsys, *argv)
            json.loads(out)


class TestSelftest:
    def test_small_grid_passes(self, capsys):
        code, out, err = run_cli(
            capsys, "selftest", "--max-n", "4", "--trials", "20"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["pass"] is True
        assert len(doc["suites"]) >= 6
        assert "[PASS]" in err

    def test_mutation_fails(self, capsys):
        code, out, _ = run_cli(
            capsys, "selftest", "--max-n", "4", "--trials", "10", "--mutate"
        )
        assert code == 1
        doc = json.loads(out)
        assert any(not s["pass"] for s in doc["suites"])

    def test_serialization_fault_is_a_failed_suite(self, monkeypatch):
        def broken(obj):
            raise ParseError("target: arrays are not rectangular numeric")

        monkeypatch.setattr(selftest, "decomposition_from_json", broken)
        res = selftest.serialization_suite(selftest.spec_grid(3), 0, 1)
        assert not res.passed and "ParseError" in res.detail

    def test_runs_as_module(self):
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        proc = subprocess.run([sys.executable, "-m", "unispan", "selftest", "--max-n", "3"],
                              env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["pass"] is True

    @pytest.mark.parametrize("kwargs", [
        {"max_n": 1}, {"max_n": 2, "trials": 0}, {"max_n": 2, "trials": -3},
    ])
    def test_empty_grid_or_no_trials_is_parse_error(self, kwargs):
        with pytest.raises(ParseError):
            run_selftest(**kwargs)
