"""CLI end-to-end tests: exit codes, determinism, and the contract that
stdout is valid JSON."""

import json

import numpy as np
import pytest

from unispan import cli
from unispan.algebra import TypeISubalgebraSpec, conditional_expectation
from unispan.serialize import canonical_dumps, instance_to_json, matrix_from_json


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

    def test_parse_error_is_two(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, out, _ = run_cli(capsys, "decompose", "--in", str(bad))
        assert code == 2
        assert json.loads(out)["error"] == "parse"

    def test_non_finite_instance_is_two(self, capsys, tmp_path):
        for bad_value in (float("nan"), float("inf")):
            doc = instance_to_json(TypeISubalgebraSpec.masa(2), np.zeros((2, 2)))
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
        ],
        ids=["nan-coeff", "string-term-budget", "non-list-terms", "nan-coeff-budget",
             "inf-report-coeff-sum", "inf-report-term-count"],
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
