"""Acceptance suite.

One test per acceptance criterion, each printing a ``[PASS]``/``[FAIL]``
line with its measured worst-case numbers (run with ``pytest -v -s`` or
read the captured output).  Tolerances are pinned here and nowhere else.
"""

import time

import numpy as np
import pytest

from conftest import random_hermitian
from unispan import linalg
from unispan.algebra import (
    TypeISubalgebraSpec,
    conditional_expectation,
    random_algebra_element,
    random_complement_element,
)
from unispan.decompose import (
    four_unitary,
    masa_quadrant_decomp,
    selfadjoint_corner_dilation,
    type_one_decomp,
    verify_decomposition,
)
from unispan.harness import run_spancert
from unispan.selftest import run_selftest, spec_grid


def report(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def _random_full(spec, seed):
    rng = np.random.Generator(
        np.random.Philox(key=np.array([seed, spec.digest()], dtype=np.uint64))
    )
    n = spec.dimension
    return (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)


def test_criterion_1_expectation_axioms():
    grid = spec_grid()
    trials = 1000
    per_spec = -(-trials // len(grid))
    start = time.perf_counter()
    worst = 0.0
    count = 0
    for name, spec in grid:
        for t in range(per_spec):
            if count >= trials:
                break
            count += 1
            x = _random_full(spec, 3 * t + 1)
            y = _random_full(spec, 3 * t + 2)
            a = random_algebra_element(spec, 3 * t)
            b = random_algebra_element(spec, 3 * t + 1)
            ex = conditional_expectation(spec, x)
            ey = conditional_expectation(spec, y)
            residuals = (
                linalg.hs_norm(conditional_expectation(spec, ex) - ex),
                linalg.hs_norm(conditional_expectation(spec, a @ x @ b) - a @ ex @ b),
                abs(linalg.normalized_trace(ex) - linalg.normalized_trace(x)),
                abs(linalg.hs_inner(ex, y) - linalg.hs_inner(x, ey)),
                abs(linalg.hs_inner(x - ex, a)),
            )
            worst = max(worst, *residuals)
    elapsed = time.perf_counter() - start
    report(
        1,
        worst <= 1e-11 and count == trials,
        f"{count} axiom trials, worst residual {worst:.2e} (<= 1e-11), "
        f"{elapsed:.1f}s (target < 10 s)",
    )


def test_criterion_2_decomposition_soundness():
    grid = spec_grid()
    start = time.perf_counter()
    worst = [0.0, 0.0, 0.0]
    count = 0
    for name, spec in grid:
        for seed in range(50):
            count += 1
            x = random_complement_element(spec, seed)
            d = type_one_decomp(spec, x)
            rep = verify_decomposition(spec, x, d)
            worst[0] = max(worst[0], rep.recon_residual)
            worst[1] = max(worst[1], rep.max_unitarity_residual)
            worst[2] = max(worst[2], rep.max_membership_residual)
    elapsed = time.perf_counter() - start
    ok = worst[0] <= 1e-9 and worst[1] <= 1e-10 and worst[2] <= 1e-10 and elapsed < 60
    report(
        2,
        ok,
        f"{count} decompositions over {len(grid)} specs: recon {worst[0]:.2e} "
        f"(<= 1e-9), unitarity {worst[1]:.2e} (<= 1e-10), membership "
        f"{worst[2]:.2e} (<= 1e-10), {elapsed:.1f}s (target < 60 s)",
    )


def test_criterion_3_span_certificates():
    cases = []
    for n in range(2, 9):
        cases.append((TypeISubalgebraSpec.masa(n), n * n - n))
    for m in (2, 4, 6, 8):
        cases.append((TypeISubalgebraSpec.scalar(m), m * m - 1))
    # two scalar atoms span a 2-dimensional algebra: 16 - 2 = 14
    cases.append((TypeISubalgebraSpec.atoms((2, 2)), 14))
    cases.append((TypeISubalgebraSpec.of_blocks([(2, [2])]), 12))
    cases.append((TypeISubalgebraSpec.of_blocks([(2, [2]), (2, [2])]), 56))
    cases.append((TypeISubalgebraSpec.of_blocks([(1, [4]), (2, [2])]), 59))
    lines = []
    ok = True
    for spec, expected in cases:
        cert = run_spancert(spec)
        good = cert.passed and cert.gram_rank == expected == cert.expected_rank
        ok = ok and good
        lines.append(f"{cert.gram_rank}/{expected}")
    report(3, ok, f"gram ranks (got/expected): {' '.join(lines)}")


def test_criterion_4_worked_masa_example():
    spec = TypeISubalgebraSpec.masa(2)
    x = np.array([[0, 2], [3, 0]], dtype=complex)
    d = type_one_decomp(spec, x)
    s = np.array([[0, 1], [1, 0]], dtype=complex)
    t = np.array([[0, 1], [-1, 0]], dtype=complex)
    found = {}
    for term in d.terms:
        if np.array_equal(term.unitary, s):
            found["s"] = term.coeff
        elif np.array_equal(term.unitary, t):
            found["t"] = term.coeff
    exact = (
        len(d.terms) == 2
        and found.get("s") == 2.5
        and found.get("t") == -0.5
    )
    resid = linalg.hs_norm(d.reconstruction() - x)
    report(
        4,
        exact and resid <= 1e-15,
        f"terms (5/2)S + (-1/2)T recovered exactly, residual {resid:.1e} (<= 1e-15)",
    )


def test_criterion_5_dilation_identity():
    rng = np.random.default_rng(5)
    worst_unit = worst_recon = 0.0
    for trial in range(200):
        g = int(rng.integers(1, 7))  # ambient m = 2g, even, <= 12
        y = random_hermitian(rng, g)
        y -= np.trace(y) / g * np.eye(g)
        norm = linalg.operator_norm(y)
        if norm > 1.0:
            y = y / norm
        u1, u2, u3 = selfadjoint_corner_dilation(y)
        worst_unit = max(
            worst_unit,
            linalg.unitarity_residual(u1),
            linalg.unitarity_residual(u2),
        )
        target = np.zeros((2 * g, 2 * g), dtype=complex)
        target[:g, :g] = y
        worst_recon = max(
            worst_recon, linalg.hs_norm(u1 / 2 + u2 / 2 - u3 - target)
        )
    ok = worst_unit <= 1e-11 and worst_recon <= 1e-11
    report(
        5,
        ok,
        f"200 dilations: unitarity {worst_unit:.2e} (<= 1e-11), "
        f"identity residual {worst_recon:.2e} (<= 1e-11)",
    )


def test_criterion_6_cross_path_agreement():
    worst = 0.0
    for n in (4, 8, 12):
        spec = TypeISubalgebraSpec.masa(n)
        for seed in range(20):
            x = random_complement_element(spec, seed)
            for d in (type_one_decomp(spec, x), masa_quadrant_decomp(x)):
                rep = verify_decomposition(spec, x, d)
                worst = max(
                    worst,
                    rep.recon_residual,
                    rep.max_unitarity_residual * 0.1,
                    rep.max_membership_residual * 0.1,
                )
                assert rep.recon_residual <= 1e-9
                assert rep.max_unitarity_residual <= 1e-10
                assert rep.max_membership_residual <= 1e-10
    report(
        6,
        True,
        "quadrant and default masa paths verify clean on 20 shared inputs "
        f"at n in (4, 8, 12); worst scaled residual {worst:.2e}",
    )


def test_criterion_7_four_unitary_budget():
    rng = np.random.default_rng(7)
    worst_excess = -np.inf
    max_terms = 0
    for _ in range(500):
        n = int(rng.integers(1, 13))
        x = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        d = four_unitary(x)
        rep = verify_decomposition(None, x, d)
        max_terms = max(max_terms, rep.term_count)
        worst_excess = max(
            worst_excess, rep.coeff_sum - 2 * linalg.operator_norm(x)
        )
    ok = max_terms <= 4 and worst_excess <= 1e-9
    report(
        7,
        ok,
        f"500 trials: term count <= {max_terms} (<= 4), coefficient excess "
        f"{worst_excess:.2e} (<= 1e-9)",
    )


def test_criterion_8_negative_controls(capsys, tmp_path):
    from unispan import cli
    from unispan.serialize import canonical_dumps, instance_to_json

    # odd atom rank with nonzero within-atom part
    spec = TypeISubalgebraSpec.atoms((3,))
    inst = tmp_path / "odd.json"
    inst.write_text(canonical_dumps(instance_to_json(spec, np.diag([1.0, 0, -1]))))
    code_odd = cli.main(["decompose", "--in", str(inst)])
    out_odd = capsys.readouterr().out
    # heterogeneous multi-block layout
    code_het = cli.main(["spancert", "--blocks", "2x2,1x2"])
    out_het = capsys.readouterr().out
    import json

    rule_odd = json.loads(out_odd).get("rule")
    rule_het = json.loads(out_het).get("rule")
    # mutation flag must make at least one suite fail
    results = run_selftest(seed=0, max_n=4, trials=10, mutate=True)
    failed = [r.name for r in results if not r.passed]
    ok = (
        code_odd == 3
        and rule_odd == "odd-atom-rank"
        and code_het == 3
        and rule_het == "heterogeneous-atom-dimensions"
        and len(failed) >= 1
    )
    report(
        8,
        ok,
        f"unsupported exits 3 with rules ({rule_odd}, {rule_het}); "
        f"mutation fails suites {failed}",
    )
