"""Batch self-test: runs every module's invariant suite over a fixed grid
of subalgebra specs and reports one pass/fail line per suite.

The grid covers the masa at dimensions 2..8, single even atoms (with and
without a matrix factor), mixed atomic abelian layouts, and two-atom
homogeneous layouts with factors.
"""

import time
from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from . import algebra, decompose, linalg
from .algebra import TypeISubalgebraSpec
from .decompose import (
    four_unitary,
    masa_quadrant_decomp,
    type_one_decomp,
    type_one_stack,
    verify_decomposition,
)
from .errors import ParseError, UnispanError
from .harness import random_hermitian, report_within, run_spancert
from .serialize import (
    canonical_dumps,
    canonical_loads,
    decomposition_from_json,
    decomposition_to_json,
    instance_to_json,
)


def spec_grid(max_n: Optional[int] = None) -> list:
    """The deterministic (name, spec) grid used by the self-test suites."""
    grid = []
    for n in range(2, 9):
        grid.append((f"c1-masa-n{n}", TypeISubalgebraSpec.masa(n)))
    for k, m in ((1, 2), (1, 4), (1, 6), (2, 2), (2, 4)):
        grid.append((f"c2-k{k}-m{m}", TypeISubalgebraSpec.of_blocks([(k, [m])])))
    for atoms in ((2, 2), (2, 4), (4, 6), (1, 1, 2), (1, 2, 2, 4)):
        name = "c3-atoms-" + "-".join(map(str, atoms))
        grid.append((name, TypeISubalgebraSpec.atoms(atoms)))
    grid.append(
        ("c4-two-factor-blocks", TypeISubalgebraSpec.of_blocks([(2, [2]), (2, [2])]))
    )
    grid.append(
        ("c4-mixed-blocks", TypeISubalgebraSpec.of_blocks([(1, [4]), (2, [2])]))
    )
    if max_n is not None:
        grid = [(name, s) for name, s in grid if s.dimension <= max_n]
    return grid


def _key(value: int) -> int:
    """A derived seed modulo ``2**64``, inside the generators' key range."""
    return value % (1 << 64)


@dataclass
class SuiteResult:
    name: str
    passed: bool
    detail: str
    seconds: float


def _suite(fn: Callable[..., str]) -> Callable[..., SuiteResult]:
    def run(*args, **kwargs) -> SuiteResult:
        start = time.perf_counter()
        try:
            detail = fn(*args, **kwargs)
            passed = True
        except AssertionError as exc:
            detail = str(exc) or "assertion failed"
            passed = False
        except UnispanError as exc:  # e.g. the package failing to parse its own output
            detail = f"{type(exc).__name__}: {exc}"
            passed = False
        return SuiteResult(fn.__name__.replace("_suite", ""), passed, detail,
                           time.perf_counter() - start)

    return run


@_suite
def numeric_core_suite(grid, seed, trials):
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 1], dtype=np.uint64)))
    worst_recon = worst_defect = worst_norm = 0.0
    for t in range(trials):
        n = int(rng.integers(2, 17))
        h = random_hermitian(n, _key(seed * 100003 + t))
        w, v = linalg.hermitian_eig(h)
        recon = linalg.hs_norm(v @ np.diag(w) @ v.conj().T - h)
        scale = max(linalg.hs_norm(h), 1e-300)
        worst_recon = max(worst_recon, recon / scale)
        assert recon <= linalg.EIG_TOL * scale, f"eig reconstruction {recon:.2e}"
        assert linalg.hs_norm(v.conj().T @ v - np.eye(n)) <= linalg.EIG_TOL
        hh = h / max(linalg.operator_norm(h), 1e-300)
        r = linalg.sqrt_defect(hh)
        worst_defect = max(
            worst_defect,
            linalg.hs_norm(r @ r + hh @ hh - np.eye(n)),
            linalg.hs_norm(hh @ r - r @ hh),
        )
        assert worst_defect <= 10 * linalg.EIG_TOL, f"defect residual {worst_defect:.2e}"
        u = v  # eigenvector matrices are the unitaries under test
        worst_norm = max(worst_norm, abs(linalg.operator_norm(u) - 1.0))
        assert worst_norm <= 10 * linalg.EIG_TOL, f"unitary norm off by {worst_norm:.2e}"
    return (
        f"{trials} trials: eig recon <= {worst_recon:.1e}, "
        f"defect <= {worst_defect:.1e}, unitary norm off <= {worst_norm:.1e}"
    )


@_suite
def expectation_axioms_suite(grid, seed, trials):
    worst = 0.0
    per_spec = max(1, trials // len(grid))
    count = 0
    for name, spec in grid:
        n = spec.dimension
        for t in range(per_spec):
            count += 1
            kx, ky, ka, kb = (_key(seed * 7919 + t + i) for i in range(4))
            x = algebra._standard_normal_complex(algebra._rng_for(spec, kx, 0), (n, n))
            y = algebra._standard_normal_complex(algebra._rng_for(spec, ky, 0), (n, n))
            a = algebra.random_algebra_element(spec, ka)
            b = algebra.random_algebra_element(spec, kb)
            ex = algebra.conditional_expectation(spec, x)
            ey = algebra.conditional_expectation(spec, y)
            checks = {
                "idempotent": linalg.hs_norm(
                    algebra.conditional_expectation(spec, ex) - ex
                ),
                "bimodular": linalg.hs_norm(
                    algebra.conditional_expectation(spec, a @ x @ b) - a @ ex @ b
                ),
                "trace": abs(
                    linalg.normalized_trace(ex) - linalg.normalized_trace(x)
                ),
                "symmetric": abs(
                    linalg.hs_inner(ex, y) - linalg.hs_inner(x, ey)
                ),
                "orthogonal": abs(linalg.hs_inner(x - ex, a)),
                "adjoint": linalg.hs_norm(
                    algebra.conditional_expectation(spec, x.conj().T) - ex.conj().T
                ),
            }
            bad = {k: v for k, v in checks.items() if v > 1e-11}
            assert not bad, f"{name}: axiom residuals {bad}"
            worst = max(worst, *checks.values())
            assert linalg.hs_norm(ex) <= linalg.hs_norm(x) + 1e-12, f"{name}: HS expansion"
            assert (
                linalg.operator_norm(ex) <= linalg.operator_norm(x) + 1e-9
            ), f"{name}: operator-norm expansion"
    return f"{count} trials over {len(grid)} specs, worst residual {worst:.1e}"


@_suite
def decomposition_soundness_suite(grid, seed, trials):
    per_spec = max(1, trials // len(grid))
    worst = [0.0, 0.0, 0.0]
    for name, spec in grid:
        xs = np.array([algebra.random_complement_element(spec, _key(seed * 104729 + t))
                       for t in range(per_spec)])
        ds = type_one_stack(spec, xs)
        rep = verify_decomposition(spec, xs, ds)
        worst[0] = max(worst[0], rep.recon_residual)
        worst[1] = max(worst[1], rep.max_unitarity_residual)
        worst[2] = max(worst[2], rep.max_membership_residual)
        assert report_within(rep), f"{name}: {rep}"
        for d in ds:
            assert d.term_budget is not None and len(d.coeffs) <= d.term_budget, (
                f"{name}: {len(d.coeffs)} terms exceed budget {d.term_budget}"
            )
            assert d.coeff_budget is not None and d.coeff_sum <= d.coeff_budget + 1e-9, (
                f"{name}: coefficient sum {d.coeff_sum:.3f} exceeds "
                f"budget {d.coeff_budget:.3f}"
            )
    return (
        f"{per_spec} decompositions per spec: recon <= {worst[0]:.1e}, "
        f"unitarity <= {worst[1]:.1e}, membership <= {worst[2]:.1e}"
    )


@_suite
def four_unitary_budget_suite(grid, seed, trials):
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 4], dtype=np.uint64)))
    worst = 0.0
    for t in range(trials):
        n = int(rng.integers(1, 13))
        x = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        d = four_unitary(x)
        rep = verify_decomposition(None, x, d)
        assert rep.term_count <= 4, f"{rep.term_count} terms"
        bound = 2.0 * linalg.operator_norm(x) + 1e-9
        assert rep.coeff_sum <= bound, f"coeff sum {rep.coeff_sum} > {bound}"
        assert rep.recon_residual <= 1e-10
        worst = max(worst, rep.recon_residual)
    return f"{trials} trials, recon <= {worst:.1e}, terms <= 4"


@_suite
def cross_path_suite(grid, seed, trials):
    sizes = [n for n in (4, 8) if any(s.dimension == n for _, s in grid)] or [4]
    per = max(1, min(trials // 5, 20))
    for n in sizes:
        spec = TypeISubalgebraSpec.masa(n)
        xs = np.array([algebra.random_complement_element(spec, _key(seed * 31 + t))
                       for t in range(per)])
        reps = [verify_decomposition(spec, xs, type_one_stack(spec, xs))]
        reps += [verify_decomposition(spec, x, masa_quadrant_decomp(x)) for x in xs]
        for rep in reps:
            assert report_within(rep), f"masa n={n}: {rep}"
    return f"quadrant and default masa paths agree on sizes {sizes}"


@_suite
def selfadjoint_closure_suite(grid, seed, trials):
    for name, spec in grid:
        x = algebra.random_complement_element(spec, _key(seed * 53 + 1))
        x = (x + x.conj().T) / 2
        alpha = 0.37 - 1.9j
        d, d2 = type_one_stack(spec, np.array([x, alpha * x]))
        adj = np.sum(np.conj(d.coeffs)[:, None, None] * linalg.adjoint(d.unitaries), axis=0)
        assert linalg.hs_norm(adj - x) <= decompose.RECON_TOL, f"{name}: adjoint reconstruction"
        recon = linalg.hs_norm(d2.reconstruction() - alpha * x)
        assert recon <= decompose.RECON_TOL * abs(alpha), f"{name}: scaled reconstruction"
    return "adjoint closure and scaling compatibility hold on the grid"


@_suite
def span_certificate_suite(grid, seed, trials):
    lines = []
    for name, spec in grid:
        cert = run_spancert(spec)
        assert cert.passed, (
            f"{name}: rank {cert.gram_rank} != expected {cert.expected_rank} "
            f"or residuals out of tolerance"
        )
        lines.append(f"{name}:{cert.gram_rank}")
    return f"rank == n^2 - dim(A) for all {len(lines)} grid specs"


@_suite
def serialization_suite(grid, seed, trials):
    for name, spec in grid:
        x = algebra.random_complement_element(spec, seed)
        text = canonical_dumps(instance_to_json(spec, x, seed))
        assert canonical_dumps(canonical_loads(text)) == text, f"{name}: instance round trip"
        d = type_one_decomp(spec, x)
        back, _ = decomposition_from_json(
            canonical_loads(canonical_dumps(decomposition_to_json(d))))
        for field in ("coeffs", "unitaries"):
            # compared as bit patterns: -0.0 must stay -0.0
            same = np.array_equal(getattr(back, field).view(np.uint64),
                                  getattr(d, field).view(np.uint64))
            assert same, f"{name}: decomposition {field} changed in a round trip"
    return f"instances and decompositions of {len(grid)} specs round-trip bit-identically"


ALL_SUITES = [
    numeric_core_suite,
    expectation_axioms_suite,
    decomposition_soundness_suite,
    four_unitary_budget_suite,
    cross_path_suite,
    selfadjoint_closure_suite,
    span_certificate_suite,
    serialization_suite,
]


def run_selftest(seed: int = 0, max_n: Optional[int] = None, trials: int = 200,
                 mutate: bool = False, log=None) -> List[SuiteResult]:
    """Run every suite over the grid; failures are reported, not raised.

    Raises :class:`ParseError` when ``max_n`` leaves no grid spec or
    ``trials`` is below 1.  Seeds derived from ``seed`` wrap modulo ``2**64``.
    """
    grid = spec_grid(max_n)
    if not grid:
        raise ParseError(f"max_n {max_n} leaves no grid spec")
    if trials < 1:
        raise ParseError(f"trials must be >= 1, got {trials}")
    decompose.set_fault_injection(mutate)
    try:
        results = []
        for suite in ALL_SUITES:
            res = suite(grid, seed, trials)
            results.append(res)
            if log is not None:
                status = "PASS" if res.passed else "FAIL"
                log(f"[{status}] {res.name} ({res.seconds:.2f}s): {res.detail}")
        return results
    finally:
        decompose.set_fault_injection(False)
