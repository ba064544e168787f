"""Workload definitions of the benchmark: spec lists, the largest instance
of each workload, a seeded input generator, and the request pipelines with
their correctness gates.

The benchmark owns all of these, so a change to the package's own grid or
random-instance helpers cannot silently change what is measured.  Requests
call the package through module attributes (``harness.run_decompose``, not a
name bound at import), so the traced run sees every call it wraps.
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from unispan import TypeISubalgebraSpec, decompose, harness, serialize

RECON_TOL = decompose.RECON_TOL
TERM_TOL = decompose.TERM_TOL

# (name, [(k, [m, ...]), ...]) in the package's block layout.
GRID_SPECS = tuple(
    [(f"c1-masa-n{n}", [(1, [1] * n)]) for n in range(2, 9)]
    + [(f"c2-k{k}-m{m}", [(k, [m])]) for k, m in ((1, 2), (1, 4), (1, 6), (2, 2), (2, 4))]
    + [
        ("c3-atoms-" + "-".join(map(str, atoms)), [(1, list(atoms))])
        for atoms in ((2, 2), (2, 4), (4, 6), (1, 1, 2), (1, 2, 2, 4))
    ]
    + [
        ("c4-two-factor-blocks", [(2, [2]), (2, [2])]),
        ("c4-mixed-blocks", [(1, [4]), (2, [2])]),
    ]
)

# The scale points the grid never reaches.
SCALE_SPECS = (
    ("c1-masa-n16", [(1, [1] * 16)]),
    ("c1-masa-n24", [(1, [1] * 24)]),
    ("c2-k4-m4", [(4, [4])]),
    ("c2-k1-m32", [(1, [32])]),
)

WARMUP_BLOCKS = [(1, [1, 1])]  # the masa of M_2


@dataclass(frozen=True)
class Workload:
    name: str
    specs: tuple
    largest: str  # spec whose latency is latency_largest_ms
    inputs_per_spec: int  # Gaussian inputs per spec; 0 when the spec is the input
    request: Callable  # (spec, matrix) -> why the gate failed it, or None


def algebra_dim(blocks) -> int:
    """``dim A = sum_i k_i**2 * (number of atoms of block i)``."""
    return sum(k * k * len(ms) for k, ms in blocks)


def _within_tolerance(rep) -> bool:
    return (
        rep.recon_residual <= RECON_TOL
        and rep.max_unitarity_residual <= TERM_TOL
        and rep.max_membership_residual <= TERM_TOL
    )


def decompose_request(spec, matrix) -> Optional[str]:
    """The CLI ``decompose`` + ``verify`` pair, in process."""
    doc, ok = harness.run_decompose(spec, matrix)
    text = serialize.canonical_dumps(doc)
    d, stored = serialize.decomposition_from_json(serialize.canonical_loads(text))
    rep, matches, reverify_ok = harness.reverify(d.spec, d.target, d, stored)
    if not (ok and reverify_ok and _within_tolerance(rep)):
        return "residual above tolerance"
    if not matches:
        return "reverify does not match the stored report"
    if rep.term_count != len(d.terms) or d.term_budget is None or rep.term_count > d.term_budget:
        return f"{rep.term_count} terms against budget {d.term_budget}"
    return None


def spancert_request(spec, matrix) -> Optional[str]:
    """A span certificate over the spec's whole complement basis."""
    cert = harness.run_spancert(spec)
    n = spec.dimension
    expected = n * n - algebra_dim([(b.k, b.atom_mults) for b in spec.blocks])
    if not (cert.passed and _within_tolerance(cert.residual_summary)):
        return "certificate did not pass"
    if cert.gram_rank != expected:
        return f"gram rank {cert.gram_rank}, expected {expected}"
    return None


WORKLOADS = {
    w.name: w
    for w in (
        Workload("grid", GRID_SPECS, "c4-two-factor-blocks", 16, decompose_request),
        Workload("scale", SCALE_SPECS, "c1-masa-n24", 1, decompose_request),
        Workload("spancert", GRID_SPECS, "c3-atoms-4-6", 0, spancert_request),
    )
}


def gaussian(seed: int, spec_index: int, input_index: int, n: int) -> np.ndarray:
    """Complex Gaussian ``n x n`` matrix, a pure function of its arguments."""
    rng = np.random.Generator(
        np.random.PCG64(np.random.SeedSequence((seed, spec_index, input_index)))
    )
    return (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)


def build_inputs(workload: Workload, seed: int) -> list:
    """``[(name, spec, matrices)]`` for one workload; the same seed gives the
    same matrices.  The program projects each onto the complement itself."""
    out = []
    for i, (name, blocks) in enumerate(workload.specs):
        spec = TypeISubalgebraSpec.of_blocks(blocks)
        n = spec.dimension
        mats = [gaussian(seed, i, j, n) for j in range(workload.inputs_per_spec)]
        out.append((name, spec, mats))
    return out


def warmup(workload: Workload, seed: int) -> None:
    """One small untimed request, so lazy set-up finishes before timing."""
    spec = TypeISubalgebraSpec.of_blocks(WARMUP_BLOCKS)
    workload.request(spec, gaussian(seed, len(workload.specs), 0, spec.dimension))
