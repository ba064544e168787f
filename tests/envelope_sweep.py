"""Certify the supported envelope: every layout of dimension at most 9.

For each of the 7,423 layouts of :func:`small_layouts`:

* a supported layout's ``run_spancert`` passes, and ``run_decompose`` on the
  seeded Gaussian complement elements of seeds 0 and 1 passes
  ``report_within`` and stays within its term and coefficient budgets;
* an unsupported layout's ``run_spancert`` raises
  ``UnsupportedConfiguration`` with the rule of :func:`reference_verdict`.

The sweep counts the calls of ``harness.gram_rank``, which ``span_rank``
makes only when its bound does not decide.  It then runs the same checks on
:func:`atom_slice` (one supported layout per distinct multiset of atoms
``(k, m)``, 64 layouts), each conjugated by a seeded random unitary.  It
prints one JSON line of counts, unsupported layouts counted per rule, and
exits 1 on any failure::

    PYTHONPATH=src python tests/envelope_sweep.py

pytest does not collect this file.  ``tests/test_algebra.py`` imports its
layouts and its reference verdicts, and runs the unconjugated slice.
"""

import itertools
import json
import sys

import numpy as np

from unispan import algebra, harness
from unispan.algebra import TypeISubalgebraSpec
from unispan.errors import UnsupportedConfiguration

SEEDS = (0, 1)


# The classification of the previous release, with its two hand-derived
# padding rules, kept as the reference for the envelope; it returns what
# ``algebra.validate_spec`` raises.
def reference_verdict(spec: TypeISubalgebraSpec):
    """The ``(rule, detail)`` that the spec breaks, or ``None`` when one of
    the classes below covers it.

    Envelope rules:

    * C1: every ``k = 1`` and every ``m = 1`` (the diagonal masa).
    * C2: exactly one atom, ``m`` even ``>= 2`` (covers ``C*1_m`` at
      ``k = 1``).
    * C3: every ``k = 1``, at least two atoms, each multiplicity 1 or even,
      and every even atom leaves at least two ambient dimensions to pad
      against.
    * C4: at least two atoms of one common dimension ``k*m``, each
      multiplicity 1 or even, and every even atom has a paddable remainder.
    * anything else is unsupported, with a machine-readable rule.
    """
    atoms = algebra.layout_plan(spec.blocks).atoms
    n = spec.dimension

    all_k1 = all(a.k == 1 for a in atoms)
    if all_k1 and all(a.m == 1 for a in atoms):
        return None  # C1
    if len(atoms) == 1:
        a = atoms[0]
        if a.m >= 2 and a.m % 2 == 0:
            return None  # C2
        if a.m == 1:
            return (
                "single-full-matrix-atom",
                "the lone atom is a full matrix block; the complement is {0}",
            )
        return "odd-atom-rank", f"single atom of odd multiplicity {a.m}"
    bad = [a for a in atoms if a.m >= 3 and a.m % 2 == 1]
    if bad:
        a = bad[0]
        return "odd-atom-rank", f"atom (block {a.block}, atom {a.atom}) has multiplicity {a.m}"
    if all_k1:
        for a in atoms:
            if a.m >= 2 and n - a.dim < 2:
                return (
                    "isolated-even-atom",
                    f"even atom of rank {a.m} leaves only {n - a.dim} "
                    "dimension(s) to pad against",
                )
        return None  # C3
    dims = {a.dim for a in atoms}
    if len(dims) > 1:
        return "heterogeneous-atom-dimensions", f"atom dimensions {sorted(dims)} differ"
    if len(atoms) == 2:
        for a, other in ((atoms[0], atoms[1]), (atoms[1], atoms[0])):
            if a.m >= 2 and other.m == 1:
                return (
                    "no-padding-partner",
                    "the remaining atom is a full matrix block and carries "
                    "no complement unitary",
                )
    return None  # C4


def small_layouts(max_n=9, max_blocks=3, max_atoms=4):
    """Every layout of dimension at most ``max_n``: ordered tuples of up to
    ``max_blocks`` blocks ``(k, (m, ...))`` of up to ``max_atoms`` atoms."""
    def blocks_within(budget):
        for k in range(1, budget + 1):
            for count in range(1, max_atoms + 1):
                for ms in itertools.product(range(1, budget // k + 1), repeat=count):
                    if k * sum(ms) <= budget:
                        yield k, ms

    def extend(prefix, used):
        if prefix:
            yield prefix
        if len(prefix) < max_blocks:
            for k, ms in blocks_within(max_n - used):
                yield from extend(prefix + [(k, ms)], used + k * sum(ms))

    return list(extend([], 0))


def atom_slice(layouts):
    """The first layout of each distinct multiset of atoms ``(k, m)`` that
    the reference supports.  Support depends on that multiset alone, so one
    layout of each multiset is classified."""
    first = {}
    for pairs in layouts:
        first.setdefault(tuple(sorted((k, m) for k, ms in pairs for m in ms)), pairs)
    supported = []
    for pairs in first.values():
        spec = TypeISubalgebraSpec.of_blocks(pairs)
        if reference_verdict(spec) is None:
            supported.append(pairs)
    return supported


def random_unitary(n: int, seed: int) -> np.ndarray:
    """The Q factor of a seeded complex Gaussian matrix."""
    rng = np.random.default_rng(seed)
    return np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]


def check(spec: TypeISubalgebraSpec, want):
    """Why ``spec``, of reference verdict ``want``, fails the envelope's
    checks, or ``None`` when it passes."""
    if want is not None:
        rule = want[0]
        try:
            harness.run_spancert(spec)
        except UnsupportedConfiguration as exc:
            return None if exc.rule == rule else f"rule {exc.rule}, not {rule}"
        return f"certified, not {rule}"
    if not harness.run_spancert(spec).passed:
        return "span certificate did not pass"
    for seed in SEEDS:
        doc, ok = harness.run_decompose(spec, algebra.random_complement_element(spec, seed))
        rep = doc["report"]
        if not ok:
            return f"seed {seed}: report {rep} is not within tolerance"
        if rep["term_count"] > doc["term_budget"]:
            return f"seed {seed}: {rep['term_count']} terms exceed {doc['term_budget']}"
        if rep["coeff_sum"] > doc["coeff_budget"] + 1e-9:
            return f"seed {seed}: coefficients sum to {rep['coeff_sum']} > {doc['coeff_budget']}"
    return None


def sweep(layouts, conjugate: bool = False):
    """Run :func:`check` on every layout, conjugated by ``random_unitary(n,
    index)`` when ``conjugate``.  Returns the counts, with the unsupported
    layouts counted per rule, and the failures as ``(layout, reason)``
    pairs."""
    gram_rank = harness.gram_rank
    fallbacks = 0
    rules = {}
    failures = []

    def counted(*args, **kwargs):
        nonlocal fallbacks
        fallbacks += 1
        return gram_rank(*args, **kwargs)

    harness.gram_rank = counted
    try:
        for i, pairs in enumerate(layouts):
            spec = TypeISubalgebraSpec.of_blocks(pairs)
            if conjugate:
                spec = TypeISubalgebraSpec.of_blocks(pairs, random_unitary(spec.dimension, i))
            want = reference_verdict(spec)
            if want is not None:
                rules[want[0]] = rules.get(want[0], 0) + 1
            try:
                reason = check(spec, want)
            except Exception as exc:  # a crash is a failure of this layout, not of the sweep
                reason = f"{type(exc).__name__}: {exc}"
            if reason is not None:
                failures.append((pairs, reason))
    finally:
        harness.gram_rank = gram_rank
    unsupported = sum(rules.values())
    counts = {"layouts": len(layouts), "supported": len(layouts) - unsupported,
              "unsupported": unsupported, "rules": rules, "failures": len(failures),
              "fallbacks": fallbacks}
    return counts, failures


def main() -> int:
    layouts = small_layouts()
    full, failures = sweep(layouts)
    conjugated, conjugated_failures = sweep(atom_slice(layouts), conjugate=True)
    for pairs, reason in failures + conjugated_failures:
        print(f"{pairs}: {reason}", file=sys.stderr)
    print(json.dumps({"full": full, "conjugated_slice": conjugated}, sort_keys=True))
    return 1 if failures or conjugated_failures else 0


if __name__ == "__main__":
    sys.exit(main())
