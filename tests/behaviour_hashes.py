"""Hashes of the outputs a behaviour-preserving change must leave byte for
byte as they were.

Prints one JSON object ``{key: sha256 hex digest}`` for the ``unispan``
package under ``--src``:

* per spec (the 19 self-test grid specs, masa n=16 and n=24,
  ``M_4 (x) 1_4``, ``M_3 (x) 1_2``, the three-atom layouts
  ``1_2 + 1_4 + 1_2``, ``(M_2 (x) 1_2)^3`` and
  ``M_2 (x) 1_2 + 1_4 + M_2 (x) 1_2``, whose equal atoms are not all
  adjacent, and conjugated c1, c3 and c4 specs):
  the complement basis, the ``spancert`` document, the ``type_one_stack``
  term stacks of the whole basis (``coeffs``, ``unitaries``,
  ``provenance``, ``stages``), and the ``run_decompose`` document with its
  ok flag for seeded Gaussian inputs at seeds 0-2 and scales 1, 1e-3,
  2**-40 and 1e3;
* 30 ``four_unitary`` and 23 ``masa_quadrant_decomp`` documents, five of
  them for a zero pair of quadrant-diagonal blocks, real-only,
  imaginary-only and Hermitian inputs and ``n = 16``;
* five documents of edge inputs, verifier report included: zero targets
  of ``C*1_4``, ``M_2 (x) 1_2`` and ``1_2 + 1_2``,
  ``four_unitary([[0, 5e-324], [0, 0]])`` and ``type_one_decomp`` of
  ``2**-1070 * [[0, 3], [1, 0]]`` in the masa of ``M_2``;
* the block permutations ``_derangement(count, alpha, beta)`` of every
  ``count <= 32``.

Compare two trees, for example a parent commit unpacked with
``git archive`` into ``PARENT``::

    python tests/behaviour_hashes.py --src PARENT/src > before.json
    python tests/behaviour_hashes.py --src src > after.json
    cmp before.json after.json

``--spec NAME`` (repeatable) keeps only the named specs.  The script reads
only names that every tree it compares has, so it runs unchanged on both.
"""

import argparse
import hashlib
import json
import os
import sys

import numpy as np

GRID = (
    [(f"c1-masa-n{n}", [(1, [1] * n)]) for n in range(2, 9)]
    + [(f"c2-k{k}-m{m}", [(k, [m])]) for k, m in ((1, 2), (1, 4), (1, 6), (2, 2), (2, 4))]
    + [("c3-atoms-" + "-".join(map(str, a)), [(1, list(a))])
       for a in ((2, 2), (2, 4), (4, 6), (1, 1, 2), (1, 2, 2, 4))]
    + [("c4-two-factor-blocks", [(2, [2]), (2, [2])]),
       ("c4-mixed-blocks", [(1, [4]), (2, [2])])]
)
EXTRA = [("c1-masa-n16", [(1, [1] * 16)]), ("c1-masa-n24", [(1, [1] * 24)]),
         ("c2-k4-m4", [(4, [4])]), ("c2-k3-m2", [(3, [2])]),
         ("c3-atoms-2-4-2", [(1, [2, 4, 2])]),
         ("c4-blocks-2x2-2x2-2x2", [(2, [2])] * 3),
         ("c4-blocks-2x2-1x4-2x2", [(2, [2]), (1, [4]), (2, [2])])]
CONJUGATED = [("c1-masa-n4-conjugated", [(1, [1] * 4)]),
              ("c3-atoms-1-1-2-conjugated", [(1, [1, 1, 2])]),
              ("c4-two-factor-blocks-conjugated", [(2, [2]), (2, [2])])]
SCALES = (1.0, 1e-3, 2.0**-40, 1e3)


def gaussian(shape, *seed):
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()


def specs(unispan, names):
    out = [(name, unispan.TypeISubalgebraSpec.of_blocks(b)) for name, b in GRID + EXTRA]
    for i, (name, blocks) in enumerate(CONJUGATED):
        n = sum(k * sum(ms) for k, ms in blocks)
        w = np.linalg.qr(gaussian((n, n), 7, i))[0]
        out.append((name, unispan.TypeISubalgebraSpec.of_blocks(blocks, conjugation=w)))
    return [(name, spec) for name, spec in out if not names or name in names]


def hashes(unispan, names) -> dict:
    from unispan import decompose, harness, serialize

    def doc_hash(doc, *extra):
        return digest(serialize.canonical_dumps(doc).encode(), *extra)

    out = {}
    for name, spec in specs(unispan, names):
        n = spec.dimension
        basis = np.asarray(unispan.complement_basis(spec), dtype=np.complex128).reshape(-1, n, n)
        out[f"basis/{name}"] = digest(basis.shape, basis.tobytes())
        out[f"spancert/{name}"] = doc_hash(harness.run_spancert(spec).to_json())
        ds = unispan.type_one_stack(spec, basis)
        out[f"stack/{name}"] = digest(*[p for d in ds for p in (
            d.coeffs.tobytes(), d.unitaries.tobytes(),
            tuple(p.value for p in d.provenance), d.stages)])
        for seed in range(3):
            x = gaussian((n, n), seed, n)
            for scale in SCALES:
                doc, ok = harness.run_decompose(spec, scale * x)
                out[f"decompose/{name}/seed{seed}/scale{scale!r}"] = doc_hash(doc, ok)
    for i in range(30):
        n = 1 + i % 10
        x = gaussian((n, n), 11, i)
        x = (x, (x + x.conj().T) / 2, (1.5 - 0.5j) * np.linalg.qr(x)[0])[i // 10]
        out[f"four_unitary/{i}"] = doc_hash(serialize.decomposition_to_json(
            decompose.four_unitary(x)))
    for i in range(18):
        n = 4 * (1 + i % 3)
        x = gaussian((n, n), 13, i)
        np.fill_diagonal(x, 0.0)
        out[f"masa_quadrant/{i}"] = doc_hash(serialize.decomposition_to_json(
            decompose.masa_quadrant_decomp(x)))
    x = gaussian((8, 8), 13, 18)
    zero_pair = x.copy()
    zero_pair[:4, :4] = 0.0  # the blocks of slots 0 and 1
    for name, y in (("zero-pair", zero_pair), ("real", x.real), ("imag", 1j * x.imag),
                    ("hermitian", x + x.conj().T), ("n16", gaussian((16, 16), 13, 19))):
        y = np.array(y, dtype=np.complex128)
        np.fill_diagonal(y, 0.0)
        out[f"masa_quadrant/{name}"] = doc_hash(serialize.decomposition_to_json(
            decompose.masa_quadrant_decomp(y)))
    # zero targets and subnormal ones, whose stacks of unitary multiples,
    # slow blocks or self-adjoint parts are empty
    edges = [(f"zero/{name}", spec, np.zeros((spec.dimension,) * 2)) for name, spec in (
        ("c2-k1-m4", unispan.TypeISubalgebraSpec.scalar(4)),
        ("c4-k2-m2", unispan.TypeISubalgebraSpec.of_blocks([(2, [2])])),
        ("c3-atoms-2-2", unispan.TypeISubalgebraSpec.atoms([2, 2])))]
    edges += [("masa2-subnormal", unispan.TypeISubalgebraSpec.masa(2),
               2.0**-1070 * np.array([[0.0, 3.0], [1.0, 0.0]])),
              ("four_unitary-5e-324", None, np.array([[0.0, 5e-324], [0.0, 0.0]]))]
    for name, spec, x in edges:
        d = decompose.four_unitary(x) if spec is None else decompose.type_one_decomp(spec, x)
        out[f"edge/{name}"] = doc_hash(serialize.decomposition_to_json(
            d, decompose.verify_decomposition(spec, x, d)))
    out["derangements"] = digest(*[
        decompose._derangement(count, a, b).tobytes()
        for count in range(2, 33) for a in range(count) for b in range(count) if a != b])
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", required=True, help="directory that holds the unispan package")
    parser.add_argument("--spec", action="append", default=[], help="keep only this spec")
    args = parser.parse_args(argv)
    src = os.path.abspath(args.src)
    sys.path.insert(0, src)
    import unispan

    if not os.path.abspath(unispan.__file__).startswith(src + os.sep):
        sys.exit(f"imported unispan from {unispan.__file__}, not from {src}")
    known = {name for name, _ in GRID + EXTRA + CONJUGATED}
    unknown = sorted(set(args.spec) - known)
    if unknown:
        sys.exit(f"unknown spec(s) {unknown}")
    print(json.dumps(hashes(unispan, set(args.spec)), indent=0, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
