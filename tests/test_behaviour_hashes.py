"""The byte-identity script ``behaviour_hashes.py`` runs on this tree and
hashes the outputs it names."""

import hashlib
import json
import re
import subprocess
import sys
from pathlib import Path

from unispan import TypeISubalgebraSpec, harness
from unispan.serialize import canonical_dumps

TESTS = Path(__file__).resolve().parent
SPECS = ("c1-masa-n3", "c4-two-factor-blocks-conjugated")


def test_script_hashes_the_matrix_of_two_specs():
    argv = [sys.executable, str(TESTS / "behaviour_hashes.py"), "--src", str(TESTS.parent / "src")]
    for name in SPECS:
        argv += ["--spec", name]
    out = json.loads(subprocess.run(argv, check=True, capture_output=True, text=True).stdout)
    # per spec: basis, spancert, stack and 3 seeds x 4 scales of decompose;
    # then 30 four_unitary, 23 masa_quadrant and the derangements
    assert len(out) == 2 * (3 + 12) + 30 + 23 + 1
    assert {k.split("/")[1] for k in out if k.startswith(("basis/", "decompose/"))} == set(SPECS)
    assert all(re.fullmatch(r"[0-9a-f]{64}", v) for v in out.values())
    doc = canonical_dumps(harness.run_spancert(TypeISubalgebraSpec.masa(3)).to_json())
    assert out["spancert/c1-masa-n3"] == hashlib.sha256(doc.encode()).hexdigest()
