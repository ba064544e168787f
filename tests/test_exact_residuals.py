"""The exact-arithmetic oracle of ``exact_residuals.py`` on stored
decompositions.

The oracle covers specs in standard position only; conjugated specs are out
of its scope, since their stored ``W`` is not exactly unitary, and its
membership residual refuses them."""

import json

import pytest

from exact_residuals import membership_residuals_sq, recon_residual_sq, unitarity_residuals_sq
from unispan import harness
from unispan.decompose import RECON_TOL, TERM_TOL
from unispan.selftest import spec_grid
from unispan.serialize import canonical_dumps, instance_from_json

NAMES = ("c1-masa-n4", "c2-k1-m4", "c3-atoms-1-1-2", "c4-two-factor-blocks")


def stored_document(spec, seed):
    """The ``decompose`` document of the seeded ``random-instance`` of
    ``spec``, as the JSON data its file holds."""
    inst = json.loads(canonical_dumps(harness.run_random_instance(spec, seed)))
    spec, matrix, _ = instance_from_json(inst)
    doc, ok = harness.run_decompose(spec, matrix)
    assert ok
    return json.loads(canonical_dumps(doc))


@pytest.fixture(scope="module")
def documents():
    specs = dict(spec_grid())
    return {name: stored_document(specs[name], 0) for name in NAMES}


@pytest.mark.parametrize("name", NAMES)
def test_exact_residuals_are_within_the_tolerances(documents, name):
    doc = documents[name]
    assert recon_residual_sq(doc) <= RECON_TOL**2
    unitarity = unitarity_residuals_sq(doc)
    assert len(unitarity) == len(doc["terms"]) > 0
    assert max(unitarity) <= TERM_TOL**2
    membership = membership_residuals_sq(doc)
    assert len(membership) == len(doc["terms"])
    assert max(membership) <= TERM_TOL**2


@pytest.mark.parametrize("name", NAMES)
def test_a_perturbed_unitary_entry_is_flagged(documents, name):
    doc = json.loads(json.dumps(documents[name]))
    row = doc["terms"][0]["unitary"]["re"][0]
    row[0] += 2.0**-20
    assert unitarity_residuals_sq(doc)[0] > TERM_TOL**2
    assert recon_residual_sq(doc) > RECON_TOL**2
    assert membership_residuals_sq(doc)[0] > TERM_TOL**2


def test_a_conjugated_spec_is_out_of_scope(documents):
    doc = dict(documents["c1-masa-n4"])
    w = [[1.0 if i == j else 0.0 for j in range(4)] for i in range(4)]
    doc["spec"] = dict(doc["spec"], conjugation={"re": w, "im": [[0.0] * 4] * 4})
    with pytest.raises(ValueError):
        membership_residuals_sq(doc)
