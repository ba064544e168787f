"""Canonical JSON serialization for instances, decompositions and certificates.

Matrices are stored as separate real/imaginary arrays (no complex literals)
in the factor-major index layout of the spec.  The emitter is canonical:
fixed key order, floats printed with 17 significant digits (exact for
binary64), no whitespace.  ``serialize(parse(f)) == f`` holds bit for bit
for files produced here.
"""

import json
import math
import os
import tempfile
from typing import Optional

import numpy as np

from .algebra import TypeISubalgebraSpec
from .decompose import Decomposition, Provenance, UnitaryTerm, VerificationReport
from .errors import ParseError, UnispanError

# --- canonical emitter -----------------------------------------------------


def _fmt_float(x: float) -> str:
    if not math.isfinite(x):
        raise UnispanError(f"cannot serialize non-finite value {x!r}")
    s = f"{x:.17g}"
    if not any(c in s for c in ".eE"):
        s += ".0"
    return s


def _emit(obj, out) -> None:
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
        out.append(_fmt_float(obj))
    elif isinstance(obj, dict):
        out.append("{")
        for i, (k, v) in enumerate(obj.items()):
            if i:
                out.append(",")
            out.append(json.dumps(str(k), ensure_ascii=True))
            out.append(":")
            _emit(v, out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, v in enumerate(obj):
            if i:
                out.append(",")
            _emit(v, out)
        out.append("]")
    else:
        raise UnispanError(f"cannot serialize {type(obj).__name__}")


def canonical_dumps(obj) -> str:
    """Serialize to canonical JSON text (trailing newline included)."""
    out = []
    _emit(obj, out)
    out.append("\n")
    return "".join(out)


def canonical_loads(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from None


def write_atomic(path, text: str) -> None:
    """Write via a temp file plus rename so readers never see partial output."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".unispan-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# --- matrices --------------------------------------------------------------


def matrix_to_json(m) -> dict:
    m = np.asarray(m, dtype=np.complex128)
    return {
        "re": [[float(v) for v in row] for row in m.real],
        "im": [[float(v) for v in row] for row in m.imag],
    }


def matrix_from_json(obj, what: str = "matrix") -> np.ndarray:
    if not isinstance(obj, dict) or "re" not in obj or "im" not in obj:
        raise ParseError(f"{what}: expected an object with 're' and 'im' arrays")
    try:
        re = np.array(obj["re"], dtype=np.float64)
        im = np.array(obj["im"], dtype=np.float64)
    except (TypeError, ValueError):
        raise ParseError(f"{what}: arrays are not rectangular numeric") from None
    if re.ndim != 2 or re.shape != im.shape or re.shape[0] != re.shape[1]:
        raise ParseError(f"{what}: arrays must be square and of equal shape")
    if not (np.isfinite(re).all() and np.isfinite(im).all()):
        raise ParseError(f"{what}: entries must be finite (no NaN or Infinity)")
    return re + 1j * im


# --- specs -----------------------------------------------------------------


def spec_to_json(spec: TypeISubalgebraSpec) -> dict:
    doc = {
        "blocks": [
            {"k": b.k, "atom_mults": list(b.atom_mults)} for b in spec.blocks
        ]
    }
    if spec.conjugation is not None:
        doc["conjugation"] = matrix_to_json(spec.conjugation)
    return doc


def spec_from_json(obj) -> TypeISubalgebraSpec:
    if not isinstance(obj, dict) or "blocks" not in obj:
        raise ParseError("spec: expected an object with a 'blocks' list")
    blocks = []
    for b in obj["blocks"]:
        if not isinstance(b, dict) or "k" not in b or "atom_mults" not in b:
            raise ParseError("spec: each block needs 'k' and 'atom_mults'")
        try:
            blocks.append((int(b["k"]), [int(m) for m in b["atom_mults"]]))
        except (TypeError, ValueError):
            raise ParseError("spec: block fields must be integers") from None
    conj = obj.get("conjugation")
    w = matrix_from_json(conj, "conjugation") if conj is not None else None
    try:
        return TypeISubalgebraSpec.of_blocks(blocks, conjugation=w)
    except UnispanError as exc:
        raise ParseError(f"spec: {exc}") from None


# --- instance files --------------------------------------------------------


def instance_to_json(spec: TypeISubalgebraSpec, matrix, seed: Optional[int] = None) -> dict:
    doc = {
        "n": int(spec.dimension),
        "spec": spec_to_json(spec),
        "matrix": matrix_to_json(matrix),
    }
    if seed is not None:
        doc["seed"] = int(seed)
    return doc


def instance_from_json(obj):
    """Parse an instance file into ``(spec, matrix, seed)``."""
    if not isinstance(obj, dict):
        raise ParseError("instance: expected a JSON object")
    for key in ("n", "spec", "matrix"):
        if key not in obj:
            raise ParseError(f"instance: missing field '{key}'")
    spec = spec_from_json(obj["spec"])
    matrix = matrix_from_json(obj["matrix"])
    n = obj["n"]
    if not isinstance(n, int) or n != matrix.shape[0]:
        raise ParseError("instance: 'n' disagrees with the matrix shape")
    if spec.dimension != n:
        raise ParseError("instance: spec dimension sum disagrees with 'n'")
    seed = obj.get("seed")
    if seed is not None and not isinstance(seed, int):
        raise ParseError("instance: 'seed' must be an integer")
    return spec, matrix, seed


# --- decompositions --------------------------------------------------------


def report_to_json(rep: VerificationReport) -> dict:
    return {
        "recon_residual": float(rep.recon_residual),
        "max_unitarity_residual": float(rep.max_unitarity_residual),
        "max_membership_residual": float(rep.max_membership_residual),
        "term_count": int(rep.term_count),
        "coeff_sum": float(rep.coeff_sum),
    }


def report_from_json(obj) -> VerificationReport:
    try:
        rep = VerificationReport(
            recon_residual=float(obj["recon_residual"]),
            max_unitarity_residual=float(obj["max_unitarity_residual"]),
            max_membership_residual=float(obj["max_membership_residual"]),
            term_count=int(obj["term_count"]),
            coeff_sum=float(obj["coeff_sum"]),
        )
    except (TypeError, KeyError, ValueError, OverflowError):
        raise ParseError("report: malformed verification report") from None
    # an infinite stored value would match any recomputed one in reverify
    if not all(map(math.isfinite, (rep.recon_residual, rep.max_unitarity_residual,
                                   rep.max_membership_residual, rep.coeff_sum))):
        raise ParseError("report: residuals and coefficient sum must be finite")
    return rep


def decomposition_to_json(d: Decomposition, report: Optional[VerificationReport] = None) -> dict:
    doc = {
        "n": int(d.target.shape[0]),
        "spec": spec_to_json(d.spec) if d.spec is not None else None,
        "target": matrix_to_json(d.target),
        "terms": [
            {
                "coeff": {"re": float(t.coeff.real), "im": float(t.coeff.imag)},
                "provenance": t.provenance.value,
                "stage": t.stage,
                "unitary": matrix_to_json(t.unitary),
            }
            for t in d.terms
        ],
        "term_budget": d.term_budget,
        "coeff_budget": float(d.coeff_budget) if d.coeff_budget is not None else None,
    }
    if report is not None:
        doc["report"] = report_to_json(report)
    return doc


def _finite(value, what: str) -> float:
    """``value`` as a finite float; :class:`ParseError` for anything else."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            out = float(value)
        except OverflowError:
            out = math.inf
        if math.isfinite(out):
            return out
    raise ParseError(f"decomposition: {what} must be a finite number")


def decomposition_from_json(obj):
    """Parse a decomposition file into ``(decomposition, stored_report)``."""
    if not isinstance(obj, dict) or "terms" not in obj or "target" not in obj:
        raise ParseError("decomposition: missing 'terms' or 'target'")
    if not isinstance(obj["terms"], list):
        raise ParseError("decomposition: 'terms' must be a list")
    spec = spec_from_json(obj["spec"]) if obj.get("spec") is not None else None
    target = matrix_from_json(obj["target"], "target")
    terms = []
    for i, t in enumerate(obj["terms"]):
        try:
            re, im = t["coeff"]["re"], t["coeff"]["im"]
            prov = Provenance(t["provenance"])
            stage = str(t.get("stage", ""))
        except (TypeError, KeyError, ValueError):
            raise ParseError(f"decomposition: malformed term {i}") from None
        coeff = complex(_finite(re, f"term {i} coefficient"),
                        _finite(im, f"term {i} coefficient"))
        u = matrix_from_json(t["unitary"], f"term {i} unitary")
        if u.shape != target.shape:
            raise ParseError(f"decomposition: term {i} dimension mismatch")
        terms.append(UnitaryTerm(coeff, u, prov, stage))
    budget = obj.get("term_budget")
    coeff_budget = obj.get("coeff_budget")
    d = Decomposition(
        spec,
        target,
        tuple(terms),
        term_budget=int(_finite(budget, "'term_budget'")) if budget is not None else None,
        coeff_budget=(_finite(coeff_budget, "'coeff_budget'")
                      if coeff_budget is not None else None),
    )
    report = report_from_json(obj["report"]) if "report" in obj else None
    return d, report
