"""Canonical JSON serialization for instances, decompositions and certificates.

Matrices are stored as separate real/imaginary arrays (no complex literals)
in the factor-major index layout of the spec.  The emitter is canonical:
fixed key order, floats printed with 17 significant digits (exact for
binary64), no whitespace.  ``serialize(parse(f)) == f`` holds bit for bit
for files produced here.

Matrices are formatted as arrays, not walked as lists: :func:`_format_stack`
formats each distinct bit pattern of a real stack once (so ``0.0`` and
``-0.0`` are separate keys) and joins the tokens into the text of each
matrix.  The documents built here therefore hold pre-rendered matrix text
(:class:`_Json`), which :func:`canonical_dumps` copies verbatim; the plain
data is ``canonical_loads(canonical_dumps(doc))``.  A decomposition
document goes further: its target and unitaries share one formatting
table, and its ``"terms"`` is the whole term list as one pre-rendered
text, so :func:`_emit` walks only the envelope.  :func:`_fmt_float` stays
the only float formatter, so a non-finite value raises wherever it occurs.
Parsed documents are emitted value by value and print the same bytes.
"""

import json
import math
import os
import tempfile
from typing import Optional

import numpy as np

from .algebra import TypeISubalgebraSpec
from .decompose import Decomposition, Provenance, VerificationReport
from .errors import ParseError, UnispanError

# --- canonical emitter -----------------------------------------------------


def _fmt_float(x: float) -> str:
    s = f"{x:.17g}"
    # ``g`` writes a lower-case exponent; an integral value gets ".0", and
    # ``inf`` and ``nan`` hold neither mark
    if "." in s or "e" in s:
        return s
    if not math.isfinite(x):
        raise UnispanError(f"cannot serialize non-finite value {x!r}")
    return s + ".0"


class _Json(str):
    """Canonical JSON text that :func:`_emit` copies verbatim."""

    __slots__ = ()


# what follows a token: a comma inside a row, then the end of a row, then
# the end of the matrix
_SEPARATORS = np.array([",", "],[", "]]"], dtype=object)


def _format_stack(a) -> list:
    """The canonical JSON text of each matrix ``a[t]`` of a real stack
    ``(T, r, c)`` with ``r, c >= 1``, as a plain string: the caller marks
    a text as :class:`_Json` where a document holds it.

    Each distinct bit pattern is formatted once by :func:`_fmt_float`, so
    ``-0.0`` keeps its sign and a NaN or infinity raises.  ``+0.0`` is set
    aside before the sort, because most entries of term unitaries are
    zeros (79% over the selftest grid)."""
    bits = np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)
    count, r, c = bits.shape
    nonzero = bits != 0
    keys, inverse = np.unique(bits[nonzero], return_inverse=True)
    index = np.zeros(bits.shape, dtype=np.intp)
    index[nonzero] = inverse + 1
    tokens = np.array([_fmt_float(v) for v in [0.0] + keys.view(np.float64).tolist()],
                      dtype=object)
    place = np.zeros((r, c), dtype=np.intp)
    place[:, -1] = 1
    place[-1, -1] = 2
    cells = (tokens[:, None] + _SEPARATORS)[index.reshape(count, r * c), place.ravel()]
    cells[:, 0] = "[[" + cells[:, 0]
    return ["".join(m) for m in cells.tolist()]


def _emit(obj, out) -> None:
    if type(obj) is _Json:
        out.append(obj)
    elif obj is None:
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
            out.append(json.dumps(str(k), ensure_ascii=True) + ":")
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
    except RecursionError:
        raise ParseError("invalid JSON: nested too deeply") from None


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
    """``{"re", "im"}`` of a matrix, each as pre-rendered :class:`_Json`."""
    m = np.asarray(m, dtype=np.complex128)
    re, im = _format_stack(np.stack((m.real, m.imag)))
    return {"re": _Json(re), "im": _Json(im)}


def _complex(re, im) -> np.ndarray:
    """The complex array with real part ``re`` and imaginary part ``im``,
    bit for bit: ``re + 1j * im`` would turn a ``-0.0`` into ``+0.0``."""
    return np.stack((re, im), -1).view(np.complex128)[..., 0]


def matrix_from_json(obj, what: str = "matrix") -> np.ndarray:
    if not isinstance(obj, dict) or "re" not in obj or "im" not in obj:
        raise ParseError(f"{what}: expected an object with 're' and 'im' arrays")
    try:
        re = np.array(obj["re"], dtype=np.float64)
        im = np.array(obj["im"], dtype=np.float64)
    except (TypeError, ValueError):
        raise ParseError(f"{what}: arrays are not rectangular numeric") from None
    except OverflowError:
        raise ParseError(f"{what}: entries must lie within float range") from None
    if re.ndim != 2 or re.shape != im.shape or re.shape[0] != re.shape[1]:
        raise ParseError(f"{what}: arrays must be square and of equal shape")
    # NumPy converts strings and booleans to floats as well
    types = {type(v) for part in (obj["re"], obj["im"]) for row in part for v in row}
    if not types <= {float, int}:
        raise ParseError(f"{what}: entries must be numbers, not strings or booleans")
    if not (np.isfinite(re).all() and np.isfinite(im).all()):
        raise ParseError(f"{what}: entries must be finite (no NaN or Infinity)")
    return _complex(re, im)


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


def _integer(value, what: str) -> int:
    """``value`` if it is a JSON integer (not a bool, string or float)."""
    if type(value) is not int:
        raise ParseError(f"{what} must be an integer")
    return value


def spec_from_json(obj) -> TypeISubalgebraSpec:
    if not isinstance(obj, dict) or not isinstance(obj.get("blocks"), list):
        raise ParseError("spec: expected an object with a 'blocks' list")
    blocks = []
    for b in obj["blocks"]:
        if not isinstance(b, dict) or "k" not in b or "atom_mults" not in b:
            raise ParseError("spec: each block needs 'k' and 'atom_mults'")
        try:
            blocks.append((_integer(b["k"], "spec: 'k'"),
                           [_integer(m, "spec: atom_mults entry") for m in b["atom_mults"]]))
        except TypeError:
            raise ParseError("spec: 'atom_mults' must be a list") from None
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
    n = _integer(obj["n"], "instance: 'n'")
    if n != matrix.shape[0]:
        raise ParseError("instance: 'n' disagrees with the matrix shape")
    if spec.dimension != n:
        raise ParseError("instance: spec dimension sum disagrees with 'n'")
    seed = obj.get("seed")
    return spec, matrix, None if seed is None else _integer(seed, "instance: 'seed'")


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
    # residuals and the coefficient sum are finite numbers: an infinite
    # stored value would match any recomputed one in reverify
    try:
        return VerificationReport(
            recon_residual=_finite(obj["recon_residual"], "report 'recon_residual'"),
            max_unitarity_residual=_finite(obj["max_unitarity_residual"],
                                           "report 'max_unitarity_residual'"),
            max_membership_residual=_finite(obj["max_membership_residual"],
                                            "report 'max_membership_residual'"),
            term_count=_integer(obj["term_count"], "report: 'term_count'"),
            coeff_sum=_finite(obj["coeff_sum"], "report 'coeff_sum'"),
        )
    except (TypeError, KeyError):
        raise ParseError("report: malformed verification report") from None


def decomposition_to_json(d: Decomposition, report: Optional[VerificationReport] = None) -> dict:
    """The decomposition document of ``d``, with ``report`` when given.

    The target and the unitaries are formatted by one :func:`_format_stack`
    call, so they share one formatting table, and ``"terms"`` holds the
    whole term list as one pre-rendered :class:`_Json` text: each
    coefficient part is formatted once and each distinct ``(provenance,
    stage)`` label quoted once, and :func:`canonical_dumps` walks only the
    envelope around it.  The term list as data is
    ``canonical_loads(canonical_dumps(doc))["terms"]``."""
    t, u = d.target, d.unitaries
    count = len(u)
    texts = _format_stack(np.concatenate((t.real[None], t.imag[None], u.real, u.imag)))
    coeffs = [_fmt_float(v) for v in d.coeffs.view(np.float64).tolist()]
    keys = list(zip(d.provenance, d.stages))
    labels = {(prov, stage): '},"provenance":' + json.dumps(prov.value, ensure_ascii=True)
              + ',"stage":' + json.dumps(stage, ensure_ascii=True) + ',"unitary":{"re":'
              for prov, stage in set(keys)}
    out = ["["]
    for c_re, c_im, key, u_re, u_im in zip(coeffs[0::2], coeffs[1::2], keys,
                                           texts[2:2 + count], texts[2 + count:]):
        out += ('{"coeff":{"re":', c_re, ',"im":', c_im, labels[key], u_re, ',"im":', u_im, "}},")
    # the last term closes the list where the others write a comma
    out[-1] = "}}]" if count else "[]"
    doc = {
        "n": int(t.shape[0]),
        "spec": spec_to_json(d.spec) if d.spec is not None else None,
        "target": {"re": _Json(texts[0]), "im": _Json(texts[1])},
        "terms": _Json("".join(out)),
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


def _stage(term) -> str:
    """A term's ``stage``, ``""`` when absent; :class:`TypeError` unless a string."""
    stage = term.get("stage", "")
    if not isinstance(stage, str):
        raise TypeError
    return stage


# a stored provenance value to its member: a value that is not one raises
# KeyError, an unhashable one TypeError
_PROVENANCE = {p.value: p for p in Provenance}


def _term_error(items, target) -> ParseError:
    """The error for a term list that :func:`_terms_from_json` rejects,
    found by checking the terms one by one and naming the first bad one."""
    for i, t in enumerate(items):
        try:
            re, im = t["coeff"]["re"], t["coeff"]["im"]
            _PROVENANCE[t["provenance"]]
            _stage(t)
        except (TypeError, KeyError, ValueError, AttributeError):
            return ParseError(f"decomposition: malformed term {i}")
        try:
            _finite(re, f"term {i} coefficient")
            _finite(im, f"term {i} coefficient")
            if "unitary" not in t:
                return ParseError(f"decomposition: malformed term {i}")
            u = matrix_from_json(t["unitary"], f"term {i} unitary")
        except ParseError as e:
            return e
        if u.shape != target.shape:
            return ParseError(f"decomposition: term {i} dimension mismatch")
    return ParseError("decomposition: malformed term list")


def _terms_from_json(items, target):
    """``(coeffs, unitaries, provenance, stages)`` of a term list, converted
    in one array conversion per field.  A coefficient is a finite float or
    integer (not a boolean); a list that does not parse raises the error
    of its first bad term."""
    shape = (len(items),) + target.shape
    try:
        pairs = [(t["coeff"]["re"], t["coeff"]["im"]) for t in items]
        if not {type(v) for pair in pairs for v in pair} <= {float, int}:
            raise TypeError
        coeffs = np.array(pairs, dtype=np.float64).reshape(len(items), 2)
        re = np.array([t["unitary"]["re"] for t in items], dtype=np.float64)
        im = np.array([t["unitary"]["im"] for t in items], dtype=np.float64)
        if items and not re.shape == im.shape == shape:
            raise ValueError
        provenance = [_PROVENANCE[t["provenance"]] for t in items]
        stages = [_stage(t) for t in items]
    except (TypeError, KeyError, ValueError, AttributeError, OverflowError):
        raise _term_error(items, target) from None
    if not (np.isfinite(coeffs).all() and np.isfinite(re).all() and np.isfinite(im).all()):
        raise _term_error(items, target)
    # exact: the pairs are reinterpreted as complex values, keeping every bit
    coeffs = coeffs.view(np.complex128).reshape(len(items))
    return coeffs, _complex(re.reshape(shape), im.reshape(shape)), provenance, stages


def decomposition_from_json(obj):
    """Parse a decomposition file into ``(decomposition, stored_report)``."""
    if not isinstance(obj, dict) or "terms" not in obj or "target" not in obj:
        raise ParseError("decomposition: missing 'terms' or 'target'")
    if not isinstance(obj["terms"], list):
        raise ParseError("decomposition: 'terms' must be a list")
    spec = spec_from_json(obj["spec"]) if obj.get("spec") is not None else None
    target = matrix_from_json(obj["target"], "target")
    if _integer(obj.get("n"), "decomposition: 'n'") != target.shape[0]:
        raise ParseError("decomposition: 'n' disagrees with the target shape")
    if spec is not None and spec.dimension != target.shape[0]:
        raise ParseError("decomposition: spec dimension sum disagrees with 'n'")
    budget = obj.get("term_budget")
    coeff_budget = obj.get("coeff_budget")
    d = Decomposition(
        spec,
        target,
        *_terms_from_json(obj["terms"], target),
        term_budget=None if budget is None else _integer(budget, "decomposition: term_budget"),
        coeff_budget=(_finite(coeff_budget, "'coeff_budget'")
                      if coeff_budget is not None else None),
    )
    report = report_from_json(obj["report"]) if "report" in obj else None
    return d, report
