"""Span tracing at the package's module boundaries, done from outside the
package.

While a traced pass runs, each public function in ``BOUNDARIES`` is
replaced by a wrapper that records one span per call: name, start, end,
parent span and request id.  The wrapper is bound in every loaded
``unispan`` module that holds the function under its name, because modules
import each other's functions by name (``decompose`` imports
``operator_norm`` and ``sqrt_defect``, ``harness`` imports
``verify_decomposition``).  The originals are restored after the pass.  A
boundary the package does not have is reported absent.

A span's self time is its duration minus the time its child spans cover.
There is one client and no queue, so no layer waits; the spans hold busy
time only.
"""

import functools
import gzip
import importlib
import json
import operator
import sys
from contextlib import contextmanager
from time import perf_counter

BOUNDARIES = (
    ("linalg", ("hermitian_eig", "operator_norm", "sqrt_defect", "gram_rank",
                "unitarity_residual")),
    ("algebra", ("validate_spec", "conditional_expectation", "membership_residual",
                 "complement_basis")),
    ("decompose", ("type_one_decomp", "verify_decomposition")),
    ("harness", ("run_decompose", "reverify", "run_spancert")),
    ("serialize", ("decomposition_to_json", "canonical_dumps", "canonical_loads",
                   "decomposition_from_json")),
)


def _eig(args, result):
    n = len(args[0])
    return {"dim_max": n, "n3_sum": n**3}


def _gram(args, result):
    mats = args[0]
    n = len(mats[0])
    return {"gram_dim_max": min(len(mats), n * n)}


def _dumps(args, result):
    return {"bytes": len(result)}


def _verify(args, rep):
    return {
        "recon_residual_max": rep.recon_residual,
        "unitarity_residual_max": rep.max_unitarity_residual,
        "membership_residual_max": rep.max_membership_residual,
    }


def _type_one(args, d):
    return {"terms": len(d.terms), "budget": d.term_budget or 0}


# Counters read at a boundary besides calls and self time:
# boundary -> (recorder, {stat: (combine, unit)}).  Summed stats are
# reported per request; a unit of None marks a stat used only for a
# derived metric.
COUNTERS = {
    "linalg.hermitian_eig": (_eig, {"dim_max": (max, "count"),
                                    "n3_sum": (operator.add, "count/req")}),
    "linalg.gram_rank": (_gram, {"gram_dim_max": (max, "count")}),
    "serialize.canonical_dumps": (_dumps, {"bytes": (operator.add, "B/req")}),
    "decompose.verify_decomposition": (_verify, {
        "recon_residual_max": (max, "hs-norm"),
        "unitarity_residual_max": (max, "hs-norm"),
        "membership_residual_max": (max, "hs-norm"),
    }),
    "decompose.type_one_decomp": (_type_one, {"terms": (operator.add, None),
                                              "budget": (operator.add, None)}),
}

DERIVED = {"decompose.terms_out": "terms/req", "decompose.term_budget_use": "ratio"}


def metric_units() -> dict:
    """Every per-layer metric the traced run reports, with its unit."""
    out = {}
    for module, names in BOUNDARIES:
        for fname in names:
            key = f"{module}.{fname}"
            out[f"{key}.calls"] = "calls/req"
            out[f"{key}.self_s"] = "s/req"
            for stat, (_, unit) in COUNTERS.get(key, (None, {}))[1].items():
                if unit is not None:
                    out[f"{key}.{stat}"] = unit
    out.update(DERIVED)
    return out


class Tracer:
    """Spans and counters of the traced passes, kept in memory."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, request id]
        self.request = -1
        self.stats = {}
        self.absent = []
        self.broken = set()
        self._stack = []
        self._wrappers = {}  # id(original) -> (original, wrapper)
        for module, names in BOUNDARIES:
            try:
                mod = importlib.import_module(f"unispan.{module}")
            except ImportError:
                mod = None
            for fname in names:
                key = f"{module}.{fname}"
                fn = getattr(mod, fname, None)
                if callable(fn):
                    self._wrappers[id(fn)] = (fn, self._wrap(key, fn))
                else:
                    self.absent.append(key)

    def _wrap(self, key, fn):
        spans, stack = self.spans, self._stack
        recorder, combine = COUNTERS.get(key, (None, {}))
        stats = self.stats.setdefault(key, {stat: 0 for stat in combine})

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [key, perf_counter(), 0.0, stack[-1] if stack else -1, self.request]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if recorder is not None:
                try:
                    seen = recorder(args, result)
                except (AttributeError, IndexError, TypeError):
                    # The boundary's signature changed: its counters are absent.
                    self.broken.add(key)
                    seen = {}
                for stat, value in seen.items():
                    stats[stat] = combine[stat][0](stats[stat], value)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Bind the wrappers in every loaded ``unispan`` module for the
        duration of the block."""
        bound = []
        for name, mod in list(sys.modules.items()):
            if name != "unispan" and not name.startswith("unispan."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = self._wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    bound.append((mod, attr, value))
        try:
            yield
        finally:
            for mod, attr, value in bound:
                setattr(mod, attr, value)

    def self_times(self) -> dict:
        """``name -> (calls, self seconds)`` over all recorded spans."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out = {}
        for (name, start, end, _, _), child in zip(self.spans, covered):
            calls, secs = out.get(name, (0, 0.0))
            out[name] = (calls + 1, secs + (end - start - child))
        return out

    def metrics(self, requests: int, speed: float = 1.0) -> dict:
        """Per-layer metrics ``name -> (value, unit)``; absent boundaries
        and stats are left out.  Self times are multiplied by ``speed``,
        the host speed relative to nominal (see ``reference.py``)."""
        units = metric_units()
        totals = self.self_times()
        out = {}
        for key, stats in self.stats.items():
            calls, secs = totals.get(key, (0, 0.0))
            out[f"{key}.calls"] = calls / requests
            out[f"{key}.self_s"] = secs * speed / requests
            for stat, (combine, unit) in COUNTERS.get(key, (None, {}))[1].items():
                if unit is not None and key not in self.broken:
                    value = stats[stat]
                    out[f"{key}.{stat}"] = value / requests if combine is operator.add else value
        t1 = self.stats.get("decompose.type_one_decomp")
        if t1 is not None and "decompose.type_one_decomp" not in self.broken:
            out["decompose.terms_out"] = t1["terms"] / requests
            out["decompose.term_budget_use"] = t1["terms"] / t1["budget"] if t1["budget"] else 0.0
        return {name: (value, units[name]) for name, value in out.items()}

    def write_spans(self, path: str, header: dict) -> None:
        """Gzipped JSON lines: one header, then one ``[name, start, end,
        parent, request]`` line per span."""
        with gzip.open(path, "wt") as fh:
            fh.write(json.dumps(header) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
