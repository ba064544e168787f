"""Command-line interface.

Subcommands: ``decompose``, ``verify``, ``expect``, ``spancert``,
``random-instance``, ``selftest``.  Results are canonical JSON on stdout
(or ``--out FILE``, written atomically); progress and warnings go to
stderr.  Exit codes: 0 success, 1 residual/verification failure, 2 parse
or usage errors, 3 unsupported subalgebra configuration.
"""

import argparse
import math
import sys

from . import algebra, selftest
from .algebra import TypeISubalgebraSpec
from .errors import ParseError, UnispanError, UnsupportedConfiguration
from .harness import (
    reverify,
    run_decompose,
    run_random_instance,
    run_spancert,
)
from .linalg import hs_norm
from .serialize import (
    canonical_dumps,
    canonical_loads,
    decomposition_from_json,
    instance_from_json,
    matrix_to_json,
    report_to_json,
    spec_from_json,
    write_atomic,
)

EXIT_OK = 0
EXIT_RESIDUAL = 1
EXIT_PARSE = 2
EXIT_UNSUPPORTED = 3


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None


def _emit(doc, out: str) -> None:
    text = canonical_dumps(doc)
    if out == "-":
        sys.stdout.write(text)
    else:
        write_atomic(out, text)


def _build_spec(make, *values) -> TypeISubalgebraSpec:
    """Construct a spec from flag values; a rejected size is a parse error."""
    try:
        return make(*values)
    except UnispanError as exc:
        raise ParseError(f"spec: {exc}") from None


# the spec flags each spec source reads; any other spec flag given is an error
_SPEC_FLAGS = {"spec": "--spec", "cls": "--class", "n": "--n", "k": "--k",
               "m": "--m", "atoms": "--atoms", "blocks": "--blocks"}
_SOURCE_FLAGS = {
    "--spec": {"spec"},
    "--class c1": {"cls", "n"},
    "--class c2": {"cls", "k", "m"},
    "--class c3": {"cls", "atoms"},
    "--class c4": {"cls", "blocks"},
    "--blocks": {"blocks"},
}


def _check_spec_flags(args) -> None:
    """Reject spec flags that the chosen spec source would silently drop."""
    if args.spec is not None:
        source = "--spec"
    elif args.cls is not None:
        source = f"--class {args.cls}"
    elif args.blocks is not None:
        source = "--blocks"
    else:
        return
    extra = [flag for dest, flag in _SPEC_FLAGS.items()
             if getattr(args, dest) is not None and dest not in _SOURCE_FLAGS[source]]
    if extra:
        raise ParseError(f"{', '.join(extra)} cannot be combined with {source}")


def _spec_from_args(args) -> TypeISubalgebraSpec:
    _check_spec_flags(args)
    if getattr(args, "spec", None):
        obj = canonical_loads(_read_text(args.spec))
        if isinstance(obj, dict) and "blocks" not in obj and "spec" in obj:
            obj = obj["spec"]
        return spec_from_json(obj)
    if getattr(args, "blocks", None):
        pairs = []
        try:
            for part in args.blocks.split(","):
                k, m = part.lower().split("x")
                pairs.append((int(k), [int(m)]))
        except ValueError:
            raise ParseError(f"cannot parse --blocks {args.blocks!r}") from None
        return _build_spec(TypeISubalgebraSpec.of_blocks, pairs)
    cls = getattr(args, "cls", None)
    if cls == "c1":
        if args.n is None:
            raise ParseError("--class c1 needs --n")
        return _build_spec(TypeISubalgebraSpec.masa, args.n)
    if cls == "c2":
        if args.m is None:
            raise ParseError("--class c2 needs --m (and optionally --k)")
        k = 1 if args.k is None else args.k
        return _build_spec(TypeISubalgebraSpec.of_blocks, [(k, [args.m])])
    if cls == "c3":
        if not args.atoms:
            raise ParseError("--class c3 needs --atoms, e.g. --atoms 2,4")
        try:
            ranks = [int(r) for r in args.atoms.split(",")]
        except ValueError:
            raise ParseError(f"cannot parse --atoms {args.atoms!r}") from None
        return _build_spec(TypeISubalgebraSpec.atoms, ranks)
    if cls == "c4":
        raise ParseError("--class c4 needs --blocks, e.g. --blocks 2x2,1x4")
    raise ParseError("no subalgebra given: use --spec FILE, --class ... or --blocks ...")


def _add_spec_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--spec", help="JSON file holding the subalgebra spec")
    p.add_argument("--class", dest="cls", choices=["c1", "c2", "c3", "c4"],
                   help="spec shape class")
    p.add_argument("--n", type=int, help="ambient dimension (c1)")
    p.add_argument("--k", type=int, help="factor size (c2)")
    p.add_argument("--m", type=int, help="atom multiplicity (c2)")
    p.add_argument("--atoms", help="comma-separated atom ranks (c3)")
    p.add_argument("--blocks", help="comma-separated KxM blocks (c4 or general)")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tol", type=float, default=1e-9,
                   help="reconstruction tolerance (unitarity/membership use tol/10)")
    p.add_argument("--rank-tol", type=float, default=1e-9,
                   help="relative eigenvalue threshold for rank decisions")
    p.add_argument("--seed", type=int, default=0, help="random seed")
    p.add_argument("--out", default="-", help="output file ('-' for stdout)")


def _check_tolerances(args) -> None:
    for flag, value in (("--tol", args.tol), ("--rank-tol", args.rank_tol)):
        if not (math.isfinite(value) and value > 0):
            raise ParseError(f"{flag} must be finite and > 0, got {value}")


def _cmd_decompose(args) -> int:
    spec, matrix, _ = instance_from_json(canonical_loads(_read_text(args.infile)))
    doc, ok = run_decompose(spec, matrix, recon_tol=args.tol, term_tol=args.tol / 10)
    if "warning" in doc:
        print(f"warning: {doc['warning']}", file=sys.stderr)
    _emit(doc, args.out)
    return EXIT_OK if ok else EXIT_RESIDUAL


def _cmd_verify(args) -> int:
    d, stored = decomposition_from_json(canonical_loads(_read_text(args.infile)))
    if stored is None:
        raise ParseError("decomposition file carries no stored report")
    rep, matches, ok = reverify(d.spec, d.target, d, stored,
                                recon_tol=args.tol, term_tol=args.tol / 10)
    doc = {
        "report": report_to_json(rep),
        "matches_stored": matches,
        "within_tolerance": ok,
    }
    _emit(doc, args.out)
    return EXIT_OK if (matches and ok) else EXIT_RESIDUAL


def _cmd_expect(args) -> int:
    spec, matrix, _ = instance_from_json(canonical_loads(_read_text(args.infile)))
    e = algebra.conditional_expectation(spec, matrix)
    doc = {
        "n": int(spec.dimension),
        "expectation": matrix_to_json(e),
        "membership_residual": float(hs_norm(e)),
    }
    _emit(doc, args.out)
    return EXIT_OK


def _cmd_spancert(args) -> int:
    spec = _spec_from_args(args)
    cert = run_spancert(spec, rank_tol=args.rank_tol,
                        recon_tol=args.tol, term_tol=args.tol / 10)
    _emit(cert.to_json(), args.out)
    return EXIT_OK if cert.passed else EXIT_RESIDUAL


def _cmd_random_instance(args) -> int:
    spec = _spec_from_args(args)
    _emit(run_random_instance(spec, args.seed), args.out)
    return EXIT_OK


def _cmd_selftest(args) -> int:
    results = selftest.run_selftest(
        seed=args.seed,
        max_n=args.max_n,
        trials=args.trials,
        mutate=args.mutate,
        log=lambda line: print(line, file=sys.stderr),
    )
    doc = {
        "suites": [
            {"name": r.name, "pass": r.passed, "detail": r.detail,
             "seconds": round(r.seconds, 3)}
            for r in results
        ],
        "pass": all(r.passed for r in results),
    }
    _emit(doc, args.out)
    return EXIT_OK if doc["pass"] else EXIT_RESIDUAL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="unispan",
        description="conditional expectations onto type I subalgebras and "
                    "unitary decompositions of their orthogonal complements",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="decompose an instance file")
    p.add_argument("--in", dest="infile", required=True, help="instance JSON ('-' for stdin)")
    _add_common(p)
    p.set_defaults(fn=_cmd_decompose)

    p = sub.add_parser("verify", help="re-verify a stored decomposition")
    p.add_argument("--in", dest="infile", required=True)
    _add_common(p)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("expect", help="print the conditional expectation of an instance")
    p.add_argument("--in", dest="infile", required=True)
    _add_common(p)
    p.set_defaults(fn=_cmd_expect)

    p = sub.add_parser("spancert", help="certify the span of produced unitaries")
    _add_spec_flags(p)
    _add_common(p)
    p.set_defaults(fn=_cmd_spancert)

    p = sub.add_parser("random-instance", help="emit a deterministic random instance")
    _add_spec_flags(p)
    _add_common(p)
    p.set_defaults(fn=_cmd_random_instance)

    p = sub.add_parser("selftest", help="run the batch invariant suites")
    p.add_argument("--max-n", type=int, default=None, help="cap the grid dimension")
    p.add_argument("--trials", type=int, default=200, help="trial count per suite")
    p.add_argument("--mutate", action="store_true",
                   help="inject a construction fault (suites must fail)")
    _add_common(p)
    p.set_defaults(fn=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_tolerances(args)
        return args.fn(args)
    except UnsupportedConfiguration as exc:
        doc = {"error": "unsupported", "rule": exc.rule, "detail": exc.detail}
        sys.stdout.write(canonical_dumps(doc))
        print(f"error: unsupported configuration: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except ParseError as exc:
        sys.stdout.write(canonical_dumps({"error": "parse", "detail": str(exc)}))
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (UnispanError, ArithmeticError) as exc:
        sys.stdout.write(canonical_dumps({"error": "failed", "detail": str(exc)}))
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESIDUAL


if __name__ == "__main__":
    sys.exit(main())
