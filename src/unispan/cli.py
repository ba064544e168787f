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
from .decompose import RECON_TOL
from .errors import ParseError, UnispanError, UnsupportedConfiguration
from .harness import (
    reverify,
    run_decompose,
    run_random_instance,
    run_spancert,
)
from .linalg import RANK_TOL, hs_norm
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


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors raise :class:`ParseError`, so they
    end in a JSON error document and exit code 2 like every other parse
    error."""

    def error(self, message):
        raise ParseError(message)


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


def _tolerance(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be a finite number > 0, got {text!r}")
    return value


# every flag of a subcommand, by name; each subcommand takes only those it reads
_FLAGS = {
    "--in": dict(dest="infile", required=True, help="input JSON file ('-' for stdin)"),
    "--spec": dict(help="JSON file holding the subalgebra spec"),
    "--class": dict(dest="cls", choices=["c1", "c2", "c3", "c4"], help="spec shape class"),
    "--n": dict(type=int, help="ambient dimension (c1)"),
    "--k": dict(type=int, help="factor size (c2)"),
    "--m": dict(type=int, help="atom multiplicity (c2)"),
    "--atoms": dict(help="comma-separated atom ranks (c3)"),
    "--blocks": dict(help="comma-separated KxM blocks (c4 or general)"),
    "--tol": dict(type=_tolerance, default=RECON_TOL,
                  help="reconstruction tolerance (unitarity/membership use tol/10)"),
    "--rank-tol": dict(type=_tolerance, default=RANK_TOL,
                       help="relative eigenvalue threshold for the Gram rank"),
    "--seed": dict(type=int, default=0, help="random seed"),
    "--max-n": dict(type=int, default=None, help="cap the grid dimension"),
    "--trials": dict(type=int, default=200, help="trial count per suite"),
    "--mutate": dict(action="store_true", help="inject a construction fault (suites must fail)"),
    "--out": dict(default="-", help="output file ('-' for stdout)"),
}
_SPEC = tuple(_SPEC_FLAGS.values())


def _cmd_decompose(args) -> int:
    spec, matrix, _ = instance_from_json(canonical_loads(_read_text(args.infile)))
    doc, ok = run_decompose(spec, matrix, args.tol)
    if "warning" in doc:
        print(f"warning: {doc['warning']}", file=sys.stderr)
    _emit(doc, args.out)
    return EXIT_OK if ok else EXIT_RESIDUAL


def _cmd_verify(args) -> int:
    d, stored = decomposition_from_json(canonical_loads(_read_text(args.infile)))
    if stored is None:
        raise ParseError("decomposition file carries no stored report")
    rep, matches, ok = reverify(d.spec, d.target, d, stored, args.tol)
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
    cert = run_spancert(spec, rank_tol=args.rank_tol, tol=args.tol)
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
            {"name": r.name, "pass": r.passed, "detail": r.detail, "seconds": r.seconds}
            for r in results
        ],
        "pass": all(r.passed for r in results),
    }
    _emit(doc, args.out)
    return EXIT_OK if doc["pass"] else EXIT_RESIDUAL


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="unispan",
        description="conditional expectations onto type I subalgebras and "
                    "unitary decompositions of their orthogonal complements",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, flags, text in (
        ("decompose", _cmd_decompose, ("--in", "--tol"), "decompose an instance file"),
        ("verify", _cmd_verify, ("--in", "--tol"), "re-verify a stored decomposition"),
        ("expect", _cmd_expect, ("--in",), "print the conditional expectation of an instance"),
        ("spancert", _cmd_spancert, _SPEC + ("--tol", "--rank-tol"),
         "certify the span of produced unitaries"),
        ("random-instance", _cmd_random_instance, _SPEC + ("--seed",),
         "emit a deterministic random instance"),
        ("selftest", _cmd_selftest, ("--max-n", "--trials", "--mutate", "--seed"),
         "run the batch invariant suites"),
    ):
        p = sub.add_parser(name, help=text)
        for flag in flags + ("--out",):
            p.add_argument(flag, **_FLAGS[flag])
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
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
