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
        raise ParseError(f"cannot read {path}: {exc.strerror}") from None


def _emit(doc, out: str) -> None:
    text = canonical_dumps(doc)
    if out == "-":
        sys.stdout.write(text)
        return
    try:
        write_atomic(out, text)
    except OSError as exc:
        raise ParseError(f"cannot write {out}: {exc.strerror}") from None


_NO_SPEC = "no subalgebra given: use --spec FILE, --class ... or --blocks ..."


def _parse_list(flag: str, text: str, item) -> list:
    """``item`` of each comma-separated part of ``text``."""
    try:
        return [item(part) for part in text.split(",")]
    except ValueError:
        raise ParseError(f"cannot parse {flag} {text!r}") from None


def _kxm(part: str):
    k, m = part.lower().split("x")
    return int(k), [int(m)]


# spec source -> (the spec flags it reads, any other one given being an
# error; the flag it needs; the error when that flag is absent or empty; the
# [(k, [m, ...])] blocks it builds from the flag values, or None to read the
# --spec file)
_SOURCES = {
    "--spec": (("--spec",), "--spec", _NO_SPEC, None),
    "--class c1": (("--class", "--n"), "--n", "--class c1 needs --n",
                   lambda v: [(1, [1] * v["--n"])]),
    "--class c2": (("--class", "--k", "--m"), "--m", "--class c2 needs --m (and optionally --k)",
                   lambda v: [(1 if v["--k"] is None else v["--k"], [v["--m"]])]),
    "--class c3": (("--class", "--atoms"), "--atoms", "--class c3 needs --atoms, e.g. --atoms 2,4",
                   lambda v: [(1, _parse_list("--atoms", v["--atoms"], int))]),
    "--class c4": (("--class", "--blocks"), "--blocks",
                   "--class c4 needs --blocks, e.g. --blocks 2x2,1x4",
                   lambda v: _parse_list("--blocks", v["--blocks"], _kxm)),
    "--blocks": (("--blocks",), "--blocks", _NO_SPEC,
                 lambda v: _parse_list("--blocks", v["--blocks"], _kxm)),
}


def _spec_from_args(args) -> TypeISubalgebraSpec:
    """The spec of the one source the spec flags choose: ``--spec``, else
    ``--class``, else ``--blocks``.  A flag-built spec goes through the
    same parse as a spec file."""
    given = {flag: vars(args)[flag[2:]] for flag in _SPEC}
    if given["--spec"] is not None:
        key = "--spec"
    elif given["--class"] is not None:
        key = f"--class {given['--class']}"
    elif given["--blocks"] is not None:
        key = "--blocks"
    else:
        raise ParseError(_NO_SPEC)
    reads, needs, missing, blocks = _SOURCES[key]
    extra = [flag for flag, value in given.items() if flag not in reads and value is not None]
    if extra:
        raise ParseError(f"{', '.join(extra)} cannot be combined with {key}")
    if given[needs] in (None, ""):
        raise ParseError(missing)
    if blocks is None:
        doc = canonical_loads(_read_text(given["--spec"]))
        # a document that holds a spec, such as an instance file, gives that spec
        if isinstance(doc, dict) and "blocks" not in doc and "spec" in doc:
            doc = doc["spec"]
    else:
        doc = {"blocks": [{"k": k, "atom_mults": ms} for k, ms in blocks(given)]}
    return spec_from_json(doc)


def _tolerance(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be a finite number > 0, got {text!r}")
    return value


def _seed(text: str) -> int:
    """A seed: an integer in ``[0, 2**64)``, the key range of the generators."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError(f"must be an integer in [0, 2**64), got {text!r}")
    return value


# every flag of a subcommand, by name; each subcommand takes only those it reads
_FLAGS = {
    "--in": dict(dest="infile", required=True, help="input JSON file ('-' for stdin)"),
    "--spec": dict(help="JSON file holding the subalgebra spec"),
    "--class": dict(choices=["c1", "c2", "c3", "c4"], help="spec shape class"),
    "--n": dict(type=int, help="ambient dimension (c1)"),
    "--k": dict(type=int, help="factor size (c2)"),
    "--m": dict(type=int, help="atom multiplicity (c2)"),
    "--atoms": dict(help="comma-separated atom ranks (c3)"),
    "--blocks": dict(help="comma-separated KxM blocks (c4 or general)"),
    "--tol": dict(type=_tolerance, default=RECON_TOL,
                  help="reconstruction tolerance (unitarity/membership use tol/10)"),
    "--rank-tol": dict(type=_tolerance, default=RANK_TOL,
                       help="relative eigenvalue threshold for the Gram rank"),
    "--seed": dict(type=_seed, default=0, help="random seed"),
    "--max-n": dict(type=int, default=None, help="cap the grid dimension"),
    "--trials": dict(type=int, default=200, help="trial count per suite"),
    "--mutate": dict(action="store_true", help="inject a construction fault (suites must fail)"),
    "--out": dict(default="-", help="output file ('-' for stdout)"),
}
_SPEC = ("--spec", "--class", "--n", "--k", "--m", "--atoms", "--blocks")


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
    except (UnispanError, ArithmeticError, MemoryError) as exc:
        sys.stdout.write(canonical_dumps({"error": "failed", "detail": str(exc)}))
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESIDUAL


if __name__ == "__main__":
    sys.exit(main())
