"""Command-line front-end: gen, search, verify, construct, sweep.

JSON output is the machine interface and is byte-stable across runs; text
tables are human-facing.  Exit codes: 0 found/ok, 1 validation failure,
2 refused or usage error, 3 certified not-found.
"""

from __future__ import annotations

import argparse
import json
import sys

from .core import (
    GENERATORS,
    LatinSquare,
    format_ls,
    load_square_text,
    square_descriptor,
    square_from_descriptor,
    square_to_json_dict,
)
from .errors import FormatError, LatinSquareError, OrderTooLargeError, OrderTooSmallError
from .plexes import (
    SWEEP_GENERATORS,
    CellSet,
    conjecture_sweep,
    enumerate_transversals,
    find_kplex,
    find_near_transversal,
    find_orthogonal_mate,
    find_quasi_transversal,
    max_disjoint_transversals,
)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_REFUSED = 2
EXIT_NOT_FOUND = 3

#: the names of constructions.CLAIMS, in its order: parsing arguments must not import it
CLAIM_NAMES = ("twostep-decomp", "3ds-q1", "3ds-qgen", "domatic-cyclic",
               "2plex-q1", "2plex-m2", "2plex-gen", "qt-nt-transforms")


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(obj, out_path: str | None) -> None:
    _emit(json.dumps(obj, indent=2) + "\n", out_path)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--out", default=None, help="write output to this path")


def _load_square(args) -> LatinSquare:
    if args.stdin:
        return load_square_text(sys.stdin.read())
    if not args.square:
        raise ValueError("provide a square path or --stdin")
    with open(args.square, encoding="utf-8") as fh:
        return load_square_text(fh.read())


def cmd_gen(args) -> int:
    _, names = GENERATORS[args.kind]
    try:
        square = square_from_descriptor(
            square_descriptor(args.kind, **{name: getattr(args, name) for name in names})
        )
    except (FormatError, OrderTooSmallError) as exc:  # a missing or out-of-range argument
        raise ValueError(str(exc)) from None
    if args.format == "json":
        _emit_json(square_to_json_dict(square), args.out)
    else:
        _emit(format_ls(square), args.out)
    return EXIT_OK


def _witness_payload(kind: str, witness: CellSet | None) -> dict:
    return {
        "kind": kind,
        "found": witness is not None,
        "witness": None if witness is None else witness.to_json_dict(),
    }


def cmd_search(args) -> int:
    square = _load_square(args)
    n = square.order
    if args.what == "transversal":
        if args.cap < 0:
            raise ValueError(f"--cap must be at least 0, got {args.cap}")
        census = enumerate_transversals(square, cap=0 if args.count else args.cap)
        if args.format == "json":
            _emit_json(census.to_json_dict(), args.out)
        else:
            _emit(f"transversals of order-{n} square: {census.count}\n", args.out)
        return EXIT_OK if census.count else EXIT_NOT_FOUND
    if args.what == "near":
        w = find_near_transversal(square)
        payload = _witness_payload("near-transversal", w)
    elif args.what == "quasi":
        w = find_quasi_transversal(square)
        payload = _witness_payload("quasi-transversal", w)
    elif args.what == "kplex":
        if not 1 <= args.k <= n:
            raise ValueError(f"k must be in 1..{n}")
        w = find_kplex(square, args.k)
        payload = _witness_payload(f"{args.k}-plex", w)
    elif args.what == "mate":
        mate = find_orthogonal_mate(square)
        payload = {
            "kind": "orthogonal-mate",
            "found": mate is not None,
            "witness": None if mate is None else square_to_json_dict(mate),
        }
        w = mate
    else:  # tau
        tau, family = max_disjoint_transversals(square)
        payload = {
            "kind": "tau",
            "tau": tau,
            "witnesses": [t.to_json_dict() for t in family],
        }
        w = tau or None
    if args.format == "json":
        _emit_json(payload, args.out)
    else:
        if args.what == "tau":
            _emit(f"tau = {payload['tau']}\n", args.out)
        else:
            _emit(f"{payload['kind']}: {'found' if payload['found'] else 'not found'}\n", args.out)
    return EXIT_OK if w is not None else EXIT_NOT_FOUND


def cmd_verify(args) -> int:
    from . import constructions as cons
    if args.stdin:
        text = sys.stdin.read()
    else:
        if not args.certificate:
            raise ValueError("provide a certificate path or --stdin")
        with open(args.certificate, encoding="utf-8") as fh:
            text = fh.read()
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:  # bad syntax, a huge integer, deep nesting
        raise LatinSquareError(f"bad certificate JSON: {exc}") from None
    cert = cons.WitnessCertificate.from_json_dict(obj)
    ok, issues = cons.verify_certificate(cert)
    accepted = ok and cert.verdict
    payload = {"claim": cert.claim, "accepted": accepted, "issues": issues}
    if args.format == "json":
        _emit_json(payload, args.out)
    else:
        lines = [f"{cert.claim}: {'accepted' if accepted else 'REJECTED'}"]
        lines += [f"  - {i}" for i in issues]
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK if accepted else EXIT_INVALID


def cmd_construct(args) -> int:
    from . import constructions as cons
    _, build, names = cons.CLAIMS[args.claim]
    cert = build(*(_require(args, name) for name in names))
    _emit_json(cert.to_json_dict(), args.out)
    return EXIT_OK


def _require(args, name: str):
    if name == "square":  # the square --gen names, from that generator's options
        _, names = GENERATORS[args.gen]
        return square_descriptor(args.gen, **{p: _require(args, p) for p in names})
    value = getattr(args, name)
    if value is None:
        raise ValueError(f"claim {args.claim!r} needs --{name}")
    return value


def cmd_sweep(args) -> int:
    report = conjecture_sweep(
        min_order=args.min_order,
        max_order=args.max_order,
        generators=tuple(args.generators.split(",")),
        isotopes=args.isotopes,
        seed=args.seed,
    )
    if args.format == "json":
        _emit_json(report.to_json_dict(), args.out)
    elif not report.rows:
        _emit("empty sweep\n", args.out)
    else:
        lines = [f"{'square':<16} {'n':>2}  near quasi 2plex"]
        for row in report.rows:
            q = "yes" if row.quasi else ("n/a" if row.order < 3 else "NO")
            lines.append(
                f"{row.label:<16} {row.order:>2}  "
                f"{'yes' if row.near else 'NO':<4} {q:<5} "
                f"{'yes' if row.two_plex else 'NO'}"
            )
        if report.counterexample is not None:
            lines.append(f"COUNTEREXAMPLE: {report.counterexample.label}")
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_INVALID if report.counterexample else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latinplex",
        description="Transversals, plexes, and domination structure of Latin squares.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a square")
    p_gen.add_argument("kind", choices=tuple(GENERATORS))
    p_gen.add_argument("n", type=int, nargs="?", help="order (cyclic)")
    p_gen.add_argument("--m", type=int)
    p_gen.add_argument("--q", type=int)
    p_gen.add_argument("--k", type=int)
    _add_common(p_gen)
    p_gen.set_defaults(func=cmd_gen)

    p_search = sub.add_parser("search", help="search a square for a structure")
    p_search.add_argument("what", choices=("transversal", "near", "quasi", "kplex", "mate", "tau"))
    p_search.add_argument("square", nargs="?", help="path to .ls or JSON square")
    p_search.add_argument("--stdin", action="store_true")
    p_search.add_argument("--count", action="store_true", help="count only, no witnesses")
    p_search.add_argument("--cap", type=int, default=10, help="max witnesses to report")
    p_search.add_argument("--k", type=int, default=2, help="plex multiplicity")
    _add_common(p_search)
    p_search.set_defaults(func=cmd_search)

    p_verify = sub.add_parser("verify", help="re-validate a certificate")
    p_verify.add_argument("certificate", nargs="?")
    p_verify.add_argument("--stdin", action="store_true")
    _add_common(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_cons = sub.add_parser("construct", help="run an explicit construction")
    p_cons.add_argument("claim", choices=CLAIM_NAMES)
    p_cons.add_argument("--n", type=int)
    p_cons.add_argument("--m", type=int)
    p_cons.add_argument("--q", type=int)
    p_cons.add_argument("--k", type=int)
    p_cons.add_argument("--gen", choices=tuple(GENERATORS), default="cyclic")
    _add_common(p_cons)
    p_cons.set_defaults(func=cmd_construct)

    p_sweep = sub.add_parser("sweep", help="test the three existence conjectures")
    p_sweep.add_argument("--min-order", type=int, default=2)
    p_sweep.add_argument("--max-order", type=int, default=7)
    p_sweep.add_argument(
        "--generators", default=",".join(SWEEP_GENERATORS),
        help="comma list: " + ",".join(SWEEP_GENERATORS),
    )
    p_sweep.add_argument("--isotopes", type=int, default=0, help="random isotopes per order")
    p_sweep.add_argument("--seed", type=int, default=0, help="seed of the random isotopes")
    _add_common(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OrderTooLargeError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_REFUSED
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_REFUSED
    except LatinSquareError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
