"""Command-line front end: build, inspect, and verify certificates and groups.

Exit codes are stable: 0 success, 2 bad arguments, unreadable input file or
parse failure, 3 internal verification mismatch, 4 precision exhaustion,
5 materialization limit exceeded, 6 unrealizable break multiset.  stdout
carries only the artifact; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from fractions import Fraction
from pathlib import Path

from .errors import (
    InsufficientPrecisionError,
    InternalCheckError,
    MaterializationLimitError,
    ParameterError,
    ParseError,
    UnrealizableMultisetError,
    VerificationMismatchError,
)
from .forge import (
    DEFAULT_PRECISION,
    P3Parameters,
    build_p3_tower,
    verify_certificate,
)
from .laurent import parse_series
from .pgroups import (
    DEFAULT_LIMIT,
    TableGroup,
    classify_minimal,
    group_basics,
    is_isomorphic,
    minimal_nonabelian_quotient,
    parse_group_descriptor,
)
from .pgroups.base import _check_limit
from .ramcalc import (
    compose_disjoint,
    fact1_resolve,
    lower_to_upper,
    parse_multiset,
    upper_to_lower,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_MISMATCH = 3
EXIT_PRECISION = 4
EXIT_LIMIT = 5
EXIT_UNREALIZABLE = 6

MIN_PRECISION = 64
MIN_LIMIT = 27


def _exit_code_for(exc: Exception) -> int:
    if isinstance(exc, (VerificationMismatchError, InternalCheckError)):
        return EXIT_MISMATCH
    if isinstance(exc, InsufficientPrecisionError):
        return EXIT_PRECISION
    if isinstance(exc, MaterializationLimitError):
        return EXIT_LIMIT
    if isinstance(exc, UnrealizableMultisetError):
        return EXIT_UNREALIZABLE
    if isinstance(exc, (ParameterError, ParseError, ValueError, OSError)):
        return EXIT_USAGE
    raise exc


def _load_group(descriptor: str, p_hint: int | None, limit: int):
    """A group descriptor, or @path to a whitespace-separated Cayley table."""
    if descriptor.startswith("@"):
        rows = []
        with open(descriptor[1:]) as fh:  # open("") is a missing file; Path("") is "."
            text = fh.read()
        for line in text.splitlines():
            if line.strip():
                rows.append([int(tok) for tok in line.split()])
        n = len(rows)
        if n == 0:
            raise ParameterError(f"no Cayley table in {descriptor[1:]!r}")
        if n > limit:
            raise MaterializationLimitError(
                f"table of order {n} exceeds materialization limit {limit}"
            )
        if p_hint is None:
            p_hint = _infer_prime(n)
        return TableGroup(p_hint, rows)
    G = parse_group_descriptor(descriptor)
    _check_limit(G, limit)
    return G


def _infer_prime(n: int) -> int:
    for p in (3, 5, 7, 11, 13):
        m = n
        while m % p == 0:
            m //= p
        if m == 1:
            return p
    raise ParameterError(f"order {n} is not a power of a small odd prime; pass --p")


def _report(pairs, structured: bool) -> None:
    for k, v in pairs:
        print(f"{k}={v}" if structured else f"{k}: {v}")


def cmd_p3(args) -> int:
    params = P3Parameters.derive(args.p, args.b, args.a)
    unit = parse_series(args.beta_unit) if args.beta_unit else None
    cert = build_p3_tower(params, precision=args.precision, beta_unit=unit)
    sys.stdout.write(cert.render())
    return EXIT_OK


def cmd_group(args) -> int:
    structured = args.output == "structured-text"
    if args.group_cmd == "iso":
        lhs = _load_group(args.lhs, args.p, args.limit)
        rhs = _load_group(args.rhs, args.p, args.limit)
        same = is_isomorphic(lhs, rhs, args.limit)
        print("isomorphic" if same else "not isomorphic")
        return EXIT_OK
    G = _load_group(args.descriptor if args.table is None else f"@{args.table}", args.p, args.limit)
    if args.group_cmd == "make":
        _report(
            [("group", G.descriptor()), ("order", G.order)],
            structured,
        )
    elif args.group_cmd == "basics":
        gb = group_basics(G, args.limit)
        _report(
            [
                ("group", G.descriptor()),
                ("order", gb.order),
                ("center_order", len(gb.center)),
                ("commutator_order", len(gb.commutator_subgroup)),
                ("frattini_order", len(gb.frattini)),
                ("rank", gb.rank),
                ("exponent", gb.exponent),
            ],
            structured,
        )
    elif args.group_cmd == "classify":
        cls = classify_minimal(G, args.limit)
        print(f"{cls.kind} n={cls.n} d={cls.d}")
    elif args.group_cmd == "minquot":
        kernel, quotient, cls = minimal_nonabelian_quotient(G, args.limit)
        _report(
            [
                ("kernel_order", len(kernel)),
                ("quotient", f"kind={cls.kind} p={G.p} n={cls.n} d={cls.d}"),
            ],
            structured,
        )
    return EXIT_OK


def cmd_breaks(args) -> int:
    structured = args.output == "structured-text"
    if args.breaks_cmd == "tolower":
        print(upper_to_lower(parse_multiset(args.multiset)).to_text())
    elif args.breaks_cmd == "toupper":
        print(lower_to_upper(parse_multiset(args.multiset)).to_text())
    elif args.breaks_cmd == "compose":
        print(
            compose_disjoint(
                parse_multiset(args.left), parse_multiset(args.right)
            ).to_text()
        )
    elif args.breaks_cmd == "fact1":
        try:
            u, v = Fraction(args.u), Fraction(args.v)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"malformed break: --u {args.u!r} --v {args.v!r}") from exc
        res = fact1_resolve(parse_multiset(args.multiset), u, v)
        _report(
            [
                ("lower_u", res.lower_u),
                ("lower_v", res.lower_v),
                ("carrier_upper", res.l0_breaks.to_text()),
                ("carrier_relative_break", res.l0_relative_break),
                ("others_upper", res.other_breaks.to_text()),
                ("others_relative_break", res.other_relative_break),
            ],
            structured,
        )
        for w in res.warnings:
            print(f"warning: {w}", file=sys.stderr)
    return EXIT_OK


def cmd_verify(args) -> int:
    paths = [Path(args.certificate)] if args.certificate else []
    if args.seed_corpus:
        paths += sorted(Path(args.seed_corpus).glob("*.cert"))
    if not paths:
        raise ParameterError("nothing to verify: pass a certificate file or --seed-corpus")
    for path in paths:
        verify_certificate(path.read_text())
        print(f"{path}: verified")
    return EXIT_OK


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first call; parse_args leaves it unchanged."""
    ap = argparse.ArgumentParser(prog="ramforge", description=__doc__)
    ap.add_argument(
        "--precision",
        type=int,
        default=None,
        help=f"series precision window in coefficients (default {DEFAULT_PRECISION}, "
        "env RAMFORGE_PRECISION)",
    )
    ap.add_argument(
        "--limit",
        type=int,
        default=DEFAULT_LIMIT,
        help=f"group materialization limit (default {DEFAULT_LIMIT})",
    )
    ap.add_argument(
        "--output",
        choices=["text", "structured-text"],
        default="text",
        help="report format for group/breaks subcommands",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p3 = sub.add_parser("p3", help="build an order-p^3 tower certificate")
    p3.add_argument("--p", type=int, required=True)
    p3.add_argument("--b", type=int, required=True)
    p3.add_argument("--a", type=int, required=True)
    p3.add_argument(
        "--beta-unit",
        default=None,
        help="series text for a unit multiplier on the base datum",
    )
    p3.set_defaults(func=cmd_p3)

    gp = sub.add_parser("group", help="construct and analyze p-groups")
    gsub = gp.add_subparsers(dest="group_cmd", required=True)
    for name in ("make", "basics", "classify", "minquot"):
        g = gsub.add_parser(name)
        g.add_argument("--kind", default=None)
        g.add_argument("--p", type=int, default=None)
        g.add_argument("--n", type=int, default=None)
        g.add_argument("--d", type=int, default=None)
        g.add_argument("--descriptor", default=None, help="full group descriptor text")
        g.add_argument("--table", default=None, help="path to a Cayley table file")
        g.set_defaults(func=cmd_group)
    gi = gsub.add_parser("iso")
    gi.add_argument("--lhs", required=True, help="descriptor or @table-path")
    gi.add_argument("--rhs", required=True, help="descriptor or @table-path")
    gi.add_argument("--p", type=int, default=None)
    gi.set_defaults(func=cmd_group)

    br = sub.add_parser("breaks", help="break multiset calculus")
    bsub = br.add_subparsers(dest="breaks_cmd", required=True)
    for name in ("tolower", "toupper"):
        b = bsub.add_parser(name)
        b.add_argument("multiset")
        b.set_defaults(func=cmd_breaks)
    bc = bsub.add_parser("compose")
    bc.add_argument("left")
    bc.add_argument("right")
    bc.set_defaults(func=cmd_breaks)
    bf = bsub.add_parser("fact1")
    bf.add_argument("--multiset", required=True)
    bf.add_argument("--u", required=True)
    bf.add_argument("--v", required=True)
    bf.set_defaults(func=cmd_breaks)

    vf = sub.add_parser("verify", help="re-execute and compare a certificate")
    vf.add_argument("certificate", nargs="?", default=None)
    vf.add_argument(
        "--seed-corpus",
        default=None,
        help="directory of *.cert files to verify in name order",
    )
    vf.set_defaults(func=cmd_verify)
    return ap


def _normalize_group_args(args) -> None:
    if getattr(args, "group_cmd", None) in ("make", "basics", "classify", "minquot"):
        if args.descriptor is None and args.table is None:
            if args.kind is None or args.p is None:
                raise ParameterError(
                    "give --kind/--p/--n/--d, or --descriptor, or --table"
                )
            if args.kind == "C":
                args.descriptor = f"kind=C p={args.p} k={args.d}"
            else:
                args.descriptor = (
                    f"kind={args.kind} p={args.p} n={args.n} d={args.d}"
                )


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.precision is None:
            args.precision = int(os.environ.get("RAMFORGE_PRECISION", DEFAULT_PRECISION))
        if args.precision < MIN_PRECISION:
            raise ParameterError(
                f"precision must be >= {MIN_PRECISION}, got {args.precision}"
            )
        if args.limit < MIN_LIMIT:
            raise ParameterError(f"limit must be >= {MIN_LIMIT}, got {args.limit}")
        _normalize_group_args(args)
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 - mapped to stable exit codes
        code = _exit_code_for(exc)
        print(f"error: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    raise SystemExit(main())
