"""Command-line front end: build, inspect, and verify certificates and groups.

Exit codes are stable: 0 success, 2 bad arguments, unreadable input file or
parse failure, 3 internal verification mismatch, 4 precision exhaustion,
5 materialization limit exceeded, 6 unrealizable break multiset.  stdout
carries only the artifact; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
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
    make_group,
    minimal_nonabelian_quotient,
    parse_group_descriptor,
)
from .pgroups.base import _check_limit, _log_p
from .ramcalc import (
    _read_break,
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


def _load_group(descriptor: str):
    """A GROUP operand: a descriptor, or @path to a whitespace-separated
    Cayley table whose order is a power of an odd prime."""
    if descriptor.startswith("@"):
        with open(descriptor[1:]) as fh:  # open("") is a missing file; Path("") is "."
            text = fh.read()
        # the order is refused before any token is converted, and each row's
        # length before its own: a refused file converts fewer than n^2 tokens
        lines = [line for line in text.splitlines() if line.strip()]
        n = len(lines)
        if n == 0:
            raise ParameterError(f"no Cayley table in {descriptor[1:]!r}")
        if n > DEFAULT_LIMIT:
            raise MaterializationLimitError(
                f"table of order {n} exceeds materialization limit {DEFAULT_LIMIT}"
            )
        # its prime is the least prime factor of n, 3 for the trivial table
        p = next((q for q in range(2, math.isqrt(n) + 1) if n % q == 0), n if n > 1 else 3)
        if p == 2:
            raise ParameterError(f"order {n} is even, not a power of an odd prime")
        _log_p(n, p)
        rows = []
        for line in lines:
            row = line.split()
            if len(row) != n:
                raise ParameterError(f"Cayley table of {n} rows has a row of {len(row)} entries")
            rows.append([int(tok) for tok in row])
        G = TableGroup(p, rows)
        G._descriptor = descriptor  # the `group:` line and every message name it as given
        return G
    G = parse_group_descriptor(descriptor)
    _check_limit(G)
    return G


def _report(pairs) -> None:
    for k, v in pairs:
        print(f"{k}: {v}")


def cmd_p3(args) -> int:
    params = P3Parameters.derive(args.p, args.b, args.a)
    unit = parse_series(args.beta_unit) if args.beta_unit else None
    cert = build_p3_tower(params, precision=args.precision, beta_unit=unit)
    sys.stdout.write(cert.render())
    return EXIT_OK


def cmd_group(args) -> int:
    groups = [_load_group(spec) for spec in args.group]
    if args.group_cmd == "iso":
        print("isomorphic" if is_isomorphic(*groups) else "not isomorphic")
        return EXIT_OK
    (G,) = groups
    if args.group_cmd == "make":
        _report([("group", G.descriptor()), ("order", G.order)])
        return EXIT_OK
    if args.group_cmd == "basics":
        gb = group_basics(G)
        _report(
            [
                ("group", G.descriptor()),
                ("order", gb.order),
                ("center_order", len(gb.center)),
                ("commutator_order", len(gb.commutator_subgroup)),
                ("frattini_order", len(gb.frattini)),
                ("rank", gb.rank),
                ("exponent", gb.exponent),
            ]
        )
    elif args.group_cmd == "classify":
        cls = classify_minimal(G)
        print(f"{cls.kind} n={cls.n} d={cls.d}")
    elif args.group_cmd == "minquot":
        kernel, quotient, cls = minimal_nonabelian_quotient(G)
        _report(
            [
                ("kernel_order", len(kernel)),
                ("quotient", make_group(cls.kind, G.p, cls.n, cls.d).descriptor()),
            ]
        )
    return EXIT_OK


def cmd_breaks(args) -> int:
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
        u, v = _read_break(args.u), _read_break(args.v)
        res = fact1_resolve(parse_multiset(args.multiset), u, v)
        _report(
            [
                ("lower_u", res.lower_u),
                ("lower_v", res.lower_v),
                ("carrier_upper", res.l0_breaks.to_text()),
                ("carrier_relative_break", res.l0_relative_break),
                ("others_upper", res.other_breaks.to_text()),
                ("others_relative_break", res.other_relative_break),
            ]
        )
        for w in res.warnings:
            print(f"warning: {w}", file=sys.stderr)
    return EXIT_OK


def cmd_verify(args) -> int:
    for name in args.certificate:
        if name == "":  # Path("") is the working directory
            raise ParameterError("certificate path '' names no file")
        path = Path(name)
        verify_certificate(path.read_text())
        print(f"{path}: verified")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """A parser, like each of its subparsers, that reads an option by its
    full name only, and whose usage error names a ``--name`` it does not
    define, before the value after it can be read as an operand or a
    command.  It looks at its own arguments, up to its subcommand, and skips
    the value after each option it defines; with --help, argparse prints help."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def parse_known_args(self, args=None, namespace=None):
        args = sys.argv[1:] if args is None else args
        known, unknown, tokens = self._option_string_actions, [], iter(args)
        for arg in tokens:
            if not arg.startswith("-"):  # an operand, or the subcommand
                if self._subparsers is not None:
                    break
                continue
            if arg == "--":
                break
            name = arg.split("=", 1)[0]
            action = known.get(name)
            if action is None and name.startswith("--"):
                unknown.append(name)
            elif isinstance(action, argparse._HelpAction):
                return super().parse_known_args(args, namespace)
            elif action is not None and action.nargs != 0 and "=" not in arg:
                next(tokens, None)  # its value, which may start with "-"
        if unknown:
            self.error(f"unrecognized option: {unknown[0]}")
        return super().parse_known_args(args, namespace)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first call; parse_args leaves it unchanged."""
    ap = _Parser(prog="ramforge", description=__doc__)
    ap.add_argument(
        "--precision",
        type=int,
        default=DEFAULT_PRECISION,
        help=f"p3: series precision window in coefficients (default {DEFAULT_PRECISION})",
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
    for name, operands in (("make", 1), ("basics", 1), ("classify", 1), ("minquot", 1), ("iso", 2)):
        g = gsub.add_parser(name)
        g.add_argument(
            "group",
            nargs=operands,
            metavar="GROUP",
            help="descriptor, or @path to a Cayley table of odd prime-power order",
        )
        g.set_defaults(func=cmd_group)

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

    vf = sub.add_parser("verify", help="re-execute and compare certificates")
    vf.add_argument(
        "certificate",
        nargs="+",
        metavar="CERT",
        help="certificate file, checked in the order given; the first failure stops the run",
    )
    vf.set_defaults(func=cmd_verify)
    return ap


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 - mapped to stable exit codes
        code = _exit_code_for(exc)
        print(f"error: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    raise SystemExit(main())
