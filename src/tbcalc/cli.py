"""Command-line interface.

Exit codes are a stable contract: 0 success, 1 user-input error (bad
flags, malformed documents, invalid exponents), 2 internal invariant
violation (a pipeline self-check failed, or a verify run found a
violation of one of the identities).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys

from .cover import SIGN_MINUS, SIGN_PLUS
from .errors import InternalInvariantError, MalformedDecomposition, UserInputError
from .linkform import Decomposition, linking_form_from_decomposition
from .numeric import format_rational
from .serialize import to_dot
from .tb import TbResult, evaluation_graph, tb
from .verify import SUITE_NAMES, verify_identities


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; that status is
    reserved here for internal invariant failures, so remap to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _tb_document(result: TbResult) -> dict:
    return {
        "m": result.m,
        "n": result.n,
        "sign": result.sign,
        "value": format_rational(result.value),
        "integer": result.is_integer,
        "N": result.n_real,
        "wr": sorted(result.wr),
        "n_prime": {str(v): format_rational(x)
                    for v, x in sorted(result.n_prime_contrib.items())},
        "arm_weights": {str(v): [format_rational(x) for x in weights]
                        for v, weights in sorted(result.arm_weights.items())},
        "level": result.level,
    }


def cmd_compute(args) -> int:
    result = tb(args.m, args.n, args.sign)
    if args.dot:
        marked, cd, _level = evaluation_graph(args.m, args.n, args.sign)
        doc = to_dot(marked.graph, w=cd.w)
        with open(args.dot, "w", encoding="utf-8") as handle:
            handle.write(doc)
    if args.json:
        print(json.dumps(_tb_document(result), indent=2))
        return 0
    print(format_rational(result.value))
    if args.explain:
        print(f"N = {result.n_real}")
        print(f"W_R = {sorted(result.wr)}")
        print(f"level = {result.level}")
        for v in sorted(result.n_prime_contrib):
            weights = ", ".join(format_rational(x) for x in result.arm_weights[v])
            print(f"n'({v}) = {format_rational(result.n_prime_contrib[v])}"
                  + (f"  [imaginary arm weights: {weights}]" if weights else ""))
    return 0


def _parse_range(text: str) -> tuple[int, int]:
    parts = text.split(":")
    if len(parts) != 2:
        raise UserInputError(f"range must look like A:B, got {text!r}")
    try:
        lo, hi = int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise UserInputError(f"range bounds must be integers: {text!r}") from exc
    if lo > hi:
        raise UserInputError(f"empty range {text!r}")
    return lo, hi


def cmd_table(args) -> int:
    m_lo, m_hi = _parse_range(args.m_range)
    n_lo, n_hi = _parse_range(args.n_range)
    pairs = []
    skipped = 0
    for m in range(m_lo, m_hi + 1):
        for n in range(n_lo, n_hi + 1):
            if m < 2 or n < 2 or math.gcd(m, n) != 1:
                skipped += 1
            else:
                pairs.append((m, n))

    def row(pair):
        m, n = pair
        result = tb(m, n, args.sign)
        return (m, n, args.sign, result.value.numerator,
                result.value.denominator,
                "true" if result.is_integer else "false")

    rows = [row(pair) for pair in pairs]

    with open(args.out, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["m", "n", "sign", "tb_num", "tb_den", "integer_flag"])
        writer.writerows(rows)
        handle.write(f"# skipped: {skipped}\n")
    return 0


def cmd_verify(args) -> int:
    suites = [s.strip() for s in args.suite.split(",") if s.strip()]
    if not suites:
        raise UserInputError("no suites requested")
    for name in suites:
        if name not in SUITE_NAMES:
            raise UserInputError(
                f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}"
            )
    report = verify_identities(args.m_max, args.n_max, k_max=args.k_max,
                               suites=suites)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        for suite in report.suites:
            print(f"{suite.name}: checked {suite.checked}, "
                  f"skipped {suite.skipped}, violations {len(suite.violations)}")
            for item in suite.violations:
                print(f"  {item['identity']}: {item['detail']}")
    return 0 if report.total_violations == 0 else 2


def cmd_linkform(args) -> int:
    try:
        with open(args.decomposition, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except json.JSONDecodeError as exc:
        raise MalformedDecomposition(f"invalid JSON: {exc}") from exc
    decomposition = Decomposition.from_json(doc)
    matrix = linking_form_from_decomposition(decomposition)
    if args.json:
        print(json.dumps({"size": matrix.size,
                          "pieces": [p.id for p in decomposition.pieces],
                          "entries": matrix.as_strings()}, indent=2))
    else:
        rows = ",".join("[" + ",".join(row) + "]" for row in matrix.as_strings())
        print(f"[{rows}]")
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="tbcalc",
                     description="Exact Thurston-Bennequin invariants of "
                                 "Brieskorn double point links")
    sub = parser.add_subparsers(dest="command", required=True)

    compute = sub.add_parser("compute", help="evaluate tb(m, n) for one sign")
    compute.add_argument("--m", type=int, required=True)
    compute.add_argument("--n", type=int, required=True)
    compute.add_argument("--sign", choices=(SIGN_PLUS, SIGN_MINUS), required=True)
    compute.add_argument("--json", action="store_true")
    compute.add_argument("--dot", metavar="PATH",
                         help="write the annotated evaluation graph as DOT")
    compute.add_argument("--explain", action="store_true")
    compute.set_defaults(func=cmd_compute)

    table = sub.add_parser("table", help="tabulate tb over an exponent grid")
    table.add_argument("--m-range", required=True, metavar="A:B")
    table.add_argument("--n-range", required=True, metavar="C:D")
    table.add_argument("--sign", choices=(SIGN_PLUS, SIGN_MINUS), required=True)
    table.add_argument("--out", required=True, metavar="PATH.csv")
    table.set_defaults(func=cmd_table)

    verify = sub.add_parser("verify", help="check the tb identities on a grid")
    verify.add_argument("--suite", default=",".join(SUITE_NAMES),
                        help="comma-separated suite names")
    verify.add_argument("--m-max", type=int, required=True)
    verify.add_argument("--n-max", type=int, required=True)
    verify.add_argument("--k-max", type=int, default=3)
    verify.add_argument("--json", action="store_true")
    verify.set_defaults(func=cmd_verify)

    linkform = sub.add_parser("linkform",
                              help="evaluate a decomposition linking form")
    linkform.add_argument("--decomposition", required=True, metavar="PATH.json")
    linkform.add_argument("--json", action="store_true")
    linkform.set_defaults(func=cmd_linkform)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UserInputError as exc:
        print(f"tbcalc: error: {exc}", file=sys.stderr)
        return 1
    except InternalInvariantError as exc:
        print(f"tbcalc: internal invariant violated: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"tbcalc: error: {exc}", file=sys.stderr)
        return 1
