"""Command-line surface: allocate payouts, export games, run axiom audits.

Exit codes: 0 success (and, for audits, everything matches), 1 usage error,
2 data error, 3 audit mismatch.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from fractions import Fraction
from pathlib import Path

from . import axioms, reporting
from .core import ProblemError
from .game import DEFAULT_TABLE_CAP, MAX_TABLE_ARTISTS, TooManyArtists
from .indices import ALL_RULE_NAMES, TABLE_RULE_NAMES, UnknownRule, make_rule

SEED_ENV_VAR = "STREAMSHARE_SEED"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_MISMATCH = 3

# A --price is refused on its text, before ``Fraction`` parses it: ``Fraction``
# builds 10**exp for an exponent of any size, and a price or payout past the
# interpreter's 4300-digit limit on int-to-str conversion cannot be printed.
MAX_PRICE_CHARS = 1000
MAX_PRICE_EXPONENT = 1000
_PRICE_EXPONENT = r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z"  # compiled on first use, not on import


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _default_seed(parser: argparse.ArgumentParser) -> int:
    raw = os.environ.get(SEED_ENV_VAR)
    if raw is None:
        return 42
    try:
        return int(raw)
    except ValueError:
        parser.error(f"{SEED_ENV_VAR}={raw!r} is not an integer")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="streamshare")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--output", type=Path, default=None,
                       help="write the report here instead of stdout")
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--seed", type=int, default=None,
                       help=f"seed for audits and default weights "
                            f"(default: env {SEED_ENV_VAR}, else 42)")

    alloc = sub.add_parser("allocate", help="compute index values and payouts")
    alloc.add_argument("--input", type=Path, required=True, help="CSV stream matrix")
    alloc.add_argument("--index", default="shapley,pro-rata,user-centric",
                       help="comma-separated index names, or 'all'")
    alloc.add_argument("--price", default="1",
                       help="display multiplier for payouts (exact fraction)")
    common(alloc)

    game = sub.add_parser("game", help="export a coalition game worth table")
    game.add_argument("--input", type=Path, required=True, help="CSV stream matrix")
    game.add_argument("--stance", choices=("pessimistic", "optimistic", "dual"),
                      default="pessimistic")
    game.add_argument("--cap", type=int, default=DEFAULT_TABLE_CAP,
                      help=f"artist enumeration cap (default {DEFAULT_TABLE_CAP}); no table "
                           f"is built for more than {MAX_TABLE_ARTISTS} artists")
    common(game)

    audit = sub.add_parser("audit", help="search axioms for counterexamples")
    audit.add_argument("--axiom", default=None,
                       help="axiom name or 'all' (" + ", ".join(axioms.AXIOM_IDS) + "; "
                            "default all, not with --table or --independence)")
    audit.add_argument("--index", default=None,
                       help="index name or 'all' (the three table indices; default all, "
                            "not with --table or --independence)")
    audit.add_argument("--trials", type=int, default=500)
    suite = audit.add_mutually_exclusive_group()
    suite.add_argument("--table", action="store_true",
                       help="reproduce the full rules-vs-axioms table")
    suite.add_argument("--independence", action="store_true",
                       help="run the characterization independence suite")
    common(audit)
    return parser


def _emit(doc: dict, args) -> None:
    text = reporting.render_json(doc) if args.format == "json" else reporting.render_text(doc)
    if args.output is None:
        sys.stdout.write(text)
        return
    try:
        args.output.write_text(text, encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot write {args.output}: {exc}") from None


def _read_problem(path: Path):
    try:
        text = path.read_text(encoding="utf-8-sig")
    except OSError as exc:
        raise reporting.ParseError(f"cannot read {path}: {exc}") from None
    return reporting.parse_matrix(text)


def _run_allocate(args) -> int:
    p = _read_problem(args.input)
    if args.index == "all":
        names = list(ALL_RULE_NAMES)
    else:
        names = [n.strip() for n in args.index.split(",") if n.strip()]
        if not names:
            raise UnknownRule("no index selected")
        for n in names:
            make_rule(n)  # validate early
    price = _parse_price(args.price)
    _emit(reporting.allocation_document(p, names, price=price, seed=args.seed), args)
    return EXIT_OK


def _parse_price(text: str) -> Fraction:
    if len(text) > MAX_PRICE_CHARS:
        raise ValueError(f"price multiplier {text[:20]!r}... has {len(text)} characters, "
                         f"more than {MAX_PRICE_CHARS}")
    exponent = re.search(_PRICE_EXPONENT, text)
    if exponent and abs(int(exponent.group(1))) > MAX_PRICE_EXPONENT:
        raise ValueError(f"price multiplier {text!r} has an exponent beyond "
                         f"-{MAX_PRICE_EXPONENT}..{MAX_PRICE_EXPONENT}")
    try:
        price = Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"price multiplier {text!r} has a zero denominator") from None
    if price <= 0:
        raise ValueError("price multiplier must be positive")
    return price


def _run_game(args) -> int:
    p = _read_problem(args.input)
    _emit(reporting.game_document(p, args.stance, cap=args.cap), args)
    return EXIT_OK


def _run_audit(args) -> int:
    if args.table or args.independence:
        suite = axioms.reproduce_table if args.table else axioms.independence_suite
        result = suite(trials=args.trials, seed=args.seed)
        _emit(reporting.suite_document(result), args)
        return EXIT_OK if result.all_match else EXIT_MISMATCH
    axiom_names = list(axioms.AXIOM_IDS) if args.axiom in (None, "all") else [args.axiom]
    rule_names = list(TABLE_RULE_NAMES) if args.index in (None, "all") else [args.index]
    verdicts = []
    for a in axiom_names:
        for name in rule_names:
            rule = make_rule(name, seed=args.seed)
            verdicts.append(axioms.audit(a, rule, trials=args.trials, seed=args.seed))
    _emit(reporting.audit_document(verdicts), args)
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.seed is None:
            args.seed = _default_seed(parser)
        if args.command == "audit" and args.trials < 1:
            parser.error(f"audit: --trials must be at least 1, got {args.trials}")
        if args.command == "audit" and (args.table or args.independence):
            suite = "--table" if args.table else "--independence"
            for flag, value in (("--axiom", args.axiom), ("--index", args.index)):
                if value is not None:
                    parser.error(f"audit: {flag} cannot be used with {suite}")
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "allocate":
            return _run_allocate(args)
        if args.command == "game":
            return _run_game(args)
        if args.command == "audit":
            return _run_audit(args)
    except (ProblemError, reporting.ParseError, TooManyArtists,
            axioms.UnknownAxiom, UnknownRule, ValueError) as exc:
        print(f"streamshare: error: {exc}", file=sys.stderr)
        return EXIT_DATA
    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
