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
from .game import MAX_TABLE_ARTISTS, STANCES
from .indices import ALL_RULE_NAMES, TABLE_RULE_NAMES, UnknownRule, make_rule

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_MISMATCH = 3

# A --price is refused on its text, before ``Fraction`` parses it: ``Fraction``
# builds 10**exp for an exponent of any size. These are the program's own input
# bounds; they keep one option from making every payout thousands of digits long.
MAX_PRICE_CHARS = 1000
MAX_PRICE_EXPONENT = 1000
_PRICE_EXPONENT = r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z"  # compiled on first use, not on import


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="streamshare")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--output", type=Path, default=None,
                       help="write the report here instead of stdout")
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--seed", type=int, default=42,
                       help="seed for audits and default weights (default 42)")

    alloc = sub.add_parser("allocate", help="compute index values and payouts")
    alloc.set_defaults(run=_run_allocate)
    alloc.add_argument("--input", type=Path, required=True, help="CSV stream matrix")
    alloc.add_argument("--index", default=",".join(TABLE_RULE_NAMES),
                       help="comma-separated index names, or 'all'")
    alloc.add_argument("--price", default="1",
                       help="display multiplier for payouts (exact fraction)")
    common(alloc)

    game = sub.add_parser("game", help="export a coalition game worth table")
    game.set_defaults(run=_run_game)
    game.add_argument("--input", type=Path, required=True,
                      help=f"CSV stream matrix of at most {MAX_TABLE_ARTISTS} artists")
    game.add_argument("--stance", choices=tuple(STANCES), default="pessimistic")
    common(game)

    audit = sub.add_parser("audit", help="search axioms for counterexamples")
    audit.set_defaults(run=_run_audit)
    audit.add_argument("--axiom", default=None,
                       help="axiom name or 'all' (" + ", ".join(axioms.AXIOM_IDS) + "; "
                            "default all, not with --table or --independence)")
    audit.add_argument("--index", default=None,
                       help="index name or 'all' (the three table indices; default all, "
                            "not with --table or --independence)")
    audit.add_argument("--trials", type=int, default=axioms.DEFAULT_TRIALS)
    suite = audit.add_mutually_exclusive_group()
    suite.add_argument("--table", action="store_true",
                       help="reproduce the full rules-vs-axioms table")
    suite.add_argument("--independence", action="store_true",
                       help="run the characterization independence suite")
    common(audit)
    return parser


def _emit(doc: dict, args) -> None:
    render = reporting.render_json if args.format == "json" else reporting.render_text
    _write(render(doc), args)


def _write(text: str, args) -> None:
    """Write the report to ``--output`` or stdout; a failed write is a data error."""
    try:
        if args.output is not None:
            args.output.write_text(text, encoding="utf-8")
        else:
            print(text, end="", flush=True)  # a failed write raises here, not at exit
    except OSError as exc:
        if args.output is None:  # fd 1 to devnull, so the flush at exit cannot fail too
            with open(os.devnull, "wb") as devnull:
                os.dup2(devnull.fileno(), sys.stdout.fileno())
        raise ValueError(f"cannot write {args.output or 'stdout'}: {exc}") from None


def _check_output(path: Path) -> None:
    """Refuse an ``--output`` path that cannot be written, before any work.

    Its directory must exist and the path must not be a directory. The file
    is neither created nor truncated here: it is written only once the run
    has succeeded (:func:`_write`).
    """
    if path.is_dir():
        raise ValueError(f"cannot write {path}: it is a directory")
    if not path.parent.is_dir():
        raise ValueError(f"cannot write {path}: no directory {str(path.parent)!r}")


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
            if names.count(n) > 1:
                raise ValueError(f"index rule {n!r} is listed more than once")
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
    if args.format == "json":
        _emit(reporting.game_document(p, args.stance), args)
    else:  # the rows straight from their template, not through a document
        _write(reporting.game_export_text(p, args.stance), args)
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
    # Integer options are read and exact values printed whole: the interpreter's
    # int-to-str digit limit (PYTHONINTMAXSTRDIGITS; 3.10.7 and later) is lifted.
    limit = getattr(sys, "get_int_max_str_digits", int)()  # 0: no limit
    try:
        if limit:
            sys.set_int_max_str_digits(0)
        try:
            args = parser.parse_args(argv)
            if args.command == "audit" and args.trials < 1:
                parser.error(f"audit: --trials must be at least 1, got {args.trials}")
            if args.command == "audit" and (args.table or args.independence):
                suite = "--table" if args.table else "--independence"
                for flag, value in (("--axiom", args.axiom), ("--index", args.index)):
                    if value is not None:
                        parser.error(f"audit: {flag} cannot be used with {suite}")
        except SystemExit as exc:
            return int(exc.code or 0)
        if args.output is not None:
            _check_output(args.output)
        return args.run(args)
    except ValueError as exc:  # every data error the package raises is one
        print(f"streamshare: error: {exc}", file=sys.stderr)
        return EXIT_DATA
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
