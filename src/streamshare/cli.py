"""Command-line surface: allocate payouts, export games, run axiom audits.

Exit codes: 0 success (and, for audits, everything matches), 1 usage error,
2 data error, 3 audit mismatch. ``run`` (``python -m streamshare.cli``, the
``streamshare`` script) ends the process once the output is flushed, with no
teardown or ``atexit`` handlers; code that embeds the CLI calls ``main``.
"""

import argparse
import errno
import os
import re
import stat
import sys
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
_PRICE_EXPONENT = r"[eE]([-+]?\d+)\s*\Z"  # compiled on first use, not on import


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


def _write(report, args) -> None:
    """Write a report (:func:`_put`) to ``--output`` or stdout; a failed write is a data error."""
    try:
        if args.output is not None:
            _replace_file(args.output, report)
        else:
            _put(sys.stdout, report)
            sys.stdout.flush()  # a failed write raises here, not at exit
    except OSError as exc:
        if args.output is None:  # fd 1 to devnull, so the flush at exit cannot fail too
            with open(os.devnull, "wb") as devnull:
                os.dup2(devnull.fileno(), sys.stdout.fileno())
        elif exc.errno is not None:  # named by the --output path, not the new file beside it
            exc = OSError(exc.errno, exc.strerror, str(args.output))
        raise ValueError(f"cannot write {args.output or 'stdout'}: {exc}") from None


def _put(f, report) -> None:
    """Write a ``str`` report to the text stream ``f``, and ASCII ``bytes`` chunks to
    its buffer, or as text to a stream with none (``io.StringIO``)."""
    if isinstance(report, str):
        f.write(report)
    elif hasattr(f, "buffer"):
        f.flush()  # text written before goes first
        f.buffer.writelines(report)
    else:
        f.write(b"".join(report).decode("ascii"))


def _replace_file(path: Path, report) -> None:
    """Write ``report`` (see :func:`_put`) to ``path`` whole, or leave what was there.

    The report goes to a new file beside the file a symlink resolves to, with
    the mode a plain write leaves, and is renamed over it. An existing target
    that is not a regular file (``/dev/null``, a FIFO), or whose directory
    refuses the new file, is written directly.
    """
    try:
        st = path.stat()
    except FileNotFoundError:
        st = None
    else:
        if not os.access(path, os.W_OK):  # a plain write would be refused too
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(path))
    fd = None
    if st is None or stat.S_ISREG(st.st_mode):
        target = path.resolve()
        tmp = target.with_name(f".{target.name}.{os.urandom(6).hex()}")
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)  # 0o666 less the umask
        except PermissionError:  # the directory refuses new files
            pass
    if fd is None:
        with open(path, "w", encoding="utf-8") as f:
            _put(f, report)
        return
    try:
        with open(fd, "w", encoding="utf-8") as f:
            if st is not None:
                os.fchmod(fd, stat.S_IMODE(st.st_mode))
            _put(f, report)
        os.replace(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise


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
    except (OSError, UnicodeDecodeError) as exc:
        raise reporting.ParseError(f"cannot read {path}: {exc}") from None
    return reporting.parse_matrix(text)


def _run_allocate(args) -> int:
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
    p = _read_problem(args.input)
    report = reporting.allocation_json if args.format == "json" else reporting.allocation_text
    _write(report(p, names, price, args.seed), args)
    return EXIT_OK


def _parse_price(text: str):
    """The ``--price`` text as a positive ``Fraction``."""
    if len(text) > MAX_PRICE_CHARS:
        raise ValueError(f"price multiplier {text[:20]!r}... has {len(text)} characters, "
                         f"more than {MAX_PRICE_CHARS}")
    if "_" in text:  # Fraction reads "1_0" as 10 from Python 3.11 on, and refuses it on 3.10
        raise ValueError(f"price multiplier {text!r} may not contain '_'")
    exponent = re.search(_PRICE_EXPONENT, text)
    if exponent and abs(int(exponent.group(1))) > MAX_PRICE_EXPONENT:
        raise ValueError(f"price multiplier {text!r} has an exponent beyond "
                         f"-{MAX_PRICE_EXPONENT}..{MAX_PRICE_EXPONENT}")
    from fractions import Fraction  # imported here: no other subcommand needs it
    try:
        price = Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"price multiplier {text!r} has a zero denominator") from None
    except ValueError:  # Fraction's own message names neither the option nor the price
        raise ValueError(f"price multiplier {text!r} is not an exact fraction") from None
    if price <= 0:
        raise ValueError("price multiplier must be positive")
    return price


def _run_game(args) -> int:
    # every data error is raised here, before the first chunk is written
    chunks = reporting.game_chunks(_read_problem(args.input), args.stance, args.format)
    _write(chunks, args)
    return EXIT_OK


def _run_audit(args) -> int:
    if args.table or args.independence:
        suite = axioms.reproduce_table if args.table else axioms.independence_suite
        result = suite(trials=args.trials, seed=args.seed)
        report = reporting.suite_json if args.format == "json" else reporting.suite_text
        _write(report(result), args)
        return EXIT_OK if result.all_match else EXIT_MISMATCH
    axiom_names = list(axioms.AXIOM_IDS) if args.axiom in (None, "all") else [args.axiom]
    rule_names = list(TABLE_RULE_NAMES) if args.index in (None, "all") else [args.index]
    pairs = [(a, name) for a in axiom_names for name in rule_names]
    report = reporting.audit_json if args.format == "json" else reporting.audit_text
    _write(report(axioms.audit_pairs(pairs, args.trials, args.seed)), args)
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
        elif sys.stdout is None:  # fd 1 was closed before start-up: refused before any work
            raise ValueError("cannot write stdout: file descriptor 1 is closed")
        return args.run(args)
    except ValueError as exc:  # every data error the package raises is one
        print(f"streamshare: error: {exc}", file=sys.stderr)
        return EXIT_DATA
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def run() -> None:
    """:func:`main` as a process: stdout and stderr are flushed, then ``os._exit``.
    A failed flush, or a stream that is None, is left to ``sys.exit`` to report."""
    code = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except (OSError, AttributeError):
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
