"""CSV matrix ingestion and report writers.

Simple matrix files (ASCII, no quote, carriage return, NUL or blank line) are
read by C-level string passes: mostly-zero ones are scanned for their nonzero
cells, the others read one ``json.loads`` per row. The rest, and whatever
those two readers decline, go through ``csv.reader``, which gives the same
result and every parse error.

Each report has one writer per format, which reads its records directly: the
allocation and game reports read the problem, the audit and suite reports the
axioms' verdicts. Payouts are both exact fraction strings (authoritative) and
six-decimal renderings (ties to even), built from the index's integer
numerators, so right for any magnitude. The game export, in either format,
is a stream of ASCII ``bytes`` blocks. The same inputs give the same bytes.
"""

from __future__ import annotations

import sys

from .core import Problem, _check_ids, _problem_from_rows, build_sparse_problem
from .game import STANCES, _user_mask_counts
from .indices import _ratio, make_rule, reward_shares

SCHEMA_VERSION = 1
MAX_COUNT_DIGITS = 4300  # the program's own bound on one stream count's length
# A file is scanned if at most this share of every 61st character is marked
# (by _MARKS: "0" and "," stay, newline becomes ",", any other ASCII character
# a mark; _DIGITS marks no digit, but turns each into "0"); else it is dense.
SCAN_MAX_MARKED = 0.1
_MARK = "x"
_MARKS, _DIGITS = ("".join(c if c in "0," else "," if c == "\n" else d if c.isdigit() else _MARK
                           for c in map(chr, range(128))) for d in (_MARK, "0"))


class ParseError(ValueError):
    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        where = ""
        if line is not None:
            where = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + where)
        self.line = line
        self.column = column


def parse_matrix(text: str) -> Problem:
    """Parse the CSV matrix format: header "artist,<users...>", one row per artist.

    The header's first cell must be ``artist``; spaces around it are allowed,
    a byte-order mark is not (decode with ``utf-8-sig``). Blank lines are
    skipped; a ``ParseError`` names the physical line. A count is ASCII digits
    after stripping, with an optional leading ``-`` (negative counts then fail
    validation), of at most ``MAX_COUNT_DIGITS`` digits. Ids must be nonempty.
    Mostly-zero text is scanned for its nonzero cells (:func:`_scan`), other
    text read one row per ``json.loads`` (:func:`_read_dense`); what the reader
    declines is read by ``csv`` (:func:`_read_csv`).
    """
    return (_scan if _mostly_zero(text) else _read_dense)(text) or _problem(*_read_csv(text))


def _mostly_zero(text: str) -> bool:
    sample = text[::61]
    return sample.translate(_MARKS).count(_MARK) <= SCAN_MAX_MARKED * len(sample)


def _problem(users: list[str], rows) -> Problem:
    """The problem of one ``(artist, columns, counts)`` per row, zero counts left out."""
    artists = []
    idx_lists = [[] for _ in users]
    count_lists = [[] for _ in users]
    for i, (artist, columns, counts) in enumerate(rows):
        artists.append(artist)
        for j, x in zip(columns, counts):
            if x:
                idx_lists[j].append(i)
                count_lists[j].append(x)
    if not artists:
        raise ParseError("no artist rows")
    return build_sparse_problem(artists, users, zip(idx_lists, count_lists))


def _simple(text: str, marks: str):
    """``(users, rows, body, marked)`` of a simple ``text``, or None; never raises.

    Simple text is ASCII with no ``"``, ``\\r`` or NUL (a ``csv.reader`` row is
    then the line split at ","), an ``artist`` header and nonempty ids (so no
    blank line), each within ``csv.field_size_limit()``, as are counts of
    ``MAX_COUNT_DIGITS`` digits. It may hold empty cells, which each reader
    refuses. ``body`` is ``text`` ending in a newline, ``marked`` its
    translation by ``marks``; ``rows`` holds one ``(artist, head, end)`` per
    later line, ``body[head:end]`` being its cells, each after a ",".
    """
    csv = sys.modules.get("_csv")  # unloaded, nothing has changed CPython's default limit
    limit = csv.field_size_limit() if csv else 131072
    if not text.isascii() or limit < MAX_COUNT_DIGITS or any(c in text for c in '"\r\0'):
        return None
    body = text if text.endswith("\n") else text + "\n"
    marked = body.translate(marks)
    end = body.find("\n")
    header = body[:end].split(",")
    users = [c.strip() for c in header[1:]]
    if (header[0].strip() != "artist" or not users or not all(users)
            or max(map(len, header)) > limit):
        return None
    rows = []
    while end + 1 < len(body):
        start, end = end + 1, body.find("\n", end + 1)
        head = marked.find(",", start)  # ends the artist id; a newline reads as ","
        artist = body[start:head].strip()
        if not artist or head - start > limit:
            return None
        rows.append((artist, head, end))
    return users, rows, body, marked


def _scan(text: str) -> Problem | None:
    """What ``_problem(*_read_csv(text))`` gives for simple ``text`` whose zeros
    are spelled "0" and other counts plain digits, or None. Searches jump from
    one nonzero cell to the next. Each run of zero cells between, and the row's
    tail up to the "," its newline became, must be "0," repeated: one count of
    "0," checks the run and gives the columns it spans."""
    if not (simple := _simple(text, _MARKS)):
        return None
    users, spans, body, marked = simple
    rows = []
    for artist, head, end in spans:
        pos, column, texts, columns = head, 0, [], []
        while True:  # pos is at the "," before a run of zero cells
            hit = marked.find(_MARK, pos, end)  # the next nonzero cell, if any
            cell = marked.rfind(",", pos, hit) + 1 if hit >= 0 else end + 1
            zeros = marked.count("0,", pos + 1, cell)
            if 2 * zeros != cell - pos - 1:
                return None
            column += zeros
            if hit < 0:
                break
            pos = marked.find(",", hit)
            texts.append(body[cell:pos])
            columns.append(column)
            column += 1
        if (column != len(users) or texts and not ("".join(texts).isdigit()
                                                   and max(map(len, texts)) <= MAX_COUNT_DIGITS)):
            return None
        rows.append((artist, columns, map(int, texts)))
    return _problem(users, rows)


def _read_dense(text: str) -> Problem | None:
    """What ``_problem(*_read_csv(text))`` gives for simple ``text``, or None; it
    raises only what :func:`_check_ids` and :func:`_problem_from_rows` raise.

    Once its marks show a row to be digits and ","s, one ``json.loads`` reads
    it: JSON refuses a leading zero and an empty cell, and its integers are
    then what ``int()`` gives. No rows, or a count over ``MAX_COUNT_DIGITS``
    digits or past the int-to-str limit, declines the text.
    """
    simple = _simple(text, _DIGITS)
    if not simple:
        return None
    users, spans, body, marked = simple
    if ("0" * (MAX_COUNT_DIGITS + 1) in marked
            or any(marked.find(_MARK, head, end) >= 0 for _, head, end in spans)):
        return None
    import json
    try:
        rows = tuple([tuple(json.loads(f"[{body[head + 1:end]}]")) for _, head, end in spans])
    except ValueError:  # a leading zero, an empty cell, or past the int-to-str limit
        return None
    if {len(row) for row in rows} != {len(users)}:  # no rows, or one of another width
        return None
    artists, users = _check_ids([artist for artist, _, _ in spans], users)
    return _problem_from_rows(artists, users, rows)


def _read_csv(text: str):
    """``(users, rows)`` of ``text`` by ``csv.reader``, each row read as it is taken:
    one comparison with "0" per cell, then :func:`_count` for each other cell."""
    import csv
    reader = csv.reader(_lines(text))
    lines = _rows(reader)
    header = next(lines, None)
    if header is None:
        raise ParseError("empty input")
    if header[0].strip() != "artist":
        raise ParseError(f"header must start with 'artist', not {header[0]!r}",
                         line=reader.line_num, column=1)
    if len(header) < 2:
        raise ParseError("header must name at least one user", line=reader.line_num)
    users = [c.strip() for c in header[1:]]
    if not all(users):
        raise ParseError("empty user id", line=reader.line_num, column=users.index("") + 2)

    def rows():
        for row in lines:
            line = reader.line_num
            if len(row) != len(header):
                raise ParseError(f"expected {len(header)} fields, got {len(row)}", line=line)
            artist = row[0].strip()
            if not artist:
                raise ParseError("empty artist id", line=line, column=1)
            cells = row[1:]
            nonzero = [j for j, cell in enumerate(cells) if cell != "0"]
            yield artist, nonzero, [_count(cells[j], line, j + 2) for j in nonzero]
    return users, rows()


def _lines(text: str):
    """The lines of ``text``, each with its "\\n", as ``io.StringIO(text)`` gives
    them, without its copy of the text at four bytes per character."""
    start = 0
    while start < len(text):
        end = text.find("\n", start) + 1 or len(text)
        yield text[start:end]
        start = end


def _rows(reader):
    """The nonblank rows of ``reader``; a ``csv.Error`` names its line."""
    import csv
    try:
        yield from filter(None, reader)
    except csv.Error as exc:
        raise ParseError(f"malformed CSV: {exc}", line=reader.line_num) from None


def _count(cell: str, line: int, column: int) -> int:
    """One stream count: ASCII digits with an optional leading "-"."""
    text = cell.strip()
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ParseError(
            f"stream count {text!r} is not an integer", line=line, column=column,
        )
    if len(digits) > MAX_COUNT_DIGITS:
        raise ParseError(f"stream count has {len(digits)} digits, more than "
                         f"{MAX_COUNT_DIGITS}", line=line, column=column)
    return int(text)


def _dec(num: int, den: int) -> str:
    """``num / den`` (``den > 0``) rounded to six decimals, ties to even."""
    q, r = divmod(num * 10**6, den)
    if 2 * r > den or (2 * r == den and q % 2):
        q += 1
    whole, frac = divmod(abs(q), 10**6)
    return f"{'-' if q < 0 else ''}{whole}.{frac:06d}"


# ---------------------------------------------------------------------------
# Reports


def _sections(p: Problem, rule_names, price, seed: int, quote=str):
    """One ``(index, cells)`` per requested index. Cell ``i`` is the strings
    ``(value, fraction, decimal, payout)`` of artist ``i``, each through
    ``quote``: its value, then ``pays[i] / total`` from ``indices.reward_shares``
    (they sum to ``m`` exactly) and the payout times ``price``. Artists with
    equal numerators share one tuple, formatted and quoted once."""
    pn, pd = price.numerator, price.denominator
    for name in rule_names:
        vec = make_rule(name, seed=seed)(p)
        pays, total = reward_shares(vec, p.m)
        keys = list(zip(vec.nums, pays))
        strings = {(x, pay): (quote(_ratio(x, vec.common)), quote(_ratio(pay, total)),
                              quote(_dec(pay, total)), quote(_dec(pay * pn, total * pd)))
                   for x, pay in set(keys)}
        yield name, [*map(strings.__getitem__, keys)]


def game_chunks(p: Problem, stance: str, fmt: str = "text"):
    """The game export in ``fmt`` ("text" or "json") as ASCII ``bytes`` blocks; the
    table is built, and every data error raised, before this returns.

    A text row is "bitmask,worth", in ascending bitmask order. Bit k of the mask
    is the artist at position k, so the mask string's rightmost character is the
    first artist. JSON is :func:`render_json`'s layout of the ``players`` and a
    string per row.
    """
    if stance not in STANCES:
        raise ValueError(f"unknown stance {stance!r}")
    if fmt not in ("text", "json"):
        raise ValueError(f"unknown format {fmt!r}")
    return _game_blocks(p, stance, fmt, _user_mask_counts(p, complement=STANCES[stance]))


def _game_blocks(p: Problem, stance: str, fmt: str, worth):
    """:func:`game_chunks` of the table ``worth``: any head, one block of rows per
    high half of the mask bits, filled by one ``%`` so that only mask digits are
    formatted, and the tail in place of the separator after the last row."""
    sep = tail = b"\n"
    if fmt == "json":
        from json.encoder import encode_basestring_ascii as _json_str
        players = _block([*map(_json_str, p.artists)], 2)
        yield f'{{\n  "kind": "game",\n  "players": {players},\n  "rows": [\n    "'.encode()
        sep, tail = b'",\n    "', (f'"\n  ],\n  "schema_version": {SCHEMA_VERSION},\n'
                                    f'  "stance": {_json_str(stance)}\n}}\n').encode()
    k = p.n // 2
    lows = [format(l, f"0{k}b").encode() for l in range(1 << k)] if k else [b""]
    size = len(lows)
    for start in range(0, len(worth), size):
        high = format(start >> k, f"0{p.n - k}b").encode()
        rows = (high + (b",%d" + sep + high).join(lows) + b",%d") % tuple(worth[start:start + size])
        yield rows + (sep if start + size < len(worth) else tail)


def render_json(doc: dict) -> str:
    """``json.dumps(doc, indent=2, sort_keys=True)`` and a newline."""
    import json
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def allocation_json(p: Problem, rule_names, price=1, seed: int = 42) -> str:
    """The allocation report (:func:`_sections`) in :func:`render_json`'s layout, by template."""
    from json.encoder import encode_basestring_ascii as s
    m, artists, sections = s(str(p.m)), [*map(s, p.artists)], []
    for name, cells in _sections(p, rule_names, price, seed, s):
        rewards = [_REWARD % (a, dec, frac, pay) for a, (_, frac, dec, pay) in zip(artists, cells)]
        sections.append(_SECTION % (s(name), m, _block(rewards, 6),
                                    _block([value for value, *_ in cells], 6)))
    return _ALLOCATION % (s("allocation"), s(str(price)), _PROBLEM % (
        _block(artists, 4), p.m, p.n, _block([*map(s, p.users)], 4)),
        SCHEMA_VERSION, _block(sections, 2))


def _block(items: list[str], indent: int, brackets: str = "[]") -> str:
    """JSON texts as ``json.dumps(indent=2)`` lays out an array (or an object) ``indent`` in."""
    inner, end = "\n" + " " * (indent + 2), "\n" + " " * indent + brackets[1]
    return brackets[0] + inner + ("," + inner).join(items) + end if items else brackets


# The objects of the allocation report; strings go in by json.dumps's C encoder.
_ALLOCATION, _PROBLEM, _SECTION, _REWARD = (
    _block([f'"{k}": %s' for k in keys.split()], indent, "{}") + end for keys, indent, end in (
        ("kind price_multiplier problem schema_version sections", 0, "\n"),
        ("artists m n users", 2, ""), ("index reward_total rewards values", 4, ""),
        ("artist decimal fraction payout", 8, "")))


def allocation_text(p: Problem, rule_names, price=1, seed: int = 42) -> str:
    """The allocation report (:func:`_sections`) as text: the problem, then each index."""
    lines = [f"problem: {p.n} artists ({', '.join(p.artists)}), "
             f"{p.m} users ({', '.join(p.users)})", f"price multiplier: {price}"]
    for name, cells in _sections(p, rule_names, price, seed):
        lines.append(f"index {name}:")
        lines += [f"  {a}: value={value} reward={frac} ({dec}) payout={pay}"
                  for a, (value, frac, dec, pay) in zip(p.artists, cells)]
        lines.append(f"  reward total: {p.m}")
    return "\n".join(lines) + "\n"


def audit_json(verdicts) -> str:
    """The audit report of ``axioms.Verdict``s: their fields, in :func:`render_json`."""
    return render_json({"schema_version": SCHEMA_VERSION, "kind": "audit",
                        "verdicts": [_fields(v) for v in verdicts]})


def suite_json(result) -> str:
    """An ``axioms.SuiteResult``, one entry per cell, in :func:`render_json`."""
    return render_json({"schema_version": SCHEMA_VERSION, "kind": result.kind,
                        "trials": result.trials, "seed": result.seed,
                        "all_match": result.all_match,
                        "cells": [{**_fields(c), "matches": c.matches} for c in result.cells]})


def _fields(v) -> dict:
    """The verdict's fields but those that are ``None``; its own dicts, not copies."""
    return {k: val for k, val in v._asdict().items() if val is not None}


def audit_text(verdicts) -> str:
    """The audit report of ``axioms.Verdict``s as text, one block per verdict."""
    return "".join(map(_verdict_text, verdicts))


def suite_text(result) -> str:
    """An ``axioms.SuiteResult`` as text: its header, then one block per cell."""
    head = "axiom satisfaction table" if result.kind == "table" else "independence suite"
    out = f"{head}: trials={result.trials} seed={result.seed} all_match={result.all_match}\n"
    for c in result.cells:
        label = f"[{c.axiom_set}] " if c.axiom_set is not None else ""
        out += ("ok " if c.matches else "MISMATCH ") + label + _verdict_text(c)
    return out


def _verdict_text(v) -> str:
    """The verdict's counts; for a counterexample, its violation, then each witness
    entry in the order the axiom built the instance, a problem as a matrix."""
    lines = [f"{v.axiom} x {v.rule}: {v.outcome} (grid={v.grid_cases}, trials={v.trials}, "
             f"skipped={v.skipped}, seed={v.seed})"]
    if v.witness is not None:
        details = ", ".join(f"{k}={val}" for k, val in sorted(v.details.items()))
        lines.append(f"  violation: {details}")
        for key, val in v.witness.items():
            if isinstance(val, dict):  # a problem, as its header row and one row per artist
                lines.append(f"  witness {'' if key == 'problem' else key + ' '}problem:")
                lines += [f"    {a}," + ",".join(map(str, row)) for a, row in
                          zip(["artist", *val["artists"]], [val["users"], *val["streams"]])]
            else:
                lines.append(f"  witness {key}: {val}")
    return "\n".join(lines) + "\n"
