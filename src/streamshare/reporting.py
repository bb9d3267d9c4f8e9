"""CSV matrix ingestion and report serialization.

Simple matrix files (ASCII, no quote, carriage return, NUL, empty cell or
blank line) are read by C-level string passes: mostly-zero ones are scanned
for their nonzero cells, the others read one ``json.loads`` per row. The rest,
and whatever those two readers decline, go through ``csv.reader``, which
gives the same result and every parse error.

Reports carry payouts both as exact fraction strings (authoritative) and as
fixed six-decimal renderings (ties to even), both built from the index's
integer numerators, so they are right for any magnitude. Rendering is
deterministic: the same inputs produce byte-identical output.
"""

from __future__ import annotations

import csv
import json
from fractions import Fraction

from . import axioms
from .core import Problem, _check_ids, _problem_from_rows, build_sparse_problem
from .game import STANCES
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
    then the line split at ","), no empty cell or blank line, an ``artist``
    header and nonempty ids, each within ``csv.field_size_limit()``, as are
    counts of ``MAX_COUNT_DIGITS`` digits. ``body`` is ``text`` ending in a
    newline, ``marked`` its translation by ``marks``; ``rows`` holds one
    ``(artist, head, end)`` per later line, ``body[head:end]`` being its cells,
    each after a ",".
    """
    limit = csv.field_size_limit()
    if not text.isascii() or limit < MAX_COUNT_DIGITS or any(c in text for c in '"\r\0'):
        return None
    body = text if text.endswith("\n") else text + "\n"
    marked = body.translate(marks)
    end = body.find("\n")
    header = body[:end].split(",")
    users = [c.strip() for c in header[1:]]
    if (",," in marked or header[0].strip() != "artist" or not users  # ",,": an empty
            or not all(users) or max(map(len, header)) > limit):      # cell or a blank line
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
    are spelled "0" and other counts plain digits, or None."""
    if not (simple := _simple(text, _MARKS)):
        return None
    users, spans, body, marked = simple
    rows = []
    for artist, head, end in spans:
        pos, column, texts, columns = head, 0, [], []
        while (hit := marked.find(_MARK, pos, end)) >= 0:  # the next nonzero cell
            cell = marked.rfind(",", pos, hit) + 1
            column += marked.count(",", pos, cell)
            pos = marked.find(",", hit)
            texts.append(body[cell:pos])
            columns.append(column - 1)
        column += marked.count(",", pos, end)
        # With no empty cell, the row has this length only if each zero cell is "0".
        size = 2 * len(users) - len(texts) + sum(map(len, texts))
        if (column != len(users) or end - head != size
                or texts and not ("".join(texts).isdigit()
                                  and max(map(len, texts)) <= MAX_COUNT_DIGITS)):
            return None
        rows.append((artist, columns, map(int, texts)))
    return _problem(users, rows)


def _read_dense(text: str) -> Problem | None:
    """What ``_problem(*_read_csv(text))`` gives for simple ``text``, or None; it
    raises only what :func:`_check_ids` and :func:`_problem_from_rows` raise.

    Once its marks show a row to be digits and ","s, one ``json.loads`` reads
    it: JSON refuses a leading zero, and its integers are then what ``int()``
    gives. No rows, or a count over ``MAX_COUNT_DIGITS`` digits or past the
    int-to-str limit, declines the text.
    """
    simple = _simple(text, _DIGITS)
    if not simple:
        return None
    users, spans, body, marked = simple
    if ("0" * (MAX_COUNT_DIGITS + 1) in marked
            or any(marked.find(_MARK, head, end) >= 0 for _, head, end in spans)):
        return None
    try:
        rows = tuple([tuple(json.loads(f"[{body[head + 1:end]}]")) for _, head, end in spans])
    except ValueError:  # a leading zero, or past the int-to-str limit
        return None
    if {len(row) for row in rows} != {len(users)}:  # no rows, or one of another width
        return None
    artists, users = _check_ids([artist for artist, _, _ in spans], users)
    return _problem_from_rows(artists, users, rows)


def _read_csv(text: str):
    """``(users, rows)`` of ``text`` by ``csv.reader``, each row read as it is taken:
    one comparison with "0" per cell, then :func:`_count` for each other cell."""
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
# Documents


def allocation_document(p: Problem, rule_names, price: Fraction = Fraction(1),
                        seed: int = 42) -> dict:
    """One report section per requested index; ``price`` scales displayed payouts only.

    Payout ``i`` is ``pays[i] / total`` of ``indices.reward_shares``, as in ``rewards``.
    """
    m, pn, pd = p.m, price.numerator, price.denominator
    sections = []
    for name in rule_names:
        vec = make_rule(name, seed=seed)(p)
        pays, total = reward_shares(vec, m)
        sections.append({
            "index": name,
            "values": [_ratio(x, vec.common) for x in vec.nums],
            "rewards": [{"artist": a, "fraction": _ratio(x, total),
                         "decimal": _dec(x, total), "payout": _dec(x * pn, total * pd)}
                        for a, x in zip(p.artists, pays)],
            "reward_total": str(m),  # the payouts sum to m exactly
        })
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "allocation",
        "problem": {"artists": list(p.artists), "users": list(p.users), "n": p.n, "m": m},
        "price_multiplier": str(price),
        "sections": sections,
    }


def game_export_text(p: Problem, stance: str) -> str:
    """One "bitmask,worth" line per coalition, ascending bitmask order.

    Bit k of the mask is the artist at position k, so the mask string's
    rightmost character is the first artist.
    """
    if stance not in STANCES:
        raise ValueError(f"unknown stance {stance!r}")
    g = STANCES[stance](p)  # refuses too many artists before any template is built
    # A mask string is its n - k high bits joined to its k low bits. The
    # template holds one block per high half, each mask in it followed by
    # ",%d\n", and one % fills in every worth: only mask digits reach it.
    k = p.n // 2
    lows = [format(l, f"0{k}b") for l in range(1 << k)] if k else [""]
    highs = (format(h, f"0{p.n - k}b") for h in range(1 << p.n - k))
    template = "".join(h + (",%d\n" + h).join(lows) + ",%d\n" for h in highs)
    return template % g.worth


def game_document(p: Problem, stance: str) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "game",
        "stance": stance,
        "players": list(p.artists),
        "rows": game_export_text(p, stance).splitlines(),
    }


def verdict_to_dict(v: axioms.Verdict) -> dict:
    """The verdict's fields, leaving out each one that is ``None``.

    Shallow: ``witness`` and ``details`` are the verdict's own dicts, not
    copies, so the document is for reading and rendering only.
    """
    return {k: val for k, val in v._asdict().items() if val is not None}


def audit_document(verdicts) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "audit",
        "verdicts": [verdict_to_dict(v) for v in verdicts],
    }


def suite_document(result: axioms.SuiteResult) -> dict:
    """The satisfaction table or the independence suite, one entry per cell."""
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": result.kind,
        "trials": result.trials,
        "seed": result.seed,
        "all_match": result.all_match,
        "cells": [{**verdict_to_dict(c), "matches": c.matches} for c in result.cells],
    }


# ---------------------------------------------------------------------------
# Rendering


def render_json(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def render_text(doc: dict) -> str:
    kind = doc["kind"]
    if kind == "allocation":
        return _text_allocation(doc)
    if kind == "audit":
        return "".join(map(_text_verdict, doc["verdicts"]))
    if kind in ("table", "independence"):
        return _text_cells(doc)
    raise ValueError(f"unknown document kind {kind!r}")


def _text_allocation(doc: dict) -> str:
    p = doc["problem"]
    lines = [
        f"problem: {p['n']} artists ({', '.join(p['artists'])}), "
        f"{p['m']} users ({', '.join(p['users'])})",
        f"price multiplier: {doc['price_multiplier']}",
    ]
    for sec in doc["sections"]:
        lines.append(f"index {sec['index']}:")
        for artist, value, rw in zip(p["artists"], sec["values"], sec["rewards"]):
            lines.append(
                f"  {artist}: value={value} reward={rw['fraction']} "
                f"({rw['decimal']}) payout={rw['payout']}"
            )
        lines.append(f"  reward total: {sec['reward_total']}")
    return "\n".join(lines) + "\n"


def _text_matrix(d: dict) -> list[str]:
    lines = ["    artist," + ",".join(d["users"])]
    for a, row in zip(d["artists"], d["streams"]):
        lines.append("    " + a + "," + ",".join(str(x) for x in row))
    return lines


def _text_verdict(v: dict) -> str:
    lines = [
        f"{v['axiom']} x {v['rule']}: {v['outcome']} "
        f"(grid={v['grid_cases']}, trials={v['trials']}, "
        f"skipped={v['skipped']}, seed={v['seed']})"
    ]
    if "witness" in v:
        details = ", ".join(f"{k}={val}" for k, val in sorted(v["details"].items()))
        lines.append(f"  violation: {details}")
        lines.append("  witness problem:")
        lines.extend(_text_matrix(v["witness"]["problem"]))
        if "modified" in v["witness"]:
            lines.append("  witness modified problem:")
            lines.extend(_text_matrix(v["witness"]["modified"]))
        for key in ("artist", "user", "first_users", "second_users"):
            if key in v["witness"]:
                lines.append(f"  witness {key}: {v['witness'][key]}")
    return "\n".join(lines) + "\n"


def _text_cells(doc: dict) -> str:
    head = "axiom satisfaction table" if doc["kind"] == "table" else "independence suite"
    out = f"{head}: trials={doc['trials']} seed={doc['seed']} all_match={doc['all_match']}\n"
    for c in doc["cells"]:
        mark = "ok " if c["matches"] else "MISMATCH "
        label = f"[{c['axiom_set']}] " if "axiom_set" in c else ""
        out += mark + label + _text_verdict(c)
    return out
