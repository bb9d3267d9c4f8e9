"""CSV matrix ingestion and report serialization.

Reports carry payouts both as exact fraction strings (authoritative) and as
fixed six-decimal renderings. A decimal rendering is the exact fraction
rounded to six places, ties to even, in integer arithmetic, so it is right
for any magnitude. Rendering is deterministic: the same inputs produce
byte-identical output.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import asdict
from fractions import Fraction

from . import axioms
from .core import Problem, build_sparse_problem
from .game import STANCES
from .indices import exact_sum, make_rule, rewards

SCHEMA_VERSION = 1
MAX_COUNT_DIGITS = 4300  # the program's own bound on one stream count's length


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
    a byte-order mark is not (decode with ``utf-8-sig``). Rows are read one
    at a time and blank lines are skipped; a ``ParseError`` names the
    physical line. Each cell costs one comparison with ``"0"``;
    only the other cells are converted and stored, user by user. A count is
    ASCII digits after stripping, with an optional leading ``-`` (negative
    counts then fail validation) of at most ``MAX_COUNT_DIGITS`` digits; ids
    must be nonempty.
    """
    reader = csv.reader(_lines(text))
    rows = _rows(reader)
    header = next(rows, None)
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
    width = len(header)
    artists = []
    idx_lists = [[] for _ in users]
    count_lists = [[] for _ in users]
    for row in rows:
        line = reader.line_num
        if len(row) != width:
            raise ParseError(
                f"expected {width} fields, got {len(row)}", line=line
            )
        artist = row[0].strip()
        if not artist:
            raise ParseError("empty artist id", line=line, column=1)
        i = len(artists)
        artists.append(artist)
        cells = row[1:]
        nonzero = [j for j, cell in enumerate(cells) if cell != "0"]
        texts = [cells[j] for j in nonzero]
        joined = "".join(texts)
        if (joined.isascii() and joined.isdigit() and all(texts)  # plain counts only
                and max(map(len, texts)) <= MAX_COUNT_DIGITS):
            values = map(int, texts)
        else:
            values = [_count(t, line, j + 2) for j, t in zip(nonzero, texts)]
        for j, x in zip(nonzero, values):
            if x:
                idx_lists[j].append(i)
                count_lists[j].append(x)
    if not artists:
        raise ParseError("no artist rows")
    return build_sparse_problem(artists, users, zip(idx_lists, count_lists))


def _lines(text: str):
    """The lines of ``text``, each with its "\\n", one at a time.

    The same lines as ``io.StringIO(text)`` gives, without its copy of the
    text at four bytes per character.
    """
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


def serialize_matrix(p: Problem) -> str:
    """Inverse of :func:`parse_matrix` (modulo whitespace)."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["artist", *p.users])
    for a, row in zip(p.artists, p.streams):
        writer.writerow([a, *row])
    return out.getvalue()


def _dec(x: Fraction) -> str:
    q, r = divmod(x.numerator * 10**6, x.denominator)
    if 2 * r > x.denominator or (2 * r == x.denominator and q % 2):
        q += 1
    sign = "-" if q < 0 else ""
    whole, frac = divmod(abs(q), 10**6)
    return f"{sign}{whole}.{frac:06d}"


# ---------------------------------------------------------------------------
# Documents


def allocation_document(
    p: Problem,
    rule_names,
    price: Fraction = Fraction(1),
    seed: int = 42,
) -> dict:
    """One report section per requested index; ``price`` scales displayed payouts only."""
    sections = []
    for name in rule_names:
        rule = make_rule(name, seed=seed)
        vec = rule(p)
        payouts = rewards(vec, p)
        sections.append({
            "index": name,
            "values": [str(v) for v in vec.values],
            "rewards": [
                {
                    "artist": a,
                    "fraction": str(r),
                    "decimal": _dec(r),
                    "payout": _dec(r * price),
                }
                for a, r in zip(p.artists, payouts)
            ],
            "reward_total": str(exact_sum(payouts)),
        })
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "allocation",
        "problem": {
            "artists": list(p.artists),
            "users": list(p.users),
            "n": p.n,
            "m": p.m,
        },
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
    """The verdict's fields, leaving out each one that is ``None``."""
    return {k: val for k, val in asdict(v).items() if val is not None}


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
