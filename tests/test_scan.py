"""The sparse-row scanner against the ``csv.reader`` path as its oracle.

``reporting._scan`` either declines a text or gives what ``_read_csv`` gives
for it. The property calls both directly, past the density choice of
``parse_matrix``, on texts that mix plain counts with every spelling the
scanner must decline: a declined text must read through ``parse_matrix``
exactly as through the ``csv`` path, error class, message, line and column
included.
"""

import csv
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamshare.reporting import (
    MAX_COUNT_DIGITS,
    SCAN_MAX_MARKED,
    _problem,
    _read_csv,
    _scan,
    parse_matrix,
)

GOLDEN = Path(__file__).resolve().parent / "golden"
LIMIT = csv.field_size_limit()
ODD_CELLS = [" 0", "00", "0010", "", "-0", "-3", "+1", "1_000", "٣", " 7 ", '"5"', '"0"',
             "9" * MAX_COUNT_DIGITS, "9" * (MAX_COUNT_DIGITS + 1), "0" * (MAX_COUNT_DIGITS + 1),
             "1\r2", "x"]
ODD_IDS = ["", " ", "a", " a ", '"q"', "a\rb", "d" * LIMIT, "d" * (LIMIT + 1)]
HEADS = [" artist ", "Artist", "", '"artist"', "artist\r"]
ENDS = ["\r\n", "\n\n", "\r", ""]


def outcome(read):
    """The problem ``read()`` gives, or the class, text, line and column of its error."""
    try:
        return read()
    except ValueError as exc:
        return (type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "column", None))


@st.composite
def matrix_texts(draw):
    """A well-formed matrix file, from dense to almost all zero cells, with
    up to two defects: an odd cell, id or header, an empty cell and "00" in
    place of two "0" cells (the row keeps its length), a cell too few or too
    many, or an odd line ending. One text in five has no final newline."""
    rng = draw(st.randoms(use_true_random=False))
    zeros = rng.choice([0, 0.5, 0.9, 0.99])
    width = rng.choice([0, 1, 2, 3, 5, 8, 13])
    lines = [["artist", *(f"u{j}" for j in range(width))]]
    for i in range(rng.randint(0, 8)):
        lines.append([f"a{i}", *("0" if rng.random() < zeros else str(rng.randint(
            1, 10**rng.choice([1, 3, 30]))) for _ in range(width))])
    for j in range(1, width + 1):  # most users stream something
        if len(lines) > 1 and all(cells[j] == "0" for cells in lines[1:]) and rng.random() < 0.9:
            rng.choice(lines[1:])[j] = str(rng.randint(1, 99))
    ends = ["\n"] * len(lines)
    for _ in range(rng.choice([0, 0, 1, 1, 1, 2])):
        cells = rng.choice(lines)
        if not cells:  # a lone id or header cell was dropped
            continue
        k = rng.randrange(len(cells))
        kind = rng.randrange(6)
        if kind == 0 and cells is not lines[0] and k:
            cells[k] = rng.choice(ODD_CELLS)
        elif kind == 1 and k:
            cells[k] = rng.choice(ODD_IDS) if cells is lines[0] else rng.choice(ODD_CELLS)
        elif kind == 2:
            cells[0] = rng.choice(HEADS) if cells is lines[0] else rng.choice(ODD_IDS)
        elif kind == 3 and cells[k:k + 2] == ["0", "0"]:
            cells[k:k + 2] = rng.choice([["", "00"], ["00", ""]])
        elif kind == 4:
            cells[k:k + 1] = [] if rng.random() < 0.5 else [cells[k], "0"]
        else:
            ends[rng.randrange(len(ends))] = rng.choice(ENDS)
    if rng.random() < 0.2:
        ends[-1] = ""
    return "".join(",".join(cells) + end for cells, end in zip(lines, ends))


@settings(max_examples=500, deadline=None)
@given(matrix_texts())
def test_property_scanner_agrees_with_csv_path(text):
    want = outcome(lambda: _problem(*_read_csv(text)))
    scanned = _scan(text, 1.0)  # density aside
    if scanned is None:
        assert outcome(lambda: parse_matrix(text)) == want
    else:
        assert outcome(lambda: _problem(*scanned)) == want


SPARSE = "artist,u1,u2,u3,u4\na1,0,0,12,0\na2,3,0,0,0\na3,0,0,0,0\na4,0,1000,0,205\n"


@pytest.mark.parametrize("text", [
    SPARSE,
    SPARSE.rstrip("\n"),
    SPARSE.replace("a2,3,", " a2 ,0003,"),
    "artist,u1\n" + "a1," + "9" * MAX_COUNT_DIGITS + "\n",
    "artist,u1,u2\nb,1,0\na,0,1\n",
])
def test_scanner_takes_plain_sparse_text(text):
    scanned = _scan(text, 1.0)
    assert scanned is not None
    assert _problem(*scanned) == _problem(*_read_csv(text))


@pytest.mark.parametrize("text", [
    SPARSE.replace("\n", "\r\n"),
    SPARSE.replace("12", '"12"'),
    SPARSE.replace("a3,0,0,0,0", "a3,0,,00,0"),  # one cell short, one long: same length
    SPARSE.replace("a3,0,0,0,0", "a3,0,0,0," + "0" * (MAX_COUNT_DIGITS + 1)),
    SPARSE.replace("a3,0,0,0,0", "a3,0,0,0,00"),
    SPARSE.replace("a3,0,0,0,0", "a3,0,0,0,"),
    SPARSE.replace("a3,0,0,0,0", "a3,0,0,0"),
    SPARSE.replace("a3,0,0,0,0", "a3,0,0,0,0,0"),
    SPARSE.replace("a3,0,0,0,0", "a3,0,-0,0,0"),
    SPARSE.replace("a3,0,0,0,0", "a3,0, 7,0,0"),
    SPARSE.replace("a3,0,0,0,0", "a3,0,1_000,0,0"),
    SPARSE.replace("a3,0,0,0,0", "a3,0,٣,0,0"),
    SPARSE.replace("a3,0,0,0,0", "a3,0," + "9" * (MAX_COUNT_DIGITS + 1) + ",0,0"),
    SPARSE.replace("a3,", " ,"),
    SPARSE.replace("a3,", "a" * (LIMIT + 1) + ","),
    SPARSE.replace("u4", "u" * (LIMIT + 1)),
    SPARSE.replace("u4", " "),
    SPARSE.replace("artist", "Artist"),
    SPARSE + "\n",
    "\n" + SPARSE,
    "artist\na1\n",
    "",
])
def test_scanner_declines_what_it_cannot_take_exactly(text):
    assert _scan(text, 1.0) is None


def test_density_choice():
    # the cut-off lies between the wide sparse golden input and the dense ones
    assert _scan((GOLDEN / "wide.csv").read_text(encoding="utf-8"), SCAN_MAX_MARKED) is not None
    for name in ("sparse.csv", "dense.csv", "game.csv"):
        text = (GOLDEN / name).read_text(encoding="utf-8")
        assert _scan(text, 1.0) is not None
        assert _scan(text, SCAN_MAX_MARKED) is None
