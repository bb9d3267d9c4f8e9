"""Rows the fast readers must decline, held to the ``csv`` path.

``reporting._scan`` takes each row's columns from counts of "0," in the runs
of zero cells around its nonzero cells, and checks that each run is exactly
"0," repeated; no whole-text search for an empty cell comes first. Each row
below breaks a run, as an empty cell, a zero spelled "00", or both at once
so that the row keeps a valid row's length. The scanner must decline it,
and ``parse_matrix`` must then give exactly what the ``csv`` path gives: the
same problem, or the same error class, message, line and column. The dense
reader refuses empty cells through ``json.loads``, and both readers refuse a
blank line as an empty artist id.
"""

import pytest

from streamshare.reporting import (
    _mostly_zero,
    _problem,
    _read_csv,
    _read_dense,
    _scan,
    parse_matrix,
)

pytestmark = pytest.mark.oracle

WIDTH = 60
# one row of WIDTH cells per artist: {column: cell}, the other cells "0"; the
# rows of one count make every user stream and the text mostly zero, so
# parse_matrix tries the scanner
ROWS = {"a1": {3: "12"}, "a2": {0: "5", WIDTH - 1: "7"}, "a3": {}, "a4": {15: "40"},
        **{f"a{i}": {i % WIDTH: "1"} for i in range(5, WIDTH + 5)}}
# each defect replaces some cells of a row ("0,0" stands for two cells)
DEFECTS = {
    "empty first cell": {0: ""},
    "empty last cell": {WIDTH - 1: ""},
    "empty cell before a nonzero cell": {9: "", 10: "3"},
    "empty cell after a nonzero cell": {10: "3", 11: ""},
    "empty cells around a nonzero cell": {9: "", 10: "3", 11: ""},
    "zero spelled 00": {5: "00"},
    "zero spelled 00 after a nonzero cell": {10: "3", 11: "00"},
    "empty cell and 00, a valid row's length": {4: "", 5: "00"},
    "00 and empty cell, a valid row's length": {4: "00", 5: ""},
    "empty cell and 00 around a nonzero cell": {9: "", 10: "3", 11: "00"},
    # as many "0," as a valid row, one character longer
    "empty cell and a cell too many": {4: "", 5: "0,0"},
    "empty cell and a cell too many at the end": {WIDTH - 1: "0,"},
}


def outcome(read):
    """The problem ``read()`` gives, or the class, text, line and column of its error."""
    try:
        return read()
    except ValueError as exc:
        return (type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "column", None))


def matrix(rows, end="\n"):
    lines = ["artist," + ",".join(f"u{j}" for j in range(WIDTH))]
    for artist, cells in rows.items():
        lines.append(",".join([artist, *(cells.get(j, "0") for j in range(WIDTH))]))
    return "\n".join(lines) + end


@pytest.mark.parametrize("end", ["\n", ""], ids=["newline", "no final newline"])
@pytest.mark.parametrize("artist", ["a1", "a3", "a4", "a59"])
@pytest.mark.parametrize("defect", DEFECTS)
def test_scanner_declines_a_broken_zero_run(defect, artist, end):
    clean = matrix(ROWS, end)
    assert _mostly_zero(clean) and _scan(clean) == _problem(*_read_csv(clean))
    text = matrix({**ROWS, artist: {**ROWS[artist], **DEFECTS[defect]}}, end)
    if "a valid row's length" in defect:
        assert len(text) == len(clean)
    assert _mostly_zero(text) and _scan(text) is None
    assert outcome(lambda: parse_matrix(text)) == outcome(lambda: _problem(*_read_csv(text)))


DENSE = "artist,u1,u2,u3\na1,3,0,12\na2,0,7,1\na3,4,4,4\n"


@pytest.mark.parametrize("text", [
    DENSE.replace("a1,3,", "a1,,"),
    DENSE.replace("0,12", "0,"),
    DENSE.replace("a2,0,7", "a2,,7"),
    DENSE.replace("a2,0,7,1", "a2,,07,1"),
    DENSE.rstrip("\n").replace("4,4,4", "4,4,"),
], ids=["first", "last", "before nonzero", "with a leading zero",
        "last at end of text"])
def test_dense_reader_declines_an_empty_cell(text):
    assert not _mostly_zero(text) and _read_dense(text) is None
    assert outcome(lambda: parse_matrix(text)) == outcome(lambda: _problem(*_read_csv(text)))


@pytest.mark.parametrize("where", ["after the header", "between rows", "at the end"])
@pytest.mark.parametrize("wide", [True, False], ids=["sparse", "dense"])
def test_blank_line_is_declined_as_an_empty_artist_id(where, wide):
    text = matrix(ROWS) if wide else DENSE
    lines = text.splitlines(keepends=True)
    at = {"after the header": 1, "between rows": 3, "at the end": len(lines)}[where]
    text = "".join([*lines[:at], "\n", *lines[at:]])
    assert _scan(text) is None and _read_dense(text) is None
    want = _problem(*_read_csv(text))  # csv.reader skips a blank line
    assert parse_matrix(text) == want == parse_matrix(text.replace("\n\n", "\n"))
