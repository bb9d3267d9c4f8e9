"""The two fast readers against the ``csv.reader`` path as their oracle.

``reporting._scan`` (the sparse-row scanner) and ``reporting._read_dense``
(one ``json.loads`` per row) each either decline a text or give what
``_problem(*_read_csv(text))`` gives for it: the same problem (and, from the
dense reader, which primes it, the same dense view) or the same error. The
properties call them directly, past the density choice of ``parse_matrix``,
on texts that mix plain counts with every spelling the readers must decline:
a declined text must read through ``parse_matrix`` exactly as through the
``csv`` path, error class, message, line and column included.
"""

import csv
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamshare import reporting
from streamshare.core import Problem
from streamshare.reporting import (
    MAX_COUNT_DIGITS,
    ParseError,
    _mostly_zero,
    _problem,
    _read_csv,
    _read_dense,
    _scan,
    parse_matrix,
)

pytestmark = pytest.mark.oracle

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
    got = outcome(lambda: _scan(text))  # density aside
    if got is not None:  # taken: the same problem, or the same error
        assert got == want
    assert outcome(lambda: parse_matrix(text)) == want


SPARSE = "artist,u1,u2,u3,u4\na1,0,0,12,0\na2,3,0,0,0\na3,0,0,0,0\na4,0,1000,0,205\n"


@pytest.mark.parametrize("text", [
    SPARSE,
    SPARSE.rstrip("\n"),
    SPARSE.replace("a2,3,", " a2 ,0003,"),
    "artist,u1\n" + "a1," + "9" * MAX_COUNT_DIGITS + "\n",
    "artist,u1,u2\nb,1,0\na,0,1\n",
])
def test_scanner_takes_plain_sparse_text(text):
    assert _scan(text) == _problem(*_read_csv(text))


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
    assert _scan(text) is None


def with_view(read):
    """``read``, returning its problem with the dense view, which ``Problem``
    equality leaves out; a reader's None stays None."""
    def both():
        p = read()
        return p if p is None else (p, p.streams)
    return both


def csv_outcome(text):
    return outcome(with_view(lambda: _problem(*_read_csv(text))))


@settings(max_examples=500, deadline=None)
@given(matrix_texts())
def test_property_dense_reader_agrees_with_csv_path(text):
    want = csv_outcome(text)
    got = outcome(with_view(lambda: _read_dense(text)))
    if got is not None:  # taken: the same problem and view, or the same error
        assert got == want
    assert outcome(lambda: parse_matrix(text)) == outcome(lambda: _problem(*_read_csv(text)))


DENSE = "artist,u1,u2,u3\na1,3,0,12\na2,0,7,1\na3,0,0,0\n"


@pytest.mark.parametrize("text", [
    DENSE,
    DENSE.rstrip("\n"),  # no final newline
    DENSE.replace("a2,0,7", " a2 ,0,7"),
    DENSE.replace("12", "9" * MAX_COUNT_DIGITS),
    DENSE.replace("12", "1" + "0" * (MAX_COUNT_DIGITS - 1)),
    DENSE.replace("a3,", "a" * LIMIT + ","),
    DENSE.replace("u3", "u" * LIMIT),
    DENSE.replace("a3", "a1"),  # duplicate artist ids: the same DuplicateId
    DENSE.replace("u3", "u1"),
    DENSE.replace("a1,3,0,12", "a1,3,0,0"),  # a silent user: the same SilentUser
])
def test_dense_reader_takes_plain_text(text):
    got = outcome(with_view(lambda: _read_dense(text)))
    assert got is not None
    assert got == csv_outcome(text)
    if isinstance(got[0], Problem):  # not an error: the view is build_problem's form
        assert type(got[1]) is tuple and {type(row) for row in got[1]} == {tuple}


@pytest.mark.parametrize("text", [
    DENSE.replace("12", "007"),
    DENSE.replace("12", "00"),
    DENSE.replace("12", "0" + "9" * 5),
    DENSE.replace(",0,7", ",-0,7"),
    DENSE.replace(",0,7", ",-1,7"),
    DENSE.replace("12", "1e3"),
    DENSE.replace("12", "1.0"),
    DENSE.replace("12", " 7"),
    DENSE.replace("12", "7 "),
    DENSE.replace("12", "+7"),
    DENSE.replace("12", "٣"),
    DENSE.replace("12", "9" * (MAX_COUNT_DIGITS + 1)),
    DENSE.replace("12", "1" + "0" * MAX_COUNT_DIGITS),
    DENSE.replace("a3,", "a" * (LIMIT + 1) + ","),
    DENSE.replace("u3", "u" * (LIMIT + 1)),
    DENSE.replace("\n", "\r\n"),
    DENSE.replace("12", '"12"'),
    DENSE.replace("a3,", "\na3,"),  # a blank line
    DENSE + "\n",
    DENSE.replace(",0,7", ",,7"),
    DENSE.replace("a3,0,0,0", "a3,0,0"),
    DENSE.replace("a3,0,0,0", "a3,0,0,0,0"),
    DENSE.replace("a3,", " ,"),
    DENSE.replace("u2", " "),
    DENSE.replace("artist", "Artist"),
    "artist,u1,u2\n",  # a header with no rows
    "artist\na1\n",
    "",
])
def test_dense_reader_declines_what_it_cannot_take_exactly(text):
    assert _read_dense(text) is None
    assert outcome(lambda: parse_matrix(text)) == outcome(lambda: _problem(*_read_csv(text)))


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="Python before 3.10.7")
@pytest.mark.parametrize("limit, digits", [(640, 1000), (0, MAX_COUNT_DIGITS + 1)],
                         ids=["limited", "lifted"])
def test_dense_reader_declines_past_the_digit_limits(limit, digits):
    # the interpreter's int-to-str limit (the csv path raises its ValueError),
    # then the program's own, with the interpreter's lifted as the CLI does
    text = DENSE.replace("12", "9" * digits)
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        assert _read_dense(text) is None
        want = outcome(lambda: _problem(*_read_csv(text)))
        assert want[0] is (ValueError if limit else ParseError)
        assert outcome(lambda: parse_matrix(text)) == want
    finally:
        sys.set_int_max_str_digits(old)


def test_mostly_zero_text_the_scanner_declines_goes_to_csv(monkeypatch):
    # the dense reader would read every zero cell only to decline too
    text = (GOLDEN / "wide.csv").read_text(encoding="utf-8").replace(",0,", ",00,", 1)
    want = outcome(lambda: _problem(*_read_csv(text)))
    monkeypatch.setattr(reporting, "_read_dense", None)  # a call would raise TypeError
    assert _mostly_zero(text) and _scan(text) is None
    assert outcome(lambda: parse_matrix(text)) == want


def test_density_choice(monkeypatch):
    # the cut-off lies between the wide sparse golden input, which the scanner
    # takes, and the dense ones, which the dense reader takes; the scanner
    # could take them too (density aside), only slower
    wide = (GOLDEN / "wide.csv").read_text(encoding="utf-8")
    assert _mostly_zero(wide) and _scan(wide) == parse_matrix(wide)
    dense = [(GOLDEN / name).read_text(encoding="utf-8")
             for name in ("sparse.csv", "dense.csv", "game.csv")]
    assert all(_scan(text) == _read_dense(text) is not None for text in dense)
    monkeypatch.setattr(reporting, "_scan", None)  # a call would raise TypeError
    for text in dense:
        assert not _mostly_zero(text) and parse_matrix(text) == _read_dense(text)


# an artist id one character past a field size limit lowered to 1000
long_id_texts = pytest.mark.parametrize("text", [
    SPARSE.replace("a3,", "a" * 1001 + ","), DENSE.replace("a3,", "a" * 1001 + ",")],
    ids=["sparse", "dense"])


@long_id_texts
def test_lowered_field_size_limit_reads_as_the_csv_path(text):
    old = csv.field_size_limit(1000)
    try:
        want = outcome(lambda: _problem(*_read_csv(text)))
        assert want[0] is ParseError and "field larger than field limit (1000)" in want[1]
        assert outcome(lambda: parse_matrix(text)) == want
    finally:
        csv.field_size_limit(old)


@long_id_texts
def test_limit_lowered_through_the_c_module_alone_is_read(text):
    # a -S child lowers the limit before csv is loaded: the readers find it in _csv
    child = ("import sys, _csv\n"
             "_csv.field_size_limit(1000)\n"
             "from streamshare.reporting import parse_matrix\n"
             "try:\n"
             "    parse_matrix(sys.stdin.read())\n"
             "except ValueError as exc:\n"
             "    print(repr((type(exc).__name__, str(exc), exc.line, exc.column)))\n")
    env = {**os.environ, "PYTHONPATH": str(GOLDEN.parents[1] / "src")}
    proc = subprocess.run([sys.executable, "-S", "-c", child], input=text.encode("ascii"),
                          capture_output=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode("utf-8")
    old = csv.field_size_limit(1000)
    try:
        kind, message, line, column = outcome(lambda: _problem(*_read_csv(text)))
    finally:
        csv.field_size_limit(old)
    assert proc.stdout.decode("ascii") == repr((kind.__name__, message, line, column)) + "\n"
