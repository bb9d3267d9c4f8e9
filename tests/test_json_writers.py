"""The allocation report is written from fixed templates
(``reporting.allocation_json``), the game export from a fixed head and tail
around its row blocks (``reporting.game_chunks``, joined by
``helpers.game_json``). They must give the bytes of
``json.dumps(doc, indent=2, sort_keys=True)`` and a newline, which stays
their oracle: the documents are ``reference_indices.allocation_document``
and ``reference_game.game_document``. The text allocation report
(``reporting.allocation_text``) must give the bytes of the text rendering it
replaced, ``reference_indices.text_allocation``. Ids carry what a string
encoder can get wrong: quotes, backslashes, control characters and non-ASCII
characters, astral ones included."""

import json
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamshare import build_problem
from streamshare.game import STANCES
from streamshare.indices import ALL_RULE_NAMES
from streamshare.reporting import allocation_json, allocation_text, render_json

from helpers import game_json, problems
from reference_game import game_document
from reference_indices import allocation_document, text_allocation

pytestmark = pytest.mark.oracle

SPECIAL = ['"', "\\", "\x00", "\n", "\t", "\x1f", "\x7f", "/", "é", " ", "\U0001f600"]
ids = st.text(st.one_of(st.sampled_from(SPECIAL), st.characters()), min_size=1, max_size=6)
prices = st.one_of(st.sampled_from([F(1), F("9.99"), F("1e-6")]),
                   st.builds(F, st.integers(1, 10**12), st.integers(1, 10**12)))
rule_lists = st.lists(st.sampled_from(ALL_RULE_NAMES), unique=True)
ODD_IDS = ('a"b', "c\\d", "\x00\x1f\n", "é\U0001f600")


def dumps(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


@st.composite
def labelled_problems(draw, max_n=4, max_m=4):
    """A problem of ``helpers.problems`` under drawn artist and user ids."""
    p = draw(problems(max_n=max_n, max_m=max_m, max_entry=50))
    artists = draw(st.lists(ids, min_size=p.n, max_size=p.n, unique=True))
    users = draw(st.lists(ids, min_size=p.m, max_size=p.m, unique=True))
    return build_problem(artists, users, p.streams)


@settings(max_examples=300)
@given(labelled_problems(), rule_lists, prices, st.integers(0, 10**6))
def test_allocation_report_equals_json_dumps(p, rules, price, seed):
    doc = allocation_document(p, rules, price=price, seed=seed)
    assert allocation_json(p, rules, price=price, seed=seed) == dumps(doc)


@settings(max_examples=300)
@given(labelled_problems(), rule_lists, prices, st.integers(0, 10**6))
def test_text_allocation_report_equals_reference_rendering(p, rules, price, seed):
    doc = allocation_document(p, rules, price=price, seed=seed)
    assert allocation_text(p, rules, price=price, seed=seed) == text_allocation(doc)


@st.composite
def patterned_problems(draw):
    """Up to 40 artists, each streaming one of 2 or 3 row patterns, so that
    many artists share a numerator under most rules (a silent user's cell is
    set to 1 in the first row)."""
    m = draw(st.integers(1, 5))
    patterns = draw(st.lists(st.lists(st.integers(0, 9), min_size=m, max_size=m),
                             min_size=2, max_size=3))
    picks = draw(st.lists(st.sampled_from(patterns), min_size=1, max_size=40))
    rows = [list(row) for row in picks]
    for j in range(m):
        if not any(row[j] for row in rows):
            rows[0][j] = 1
    return build_problem([f"a{i}" for i in range(len(rows))], [f"u{j}" for j in range(m)], rows)


@settings(max_examples=100, deadline=None)
@given(patterned_problems(), prices, st.integers(0, 10**6))
def test_reports_format_shared_numerators_as_the_reference(p, price, seed):
    # each distinct numerator is formatted once and its strings reused
    doc = allocation_document(p, ALL_RULE_NAMES, price=price, seed=seed)
    assert allocation_json(p, ALL_RULE_NAMES, price=price, seed=seed) == dumps(doc)
    assert allocation_text(p, ALL_RULE_NAMES, price=price, seed=seed) == text_allocation(doc)


@settings(max_examples=200)
@given(labelled_problems(), st.sampled_from(sorted(STANCES)))
def test_game_export_equals_json_dumps(p, stance):
    assert game_json(p, stance) == dumps(game_document(p, stance))


def test_one_artist_and_one_user_problems():
    for artists, users, streams in (([ODD_IDS[0]], ODD_IDS[1:], [[1, 2, 3]]),
                                    (ODD_IDS[:3], [ODD_IDS[3]], [[0], [5], [1]]),
                                    ([ODD_IDS[2]], [ODD_IDS[3]], [[7]])):
        p = build_problem(artists, users, streams)
        for price in (F(1), F("9.99"), F("1e-6")):
            doc = allocation_document(p, ALL_RULE_NAMES, price=price, seed=7)
            assert allocation_json(p, ALL_RULE_NAMES, price=price, seed=7) == dumps(doc)
            assert allocation_text(p, ALL_RULE_NAMES, price=price, seed=7) == text_allocation(doc)
        for stance in STANCES:
            assert game_json(p, stance) == dumps(game_document(p, stance))


def test_no_sections_and_other_documents():
    p = build_problem(["a"], ["u"], [[1]])
    doc = allocation_document(p, [])
    assert json.loads(allocation_json(p, []))["sections"] == []
    assert allocation_json(p, []) == dumps(doc)
    assert allocation_text(p, []) == text_allocation(doc)
    other = {"kind": "audit", "schema_version": 1, "verdicts": [{"z": ODD_IDS, "a": []}]}
    assert render_json(other) == dumps(other)
