"""Audit problems are built from generated rows without revalidation
(``core._problem_from_rows``); built through the validating ``build_problem``
instead, each is the same problem: ids, sparse columns and dense view."""

import random
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamshare import build_problem
from streamshare.axioms import AXIOM_IDS, _column_variants, _grid, random_instances
from streamshare.core import Problem, SilentUser, _problem_from_rows

pytestmark = pytest.mark.oracle

DRAWS = 200


def assert_same_as_validated(p: Problem):
    q = build_problem(list(p.artists), list(p.users), [list(row) for row in p.streams])
    assert (p.artists, p.users, p.columns, p.streams) == (q.artists, q.users, q.columns, q.streams)
    # the primed dense view is the one the columns give
    assert Problem(p.artists, p.users, p.columns).streams == p.streams
    assert type(p.streams) is tuple and all(type(row) is tuple for row in p.streams)


def built_problems(instance: dict):
    problems = [v for v in instance.values() if type(v) is Problem]
    assert problems and "problem" in instance
    return problems


@pytest.mark.parametrize("axiom", AXIOM_IDS)
def test_generated_problems_equal_validated(axiom):
    rng = random.Random(f"trusted|{axiom}")
    for instance in islice(random_instances(axiom, rng), DRAWS):
        for p in built_problems(instance):
            assert_same_as_validated(p)


@pytest.mark.parametrize("axiom", AXIOM_IDS)
def test_grid_problems_equal_validated(axiom):
    for instance in _grid(axiom):
        for p in built_problems(instance):
            assert_same_as_validated(p)


@st.composite
def rows_and_ids(draw, max_n=5, max_m=5, max_entry=200):
    n, m = draw(st.integers(1, max_n)), draw(st.integers(1, max_m))
    rows = tuple(tuple(draw(st.integers(0, max_entry)) for _ in range(m)) for _ in range(n))
    ids = st.text(min_size=1, max_size=3)
    artists = draw(st.lists(ids, min_size=n, max_size=n, unique=True))
    users = draw(st.lists(ids, min_size=m, max_size=m, unique=True))
    return tuple(artists), tuple(users), rows


@settings(max_examples=300)
@given(rows_and_ids())
def test_trusted_build_equals_validated_or_refuses_the_same_silent_user(case):
    artists, users, rows = case
    try:
        want = build_problem(artists, users, rows)
    except SilentUser as exc:
        with pytest.raises(SilentUser) as refused:
            _problem_from_rows(artists, users, rows)
        assert refused.value.user == exc.user and str(refused.value) == str(exc)
        return
    got = _problem_from_rows(artists, users, rows)
    assert (got.artists, got.users, got.columns, got.streams) == \
        (want.artists, want.users, want.columns, want.streams)


@given(st.lists(st.integers(0, 1000), min_size=1, max_size=5).filter(any))
def test_column_variants_keep_a_positive_entry(col):
    # axioms._with_column builds each variant unvalidated: none may silence its user
    for variant in _column_variants(col):
        assert len(variant) == len(col) and max(variant) > 0
