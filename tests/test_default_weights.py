"""The weighted rules bind their seeded default weights once per id tuple;
they equal the public kernels given ``default_weight`` by position. A weight
is that of ``random.Random`` seeded with the id's string, and an id holding a
lone surrogate gets one too."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamshare import build_problem, make_rule
from streamshare.core import ProblemError, remove_artist, remove_user
from streamshare.indices import (
    artist_weighted_index,
    default_weight,
    user_weighted_index,
)

from helpers import problems

pytestmark = pytest.mark.oracle

KERNELS = (("user-weighted", "user", user_weighted_index),
           ("artist-weighted", "artist", artist_weighted_index))


def reductions(p):
    """``p`` and every problem one removal away from it, so one rule meets
    several id tuples."""
    out = [p]
    for remove, ids in ((remove_user, p.users), (remove_artist, p.artists)):
        for ident in ids:
            try:
                out.append(remove(p, ident))
            except ProblemError:
                pass
    return out


@settings(max_examples=150)
@given(problems(max_n=5, max_m=6, max_entry=200), st.integers(-10**6, 10**6))
def test_default_weight_rules_equal_the_kernels(p, seed):
    for name, kind, kernel in KERNELS:
        rule = make_rule(name, seed=seed)
        for q in reductions(p) * 2:  # the second pass reads the bound weights
            ids = q.users if kind == "user" else q.artists
            want = kernel(q, [default_weight(seed, kind, i) for i in ids])
            got = rule(q)
            assert (got.artists, got.nums, got.common) == (want.artists, want.nums, want.common)


@settings(max_examples=200)
@given(st.integers(-10**6, 10**6), st.sampled_from(["user", "artist"]),
       st.text(st.characters(exclude_categories=["Cs"]), max_size=8))
def test_default_weight_is_seeded_by_the_id_string(seed, kind, ident):
    want = random.Random(f"{kind}:{seed}:{ident}").randint(1, 97)
    assert default_weight(seed, kind, ident) == want


def test_ids_with_lone_surrogates_get_weights():
    p = build_problem(["a\ud800", "b"], ["\udfff", "u"], [[1, 0], [2, 3]])
    assert 1 <= default_weight(7, "user", "\udfff") <= 97
    for name, kind, kernel in KERNELS:
        ids = p.users if kind == "user" else p.artists
        assert make_rule(name, seed=7)(p) == kernel(p, [default_weight(7, kind, i) for i in ids])
