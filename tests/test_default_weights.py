"""The weighted rules bind their seeded default weights once per id tuple;
they equal the public kernels given ``default_weight`` by position."""

from hypothesis import given, settings
from hypothesis import strategies as st

from streamshare import make_rule
from streamshare.core import ProblemError, remove_artist, remove_user
from streamshare.indices import (
    artist_weighted_index,
    default_weight,
    user_weighted_index,
)

from helpers import problems

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
