"""The weighted rules on their seeded default weights skip validation and
scaling; they equal the validating public kernels given the same weights.
Rules given their own weights still validate them when called."""

import re
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamshare import make_rule
from streamshare.core import ProblemError, remove_artist, remove_user
from streamshare.indices import (
    MissingWeights,
    NonpositiveWeight,
    artist_weighted_index,
    default_weight,
    user_weighted_index,
)

from helpers import example_1, problems

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
def test_default_weight_rules_equal_validating_kernels(p, seed):
    for name, kind, kernel in KERNELS:
        rule = make_rule(name, seed=seed)
        for q in reductions(p) * 2:  # the second pass reads the bound weights
            ids = q.users if kind == "user" else q.artists
            want = kernel(q, {i: default_weight(seed, kind, i) for i in ids})
            got = rule(q)
            assert (got.artists, got.nums, got.common) == (want.artists, want.nums, want.common)


@pytest.mark.parametrize("name, weights, error, message", [
    ("user-weighted", {"a": 1, "b": 1}, MissingWeights, "missing weight for user 'c'"),
    ("user-weighted", {"a": 1, "b": 0, "c": 1}, NonpositiveWeight,
     "weight for user 'b' must be positive"),
    ("artist-weighted", {"1": F(1, 2)}, MissingWeights, "missing weight for artist '2'"),
    ("artist-weighted", {"1": F(-1, 2), "2": 3}, NonpositiveWeight,
     "weight for artist '1' must be positive"),
])
def test_supplied_weights_are_validated_when_the_rule_is_called(name, weights, error, message):
    rule = make_rule(name, seed=7, weights=weights)
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        rule(example_1())


@pytest.mark.parametrize("kernel, kind", [(user_weighted_index, "user"),
                                          (artist_weighted_index, "artist")])
def test_kernels_require_weights(kernel, kind):
    with pytest.raises(MissingWeights, match=f"^{kind} weights are required$"):
        kernel(example_1(), None)
