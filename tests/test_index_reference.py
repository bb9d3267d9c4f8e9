"""The index kernels equal the per-entry Fraction reference exactly, for all
seven rules, and so do the index total, the payouts and the report's payout
total computed from them."""

import random
from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

import reference_indices as ref
from streamshare import build_problem, make_rule
from streamshare.indices import ALL_RULE_NAMES, exact_sum, rewards
from streamshare.reporting import allocation_document

from helpers import problems, random_problem
from reference_indices import reference_rule, user_centric_index

WEIGHTS = st.fractions(min_value=F(1, 60), max_value=97, max_denominator=60)


def assert_fractions(got, want):
    assert got == want
    assert all(type(v) is F for v in got)


def assert_same(got, want, p):
    """Equal values, and equal total, payouts and payout total computed from them."""
    assert got.artists == want.artists
    assert_fractions(got.values, want.values)
    assert_fractions([got.total], [ref.total(want)])
    payouts = rewards(got, p)
    assert_fractions(payouts, ref.rewards(want, p))
    assert_fractions([exact_sum(payouts)], [ref.reward_total(payouts)])


def assert_all_rules_match(p, seed, user_weights=None, artist_weights=None):
    for name in ALL_RULE_NAMES:
        assert_same(make_rule(name, seed=seed)(p), reference_rule(name, seed=seed)(p), p)
    for name, weights in (("user-weighted", user_weights), ("artist-weighted", artist_weights)):
        if weights is not None:
            assert_same(make_rule(name, weights=weights)(p),
                        reference_rule(name, weights=weights)(p), p)


def fraction_weights(rng, ids):
    return {i: F(rng.randint(1, 500), rng.randint(1, 60)) for i in ids}


@settings(max_examples=150)
@given(st.data(), problems(max_n=5, max_m=6, max_entry=200), st.integers(0, 10**6))
def test_property_all_rules_equal_reference(data, p, seed):
    user_weights = {u: data.draw(WEIGHTS) for u in p.users}
    artist_weights = {a: data.draw(WEIGHTS) for a in p.artists}
    assert_all_rules_match(p, seed, user_weights, artist_weights)


@st.composite
def single_group_problems(draw, max_n=5, max_m=6):
    """Every user streams k artists with the same multiset of counts, so the
    shapley, user-weighted and user-centric kernels see one denominator."""
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(1, max_m))
    counts = draw(st.lists(st.integers(1, 200), min_size=1, max_size=n))
    rows = [[0] * m for _ in range(n)]
    for j in range(m):
        artists = draw(st.permutations(range(n)))
        for i, x in zip(artists, draw(st.permutations(counts))):
            rows[i][j] = x
    return build_problem([f"a{i}" for i in range(n)], [f"u{j}" for j in range(m)], rows)


@settings(max_examples=150)
@given(single_group_problems(), st.integers(0, 10**6))
def test_property_single_group_problems_equal_reference(p, seed):
    assert len({len(idx) for idx, _ in p.columns}) == 1
    assert len({sum(counts) for _, counts in p.columns}) == 1
    assert_all_rules_match(p, seed)


@settings(max_examples=60)
@given(problems(max_n=5, max_m=6, max_entry=200), st.integers(0, 10**6))
def test_property_report_payout_total_equals_reference(p, seed):
    doc = allocation_document(p, ALL_RULE_NAMES, seed=seed)
    for section in doc["sections"]:
        payouts = ref.rewards(reference_rule(section["index"], seed=seed)(p), p)
        assert section["reward_total"] == str(ref.reward_total(payouts))
        assert [r["fraction"] for r in section["rewards"]] == list(map(str, payouts))


def test_fixed_seed_sweep_all_rules_equal_reference():
    for seed in (11, 12):
        rng = random.Random(seed)
        for trial in range(300):
            p = random_problem(rng, max_n=6, max_m=7,
                               max_entry=200 if trial % 2 else 5)
            assert_all_rules_match(p, seed, fraction_weights(rng, p.users),
                                   fraction_weights(rng, p.artists))


def test_single_row_and_single_column_problems():
    rng = random.Random(5)
    for k in (1, 2, 9):
        one_artist = build_problem(["x"], [f"u{j}" for j in range(k)],
                                   [[rng.randint(1, 200) for _ in range(k)]])
        one_user = build_problem([f"a{i}" for i in range(k)], ["y"],
                                 [[rng.randint(0, 200)] for _ in range(k - 1)] + [[7]])
        for p in (one_artist, one_user):
            assert_all_rules_match(p, k, fraction_weights(rng, p.users),
                                   fraction_weights(rng, p.artists))


def test_dense_problem_with_huge_denominators():
    # the alloc-dense shape: 40 x 6000, each entry streamed with p = 0.5
    rng = random.Random(2024)
    rows = [[rng.randint(1, 50) if rng.random() < 0.5 else 0 for _ in range(6000)]
            for _ in range(40)]
    for j in range(6000):
        if not any(row[j] for row in rows):
            rows[rng.randrange(40)][j] = 1
    p = build_problem([f"a{i}" for i in range(40)], [f"u{j}" for j in range(6000)], rows)
    values = user_centric_index(p).values
    assert max(len(str(v.denominator)) for v in values) > 300
    assert max(len(str(r.denominator)) for r in rewards(make_rule("user-centric")(p), p)) > 300
    assert_all_rules_match(p, 3)
