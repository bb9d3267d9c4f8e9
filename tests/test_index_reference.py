"""The index kernels equal the per-entry Fraction reference exactly, for all
seven rules, and so do the index total, the payouts and the report's payout
total computed from them."""

import json
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_indices as ref
from streamshare import build_problem, build_sparse_problem, make_rule
from streamshare.indices import ALL_RULE_NAMES
from streamshare.reporting import allocation_json

from helpers import payouts, problems, random_problem
from reference_indices import reference_rule, user_centric_index

pytestmark = pytest.mark.oracle


def assert_fractions(got, want):
    assert got == want
    assert all(type(v) is F for v in got)


def assert_same(got, want, p):
    """Equal values, and equal total and payouts computed from them; the
    payouts sum to ``m``."""
    assert got.artists == want.artists
    assert_fractions(got.values, want.values)
    assert_fractions([got.total], [ref.total(want)])
    paid = payouts(got, p)
    assert_fractions(paid, ref.rewards(want, p))
    assert ref.reward_total(paid) == p.m  # the report's reward_total


def assert_all_rules_match(p, seed):
    for name in ALL_RULE_NAMES:
        assert_same(make_rule(name, seed=seed)(p), reference_rule(name, seed=seed)(p), p)


@settings(max_examples=150)
@given(problems(max_n=5, max_m=6, max_entry=200), st.integers(0, 10**6))
def test_property_all_rules_equal_reference(p, seed):
    assert_all_rules_match(p, seed)


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


@st.composite
def same_size_problems(draw, max_n=5, max_m=6):
    """Every user streams the same number of artists, with any counts, so the
    shapley kernel sees one denominator however many the user-centric one sees."""
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(1, max_m))
    k = draw(st.integers(1, n))
    rows = [[0] * m for _ in range(n)]
    for j in range(m):
        for i in draw(st.permutations(range(n)))[:k]:
            rows[i][j] = draw(st.integers(1, 200))
    return build_problem([f"a{i}" for i in range(n)], [f"u{j}" for j in range(m)], rows)


@st.composite
def same_total_problems(draw, max_n=5, max_m=6):
    """Every user streams the same total, over any number of artists, so the
    user-centric kernel sees one denominator however many the shapley one sees."""
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(1, max_m))
    total = draw(st.integers(1, 200))
    rows = [[0] * m for _ in range(n)]
    for j in range(m):
        k = draw(st.integers(1, min(n, total)))
        cuts = sorted(draw(st.lists(st.integers(1, max(total - 1, 1)), min_size=k - 1,
                                    max_size=k - 1, unique=True)))
        for i, (lo, hi) in zip(draw(st.permutations(range(n))), zip([0, *cuts], [*cuts, total])):
            rows[i][j] = hi - lo
    return build_problem([f"a{i}" for i in range(n)], [f"u{j}" for j in range(m)], rows)


@settings(max_examples=150)
@given(same_size_problems())
def test_property_one_listening_set_size_equals_reference(p):
    vec = make_rule("shapley")(p)
    assert {vec.common} == {len(idx) for idx, _ in p.columns}  # the one size, unscaled
    assert_same(vec, ref.shapley_index(p), p)


@settings(max_examples=150)
@given(same_total_problems())
def test_property_one_stream_total_equals_reference(p):
    vec = make_rule("user-centric")(p)
    assert {vec.common} == {sum(counts) for _, counts in p.columns}  # the one total, unscaled
    assert_same(vec, user_centric_index(p), p)


@st.composite
def wide_sparse_problems(draw):
    """Up to 300 artists and 40 users, each streaming 1 to 60 of them with
    counts up to 10**6: many distinct stream totals, listening-set sizes and
    weight sums, so the kernels' lcm has many prime factors."""
    n = draw(st.integers(1, 300))
    m = draw(st.integers(1, 40))
    max_k = draw(st.integers(1, min(n, 60)))
    max_count = draw(st.sampled_from([1, 9, 200, 10**6]))
    rng = draw(st.randoms(use_true_random=False))
    columns = []
    for _ in range(m):
        idx = sorted(rng.sample(range(n), rng.randint(1, max_k)))
        columns.append((idx, [rng.randint(1, max_count) for _ in idx]))
    return build_sparse_problem([f"a{i}" for i in range(n)], [f"u{j}" for j in range(m)], columns)


@settings(max_examples=100)
@given(wide_sparse_problems(), st.integers(0, 10**6))
def test_property_one_pass_kernels_equal_grouped_kernels(p, seed):
    """The same integers, not only equal values: ``nums`` over ``common``."""
    for name in ("shapley", "user-centric", "user-weighted", "artist-weighted"):
        got, want = make_rule(name, seed=seed)(p), ref.grouped_rule(name, seed=seed)(p)
        assert (got.artists, got.nums, got.common) == (want.artists, want.nums, want.common)


def _composition(rng, total, k):
    """``k`` positive parts summing to ``total`` (``1 <= k <= total``), uniformly cut."""
    cuts = sorted(rng.sample(range(1, total), k - 1))
    return [hi - lo for lo, hi in zip([0, *cuts], [*cuts, total])]


def shared_total_problem(rng, n, m, totals, supports):
    """``m`` users over ``n`` artists, each user's counts a composition of one of
    ``totals`` over one of ``supports`` or, half the time, a fresh random subset,
    cut to at most ``total`` artists: users share stream totals over different
    supports and weight sums over the same ones."""
    columns = []
    for _ in range(m):
        total = rng.choice(totals)
        idx = rng.choice(supports) if rng.random() < 0.5 else rng.sample(range(n), rng.randint(1, n))
        idx = sorted(idx[:total])
        columns.append((idx, _composition(rng, total, len(idx))))
    return build_sparse_problem([f"a{i}" for i in range(n)], [f"u{j}" for j in range(m)], columns)


@st.composite
def shared_total_problems(draw, max_n=8, max_m=30):
    """Up to 8 x 30 problems whose users' counts are compositions of 2-3 totals
    over random artist subsets: groups of one, two and many users per stream
    total, with different supports, and per weight sum, with shared ones."""
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(1, max_m))
    rng = draw(st.randoms(use_true_random=False))
    totals = rng.sample(range(1, draw(st.sampled_from([12, 200, 10**6]))), rng.randint(2, 3))
    supports = [rng.sample(range(n), rng.randint(1, n)) for _ in range(2)]
    return shared_total_problem(rng, n, m, totals, supports)


def assert_proportional_rules_match(p, seed):
    """User-centric and artist-weighted: the grouped kernels' ``nums`` over
    ``common``, integer for integer, and the per-entry reference's values."""
    for name in ("user-centric", "artist-weighted"):
        got, want = make_rule(name, seed=seed)(p), ref.grouped_rule(name, seed=seed)(p)
        assert (got.artists, got.nums, got.common) == (want.artists, want.nums, want.common)
        assert_same(got, reference_rule(name, seed=seed)(p), p)


@settings(max_examples=150)
@given(shared_total_problems(), st.integers(0, 10**6))
def test_property_shared_denominators_equal_grouped_kernels(p, seed):
    assert_proportional_rules_match(p, seed)


def test_shared_denominators_with_a_common_of_over_300_digits():
    rng = random.Random(7)
    totals = rng.sample(range(100, 5000), 300)
    supports = [rng.sample(range(40), 20) for _ in range(8)]
    p = shared_total_problem(rng, 40, 1200, totals, supports)
    sums = [sum(counts) for _, counts in p.columns]
    assert len(set(sums)) < len(sums)  # some users share a total
    for name in ("user-centric", "artist-weighted"):
        assert len(str(make_rule(name)(p).common)) > 300
    assert_proportional_rules_match(p, 7)


@settings(max_examples=60)
@given(problems(max_n=5, max_m=6, max_entry=200), st.integers(0, 10**6))
def test_property_report_payout_total_equals_reference(p, seed):
    doc = json.loads(allocation_json(p, ALL_RULE_NAMES, seed=seed))
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
            assert_all_rules_match(p, seed)


def test_single_row_and_single_column_problems():
    rng = random.Random(5)
    for k in (1, 2, 9):
        one_artist = build_problem(["x"], [f"u{j}" for j in range(k)],
                                   [[rng.randint(1, 200) for _ in range(k)]])
        one_user = build_problem([f"a{i}" for i in range(k)], ["y"],
                                 [[rng.randint(0, 200)] for _ in range(k - 1)] + [[7]])
        for p in (one_artist, one_user):
            assert_all_rules_match(p, k)


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
    assert max(len(str(r.denominator)) for r in payouts(make_rule("user-centric")(p), p)) > 300
    assert_all_rules_match(p, 3)
