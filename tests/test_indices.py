import math
import operator
import random
import tracemalloc
from fractions import Fraction as F

import pytest
from hypothesis import given

from streamshare import (
    build_problem,
    build_sparse_problem,
    indices,
    make_rule,
    pro_rata_index,
    shapley_index,
    split_by_users,
    user_centric_index,
)
from streamshare.indices import (
    ALL_RULE_NAMES,
    TABLE_RULE_NAMES,
    UnknownRule,
    ZeroTotalIndex,
    active_uniform_index,
    default_weight,
    artist_weighted_index,
    reward_shares,
    uniform_index,
    user_weighted_index,
)
from streamshare.reporting import allocation_json, allocation_text

import reference_indices as ref
from helpers import example_1, example_2, payouts, problems, random_problem, vector


class TestShapleyIndex:
    def test_example_1(self):
        assert shapley_index(example_1()).values == (F(1), F(2))

    def test_example_2(self):
        assert shapley_index(example_2()).values == (F(3, 2), F(3, 2))

    def test_single_artist_takes_all(self):
        p = build_problem(["x"], ["y"], [[1]])
        assert shapley_index(p).values == (F(1),)

    @given(problems())
    def test_budget_balance(self, p):
        assert shapley_index(p).total == p.m

    @given(problems())
    def test_zero_iff_no_fans(self, p):
        vec = shapley_index(p)
        for a, row in zip(p.artists, p.streams):
            assert (vec[a] == 0) == (not any(row))

    @given(problems())
    def test_additive_over_user_splits(self, p):
        if p.m < 2:
            return
        p1, p2 = split_by_users(p, [p.users[0]], list(p.users[1:]))
        whole = shapley_index(p)
        s1, s2 = shapley_index(p1), shapley_index(p2)
        for a in p.artists:
            assert whole[a] == s1[a] + s2[a]


class TestProRataIndex:
    def test_example_1(self):
        p = example_1()
        assert pro_rata_index(p).values == (F(200), F(200))
        assert payouts(pro_rata_index(p), p) == (F(3, 2), F(3, 2))

    def test_example_2(self):
        p = example_2()
        assert pro_rata_index(p).values == (F(300), F(600))
        assert payouts(pro_rata_index(p), p) == (F(1), F(2))

    def test_minimal(self):
        p = build_problem(["x"], ["y"], [[1]])
        assert pro_rata_index(p).values == (F(1),)


class TestUserCentricIndex:
    def test_example_1(self):
        assert user_centric_index(example_1()).values == (F(1), F(2))

    def test_example_2(self):
        assert user_centric_index(example_2()).values == (F(1), F(2))

    def test_hand_computed_case(self):
        p = build_problem(["1", "2"], ["a", "b"], [[3, 0], [1, 5]])
        assert user_centric_index(p).values == (F(3, 4), F(5, 4))

    @given(problems())
    def test_against_per_user_loop(self, p):
        # independent recomputation, one user at a time
        expected = {a: F(0) for a in p.artists}
        for j in range(p.m):
            col = [p.streams[i][j] for i in range(p.n)]
            total = sum(col)
            for i, a in enumerate(p.artists):
                expected[a] += F(col[i], total)
        vec = user_centric_index(p)
        assert all(vec[a] == expected[a] for a in p.artists)

    @given(problems())
    def test_budget_balance_and_zero_iff_unstreamed(self, p):
        vec = user_centric_index(p)
        assert vec.total == p.m
        for a, row in zip(p.artists, p.streams):
            assert (vec[a] == 0) == (sum(row) == 0)


class TestAppendixIndices:
    def test_uniform_on_example_1(self):
        assert uniform_index(example_1()).values == (F(3, 2), F(3, 2))

    def test_active_uniform_skips_fanless_artist(self):
        p = build_problem(["1", "2"], ["a", "b"], [[1, 1], [0, 0]])
        assert active_uniform_index(p).values == (F(2), F(0))

    def test_unit_weights_collapse_to_shapley(self):
        p = example_1()
        assert user_weighted_index(p, (1,) * p.m).values == shapley_index(p).values

    @given(problems())
    def test_unit_weights_collapse_everywhere(self, p):
        assert user_weighted_index(p, (1,) * p.m).values == shapley_index(p).values

    def test_artist_weighted_example(self):
        p = build_problem(["1", "2"], ["a"], [[1], [1]])
        vec = artist_weighted_index(p, (1, 3))
        assert vec.values == (F(1, 4), F(3, 4))


class TestRewards:
    def test_scale_invariance_exact(self):
        p = example_1()
        vec = shapley_index(p)
        doubled = vector(vec.artists, tuple(2 * v for v in vec.values))
        assert payouts(vec, p) == payouts(doubled, p) == (F(1), F(2))

    def test_zero_total_rejected(self):
        p = example_1()
        zero = vector(p.artists, (F(0), F(0)))
        with pytest.raises(ZeroTotalIndex):
            reward_shares(zero, p.m)
        with pytest.raises(ZeroTotalIndex):
            ref.rewards(zero, p)

    @given(problems())
    def test_reward_shares_hold_the_one_payout_rule(self, p):
        vec = user_centric_index(p)
        pays, total = reward_shares(vec, p.m)
        assert (pays, total) == (tuple(x * p.m for x in vec.nums), sum(vec.nums))
        assert tuple(F(x, total) for x in pays) == ref.rewards(vec, p)
        with pytest.raises(ZeroTotalIndex):
            reward_shares(vector(p.artists, (F(0),) * p.n), p.m)

    def test_random_sum_is_exact(self):
        rng = random.Random(3)
        for _ in range(25):
            p = random_problem(rng, max_n=3, max_m=4)
            assert sum(payouts(user_centric_index(p), p), F(0)) == p.m

    @given(problems())
    def test_scale_invariance_random_scalar(self, p):
        vec = pro_rata_index(p)
        scaled = vector(vec.artists, tuple(F(7, 3) * v for v in vec.values))
        assert payouts(vec, p) == payouts(scaled, p)

    @pytest.mark.parametrize("write", [allocation_json, allocation_text])
    def test_default_price_gives_the_bytes_of_price_one(self, write):
        p = example_1()
        assert write(p, ALL_RULE_NAMES) == write(p, ALL_RULE_NAMES, price=F(1))


class TestIndexVector:
    def test_no_plain_tuple_is_equal(self):
        vec = shapley_index(example_1())
        raw = (vec.artists, vec.nums, vec.common)
        assert tuple(vec) == raw
        assert not vec == raw and vec != raw
        assert not raw == vec and raw != vec
        assert vec != () and vec != "shapley"

    @pytest.mark.parametrize("name", ALL_RULE_NAMES)
    def test_scores_are_fractions(self, name):
        # an int score would pass every `== F(...)` assert, so the type is checked itself
        p = example_1()
        vec = make_rule(name)(p)
        assert [type(v) for v in vec.values] == [F] * p.n
        assert [type(vec[a]) for a in p.artists] == [F] * p.n
        assert type(vec.total) is F

    @pytest.mark.parametrize("compare", [operator.lt, operator.le, operator.gt, operator.ge])
    def test_vectors_have_no_order(self, compare):
        vec = shapley_index(example_1())
        for left, right in ((vec, (("z",),)), ((("z",),), vec), (vec, vec), (vec, tuple(vec))):
            with pytest.raises(TypeError):
                compare(left, right)


class TestRules:
    def test_named_rules_cover_all_indices(self):
        p = example_1()
        assert make_rule("shapley")(p).values == shapley_index(p).values
        assert make_rule("pro-rata")(p).values == pro_rata_index(p).values
        assert make_rule("user-centric")(p).values == user_centric_index(p).values
        assert make_rule("uniform")(p).values == uniform_index(p).values
        assert make_rule("active-uniform")(p).values == active_uniform_index(p).values

    def test_rule_names_in_order(self):
        assert TABLE_RULE_NAMES == ("shapley", "pro-rata", "user-centric")
        assert ALL_RULE_NAMES == ("shapley", "pro-rata", "user-centric", "active-uniform",
                                  "uniform", "user-weighted", "artist-weighted")

    def test_unknown_rule_message(self):
        with pytest.raises(UnknownRule, match=r"^unknown index rule 'bogus'$"):
            make_rule("bogus")

    @pytest.mark.parametrize("name,kernel", [
        ("shapley", "shapley_index"),
        ("pro-rata", "pro_rata_index"),
        ("user-centric", "user_centric_index"),
        ("active-uniform", "active_uniform_index"),
        ("uniform", "uniform_index"),
        ("user-weighted", "user_weighted_index"),
        ("artist-weighted", "artist_weighted_index"),
    ])
    def test_rule_calls_kernel_rebound_before_it_is_made(self, name, kernel, monkeypatch):
        """A kernel rebound on the module before ``make_rule`` is the one the
        rule calls, as a tracer that wraps the kernels needs."""
        calls = []
        monkeypatch.setattr(indices, kernel, lambda *args: calls.append(args) or "stub")
        p = example_1()
        assert make_rule(name, seed=3)(p) == "stub"
        assert len(calls) == 1 and calls[0][0] is p

    def test_default_weight_memo_keeps_values(self):
        for seed in (0, 7, 42):
            for kind in ("user", "artist"):
                for ident in ("a", "u1", "x y", ""):
                    expected = random.Random(f"{kind}:{seed}:{ident}").randint(1, 97)
                    assert default_weight(seed, kind, ident) == expected
                    assert default_weight(seed, kind, ident) == expected

    def test_default_seed_is_42(self):
        """The seed that ``audit``, ``allocation_json`` and ``--seed`` default to."""
        p = random_problem(random.Random(3), max_n=6, max_m=7, max_entry=50)
        for name in ALL_RULE_NAMES:
            got, want = make_rule(name)(p), make_rule(name, seed=42)(p)
            assert (got.nums, got.common) == (want.nums, want.common)

    def test_weighted_rules_are_seed_stable(self):
        p = example_1()
        a = make_rule("user-weighted", seed=5)(p)
        b = make_rule("user-weighted", seed=5)(p)
        assert a == b

    def test_weighted_rule_weights_follow_identity_across_subproblems(self):
        p = example_1()
        rule = make_rule("user-weighted", seed=5)
        p1, p2 = split_by_users(p, ["a"], ["b", "c"])
        whole = rule(p)
        s1, s2 = rule(p1), rule(p2)
        for a in p.artists:
            assert whole[a] == s1[a] + s2[a]


class TestKernelCost:
    def test_memory_does_not_grow_with_artists_times_denominators(self):
        """20000 artists and 300 users, user j streaming artists j and j + 1 with
        counts 1 and j + 1: 300 distinct stream totals, 600 nonzeros. A table
        per denominator would hold 300 lists of 20000 ints (about 46 MB)."""
        p = build_sparse_problem([f"a{i}" for i in range(20000)], [f"u{j}" for j in range(300)],
                                 [((j, j + 1), (1, j + 1)) for j in range(300)])
        tracemalloc.start()
        try:
            vec = user_centric_index(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert vec.common == math.lcm(*range(2, 302))
        assert peak < 2 * 2**20
