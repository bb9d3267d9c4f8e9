import random
from fractions import Fraction as F

import pytest
from hypothesis import given

from streamshare import (
    build_problem,
    make_rule,
    pro_rata_index,
    rewards,
    shapley_index,
    split_by_users,
    user_centric_index,
)
from streamshare.indices import (
    MissingWeights,
    NonpositiveWeight,
    ZeroTotalIndex,
    active_uniform_index,
    default_weight,
    artist_weighted_index,
    uniform_index,
    user_weighted_index,
)

from helpers import example_1, example_2, problems, random_problem, vector


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
        assert rewards(pro_rata_index(p), p) == (F(3, 2), F(3, 2))

    def test_example_2(self):
        p = example_2()
        assert pro_rata_index(p).values == (F(300), F(600))
        assert rewards(pro_rata_index(p), p) == (F(1), F(2))

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
        w = {u: F(1) for u in p.users}
        assert user_weighted_index(p, w).values == shapley_index(p).values

    @given(problems())
    def test_unit_weights_collapse_everywhere(self, p):
        w = {u: F(1) for u in p.users}
        assert user_weighted_index(p, w).values == shapley_index(p).values

    def test_artist_weighted_example(self):
        p = build_problem(["1", "2"], ["a"], [[1], [1]])
        vec = artist_weighted_index(p, {"1": F(1), "2": F(3)})
        assert vec.values == (F(1, 4), F(3, 4))

    def test_weight_errors(self):
        p = example_1()
        with pytest.raises(MissingWeights):
            user_weighted_index(p, {"a": F(1)})
        with pytest.raises(NonpositiveWeight):
            user_weighted_index(p, {"a": F(1), "b": F(0), "c": F(1)})
        with pytest.raises(MissingWeights):
            artist_weighted_index(p, None)


class TestRewards:
    def test_scale_invariance_exact(self):
        p = example_1()
        vec = shapley_index(p)
        doubled = vector(vec.artists, tuple(2 * v for v in vec.values))
        assert rewards(vec, p) == rewards(doubled, p) == (F(1), F(2))

    def test_zero_total_rejected(self):
        p = example_1()
        zero = vector(p.artists, (F(0), F(0)))
        with pytest.raises(ZeroTotalIndex):
            rewards(zero, p)

    def test_random_sum_is_exact(self):
        rng = random.Random(3)
        for _ in range(25):
            p = random_problem(rng, max_n=3, max_m=4)
            assert sum(rewards(user_centric_index(p), p), F(0)) == p.m

    @given(problems())
    def test_scale_invariance_random_scalar(self, p):
        vec = pro_rata_index(p)
        scaled = vector(vec.artists, tuple(F(7, 3) * v for v in vec.values))
        assert rewards(vec, p) == rewards(scaled, p)


class TestRules:
    def test_named_rules_cover_all_indices(self):
        p = example_1()
        assert make_rule("shapley")(p).values == shapley_index(p).values
        assert make_rule("pro-rata")(p).values == pro_rata_index(p).values
        assert make_rule("user-centric")(p).values == user_centric_index(p).values
        assert make_rule("uniform")(p).values == uniform_index(p).values
        assert make_rule("active-uniform")(p).values == active_uniform_index(p).values

    def test_default_weight_memo_keeps_values(self):
        for seed in (0, 7, 42):
            for kind in ("user", "artist"):
                for ident in ("a", "u1", "x y", ""):
                    expected = random.Random(f"{kind}:{seed}:{ident}").randint(1, 97)
                    assert default_weight(seed, kind, ident) == expected
                    assert default_weight(seed, kind, ident) == expected
        assert default_weight.cache_info().maxsize is not None

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
