import random
from fractions import Fraction as F

import pytest

from streamshare import (
    build_problem,
    dual_game,
    optimistic_game,
    pessimistic_game,
    shapley_index,
    shapley_value_brute_force,
)
from streamshare.game import CoalitionGame, TooManyArtists

from helpers import example_1, random_problem


def listening(p, j):
    """The artists user ``j`` streamed, read off the dense rows."""
    return {a for i, a in enumerate(p.artists) if p.streams[i][j] > 0}


def members(p, mask):
    """The artists in coalition ``mask``: bit k is the artist at position k."""
    return {a for k, a in enumerate(p.artists) if mask >> k & 1}


def naive_pessimistic_worth(p, s):
    """Direct set-inclusion count, independent of the table construction."""
    return sum(1 for j in range(p.m) if listening(p, j) <= s)


def naive_optimistic_worth(p, s):
    return sum(1 for j in range(p.m) if listening(p, j) & s)


class TestGameConstruction:
    def test_example_1_pessimistic(self):
        g = pessimistic_game(example_1())
        assert g.worth == (0, 1, 2, 3)

    def test_example_1_optimistic(self):
        g = optimistic_game(example_1())
        assert g.worth[0b01] == 1
        assert g.worth[0b10] == 2
        assert g.worth[0b11] == 3

    def test_everyone_streams_both(self):
        p = build_problem(["1", "2"], ["a", "b"], [[1, 1], [1, 1]])
        g = pessimistic_game(p)
        assert g.worth[0b01] == g.worth[0b10] == 0
        assert g.worth[0b11] == 2
        go = optimistic_game(p)
        assert go.worth[0b01] == go.worth[0b10] == 2

    def test_grand_coalition_and_empty(self):
        rng = random.Random(11)
        for _ in range(20):
            p = random_problem(rng, max_n=4, max_m=5)
            for g in (pessimistic_game(p), optimistic_game(p)):
                assert g.worth[0] == 0
                assert g.worth[-1] == p.m

    def test_tables_match_naive_counts(self):
        rng = random.Random(13)
        for _ in range(20):
            p = random_problem(rng, max_n=5, max_m=5)
            g = pessimistic_game(p)
            go = optimistic_game(p)
            for mask in range(1 << p.n):
                s = members(p, mask)
                assert g.worth[mask] == naive_pessimistic_worth(p, s)
                assert go.worth[mask] == naive_optimistic_worth(p, s)

    def test_monotonicity(self):
        rng = random.Random(17)
        for _ in range(10):
            p = random_problem(rng, max_n=4, max_m=4)
            for g in (pessimistic_game(p), optimistic_game(p)):
                for s in range(1 << p.n):
                    for b in range(p.n):
                        if not s >> b & 1:
                            assert g.worth[s] <= g.worth[s | 1 << b]

    @pytest.mark.parametrize("n", [21, 25])
    def test_table_limit(self, n):
        p = build_problem([f"a{i}" for i in range(n)], ["u"], [[1]] * n)
        for build in (pessimistic_game, optimistic_game):
            with pytest.raises(TooManyArtists, match=f"^{n} artists exceeds the enumeration cap 20$"):
                build(p)


class TestDuality:
    def test_example_1_dual_equals_optimistic(self):
        p = example_1()
        assert dual_game(pessimistic_game(p)).worth == optimistic_game(p).worth

    def test_dual_is_involution(self):
        rng = random.Random(19)
        for _ in range(10):
            p = random_problem(rng, max_n=5, max_m=5)
            g = pessimistic_game(p)
            assert dual_game(dual_game(g)).worth == g.worth

    def test_hand_evaluated_identity(self):
        p = build_problem(["1", "2"], ["a", "b"], [[1, 1], [1, 1]])
        dual = dual_game(pessimistic_game(p))
        assert dual.worth[0b01] == 2 == optimistic_game(p).worth[0b01]

    def test_duality_on_random_problems(self):
        rng = random.Random(23)
        for _ in range(30):
            p = random_problem(rng, max_n=6, max_m=6)
            assert dual_game(pessimistic_game(p)).worth == optimistic_game(p).worth


class TestBruteForceShapley:
    def test_example_1_matches_closed_form(self):
        p = example_1()
        vec = shapley_value_brute_force(pessimistic_game(p))
        assert vec.values == (F(1), F(2))

    def test_optimistic_game_same_value(self):
        p = example_1()
        vec = shapley_value_brute_force(optimistic_game(p))
        assert vec.values == (F(1), F(2))

    def test_additive_game(self):
        players = ("x", "y", "z")
        worth = tuple(s.bit_count() for s in range(8))
        g = CoalitionGame(players, worth)
        vec = shapley_value_brute_force(g)
        assert vec.values == (F(1), F(1), F(1))

    def test_matches_closed_form_on_random_problems(self):
        rng = random.Random(29)
        for _ in range(30):
            p = random_problem(rng, max_n=5, max_m=5)
            g = pessimistic_game(p)
            assert shapley_value_brute_force(g).values == shapley_index(p).values

    def test_dual_invariance(self):
        rng = random.Random(37)
        for _ in range(15):
            p = random_problem(rng, max_n=5, max_m=4)
            g = pessimistic_game(p)
            assert shapley_value_brute_force(g).values \
                == shapley_value_brute_force(dual_game(g)).values

    def test_efficiency(self):
        rng = random.Random(41)
        for _ in range(15):
            p = random_problem(rng, max_n=5, max_m=5)
            g = optimistic_game(p)
            vec = shapley_value_brute_force(g)
            assert vec.total == g.worth[-1]

    def test_caps(self):
        artists = [str(k) for k in range(11)]
        g = pessimistic_game(build_problem(artists, ["a"], [[1]] * 11))
        with pytest.raises(TooManyArtists, match="11 artists"):
            shapley_value_brute_force(g)
