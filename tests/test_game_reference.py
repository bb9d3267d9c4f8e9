"""The zeta transform on one packed integer, and the optimistic and dual
tables read big-endian off its complement, equal the per-bit reference and
the literal definitions exactly, at every size and at each boundary of the
packed field width, and the export text equals one ``format`` per
coalition. Both byte-order branches of the packing run on any host.

The closed-form Shapley index equals the Möbius oracle on both games up to
16 artists, and the Möbius oracle equals the permutation oracle wherever
that one runs."""

import random
from types import SimpleNamespace

import pytest

from streamshare import build_sparse_problem, game, optimistic_game, pessimistic_game
from streamshare.indices import shapley_index
from streamshare.reporting import game_export_text

from reference_game import (
    dual_game,
    dual_worth,
    harsanyi_dividends,
    optimistic_worth,
    shapley_value_brute_force,
    shapley_value_mobius,
    user_mask_counts,
)


def random_listening_problem(rng, n, max_m=40):
    """Users with random nonempty listening sets; density varies per user."""
    columns = []
    for _ in range(rng.randint(1, max_m)):
        density = rng.random()
        idx = [i for i in range(n) if rng.random() < density] or [rng.randrange(n)]
        columns.append((idx, [rng.randint(1, 9) for _ in idx]))
    return build_sparse_problem([f"a{i}" for i in range(n)],
                                [f"u{j}" for j in range(len(columns))], columns)


def assert_tables_match(p):
    counts = user_mask_counts(p)
    assert list(game._user_mask_counts(p)) == counts
    pessimistic = pessimistic_game(p)
    optimistic = optimistic_game(p)
    assert pessimistic.worth == tuple(counts)
    assert optimistic.worth == optimistic_worth(p)
    for g in (pessimistic, optimistic):
        assert dual_game(g).worth == dual_worth(g.worth)


@pytest.mark.parametrize("n", range(1, 13))
def test_tables_equal_reference_at_every_size(n):
    # At most 40 users, so the fields are one byte wide; the wider fields are
    # tested at their boundaries below.
    rng = random.Random(f"zeta|{n}")
    for _ in range(6):
        assert_tables_match(random_listening_problem(rng, n))


def test_tables_equal_reference_at_eighteen_artists():
    assert_tables_match(random_listening_problem(random.Random("zeta|18"), 18, max_m=400))


@pytest.mark.parametrize("m", [255, 256, 65535, 65536])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_tables_equal_reference_at_field_width_boundaries(n, m):
    # A packed field is 1, 2 or 4 bytes wide for these m; the count of the
    # grand coalition is m, and so is that of {a0} when every user streams a0
    # alone, so a field one byte too narrow overflows or carries.
    rng = random.Random(f"width|{n}|{m}")
    lone = [[0]] * m
    mixed = [sorted(rng.sample(range(n), rng.randint(1, n))) for _ in range(m)]
    for sets in (lone, mixed):
        assert_tables_match(build_sparse_problem([f"a{i}" for i in range(n)],
                                                 [f"u{j}" for j in range(m)],
                                                 [(idx, [1] * len(idx)) for idx in sets]))


@pytest.mark.parametrize("byteorder", ["little", "big"])
def test_tables_equal_reference_in_either_host_byte_order(byteorder, monkeypatch):
    # One-byte fields read the same in either byte order, so both hosts'
    # byte swaps into and out of the packed integer, for the counts and for
    # their complement, run on any host.
    monkeypatch.setattr(game, "sys", SimpleNamespace(byteorder=byteorder))
    rng = random.Random(f"order|{byteorder}")
    for n in range(1, 9):
        p = random_listening_problem(rng, n)
        assert list(game._user_mask_counts(p)) == user_mask_counts(p)
        assert tuple(game._user_mask_counts(p, complement=True)) == optimistic_worth(p)


@pytest.mark.parametrize("n", range(1, 13))
def test_export_rows_equal_one_format_per_coalition(n):
    # Odd and even n split the mask into unequal and equal halves; at n = 1
    # the low half is empty.
    p = random_listening_problem(random.Random(f"rows|{n}"), n)
    counts = user_mask_counts(p)
    tables = {"pessimistic": counts, "optimistic": optimistic_worth(p),
              "dual": dual_worth(counts)}
    for stance, worth in tables.items():
        expected = "".join(f"{s:0{n}b},{w}\n" for s, w in enumerate(worth))
        assert game_export_text(p, stance) == expected


# 20 artists take seconds, so that case runs only under -m slow
@pytest.mark.parametrize("n", [8, 12, 16, pytest.param(20, marks=pytest.mark.slow)])
def test_mobius_oracle_equals_shapley_index(n):
    p = random_listening_problem(random.Random(f"mobius|{n}"), n, max_m=300)
    for g in (pessimistic_game(p), optimistic_game(p)):
        assert shapley_value_mobius(g).values == shapley_index(p).values


@pytest.mark.parametrize("n", range(1, 11))
def test_mobius_oracle_equals_permutation_oracle(n):
    # the 9! and 10! player orders take seconds, so those sizes check one game
    rng = random.Random(f"orders|{n}")
    for _ in range(4 if n < 9 else 1):
        p = random_listening_problem(rng, n, max_m=12)
        games = [pessimistic_game(p), optimistic_game(p)]
        for g in games if n < 9 else games[:1]:
            assert shapley_value_mobius(g).values == shapley_value_brute_force(g).values


@pytest.mark.parametrize("n", range(1, 9))
def test_pessimistic_dividends_count_exact_listening_sets(n):
    # d(S) is the number of users who streamed exactly S, so no dividend is
    # negative: the game is convex, and its Shapley value meets every core
    # constraint, which is the reasonable lower bound.
    p = random_listening_problem(random.Random(f"dividends|{n}"), n)
    exact = [0] * (1 << n)
    for idx, _ in p.columns:
        exact[sum(1 << i for i in idx)] += 1
    dividends = harsanyi_dividends(pessimistic_game(p).worth)
    assert dividends == exact
    assert min(dividends) >= 0
