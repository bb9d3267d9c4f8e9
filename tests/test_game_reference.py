"""The slice-based zeta transform and the reversed-read optimistic and dual
tables equal the per-bit reference and the literal definitions exactly."""

import operator
import random

import pytest

from streamshare import build_sparse_problem, dual_game, game, optimistic_game, pessimistic_game

from reference_game import dual_worth, optimistic_worth, user_mask_counts


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
    assert game._user_mask_counts(p) == counts
    pessimistic = pessimistic_game(p, cap=p.n)
    optimistic = optimistic_game(p, cap=p.n)
    assert pessimistic.worth == tuple(counts)
    assert optimistic.worth == optimistic_worth(p)
    for g in (pessimistic, optimistic):
        assert dual_game(g).worth == dual_worth(g.worth)


@pytest.mark.parametrize("n", range(1, 13))
def test_tables_equal_reference_at_every_size(n):
    # Both slice branches run at every n >= 2: strided passes for the low bits,
    # contiguous blocks for the high ones.
    rng = random.Random(f"zeta|{n}")
    for _ in range(6):
        assert_tables_match(random_listening_problem(rng, n))


def test_tables_equal_reference_at_eighteen_artists():
    assert_tables_match(random_listening_problem(random.Random("zeta|18"), 18, max_m=400))


@pytest.mark.parametrize("n", [1, 2, 7, 12])
def test_each_pass_takes_at_most_root_size_slices(n, monkeypatch):
    # ``operator.add`` is read once per slice addition; each pass must take
    # the cheaper of ``bit`` strided slices and ``2^n / (2 * bit)`` blocks.
    class Counting:
        reads = 0

        @property
        def add(self):
            Counting.reads += 1
            return operator.add

    monkeypatch.setattr(game, "operator", Counting())
    p = random_listening_problem(random.Random(n), n)
    assert game._user_mask_counts(p) == user_mask_counts(p)
    assert Counting.reads == sum(min(1 << b, 1 << (n - 1 - b)) for b in range(n))
