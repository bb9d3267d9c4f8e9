"""The zeta transform on one packed integer and the reversed-read optimistic
and dual tables equal the per-bit reference and the literal definitions
exactly, at every size and at each boundary of the packed field width, and
the export text equals one ``format`` per coalition. Both byte-order branches
of the packing run on any host."""

import random
from types import SimpleNamespace

import pytest

from streamshare import build_sparse_problem, dual_game, game, optimistic_game, pessimistic_game
from streamshare.reporting import game_export_text

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
    # placements of the fields in the packed integer run on any host.
    monkeypatch.setattr(game, "sys", SimpleNamespace(byteorder=byteorder))
    rng = random.Random(f"order|{byteorder}")
    for n in range(1, 9):
        p = random_listening_problem(rng, n)
        assert game._user_mask_counts(p) == user_mask_counts(p)


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
