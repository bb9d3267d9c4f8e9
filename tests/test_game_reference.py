"""The zeta transform on one packed integer, and the optimistic and dual
tables read big-endian off its complement, equal the per-bit reference and
the literal definitions exactly, at every size and at each boundary of the
packed field width, and the export text equals one ``format`` per
coalition. Both byte-order branches of the packing run on any host. What the
CLI streams, to stdout and to an ``--output`` file, in text and in JSON, is
the per-coalition loop's bytes, written one block per high half of the mask.

The closed-form Shapley index equals the Möbius oracle on both games up to
16 artists, and the Möbius oracle equals the permutation oracle wherever
that one runs."""

import contextlib
import io
import json
import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamshare import build_problem, build_sparse_problem, game, optimistic_game, pessimistic_game
from streamshare.cli import main
from streamshare.game import STANCES
from streamshare.indices import shapley_index
from streamshare.reporting import game_chunks

from helpers import game_export_text
from reference_game import (
    dual_game,
    dual_worth,
    export_rows,
    game_document,
    harsanyi_dividends,
    optimistic_worth,
    shapley_value_brute_force,
    shapley_value_mobius,
    user_mask_counts,
)

pytestmark = pytest.mark.oracle


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
    for stance in STANCES:
        assert game_export_text(p, stance) == "".join(row + "\n" for row in export_rows(p, stance))


@pytest.mark.parametrize("n", range(1, 11))
@settings(max_examples=6, deadline=None)
@given(data=st.data())
def test_streamed_export_equals_per_coalition_loop(tmp_path_factory, n, data):
    # n = 1 leaves the low half of the mask empty; odd n splits it unevenly.
    sets = data.draw(st.lists(st.sets(st.integers(0, n - 1), min_size=1), min_size=1,
                              max_size=12))
    streams = [[data.draw(st.integers(1, 9)) if i in s else 0 for s in sets] for i in range(n)]
    p = build_problem([f"a{i}" for i in range(n)], [f"u{j}" for j in range(len(sets))], streams)
    folder = tmp_path_factory.mktemp("export")
    source, dest = folder / "in.csv", folder / "out"
    rows = [["artist", *p.users], *([a, *r] for a, r in zip(p.artists, streams))]
    source.write_text("".join(",".join(map(str, row)) + "\n" for row in rows), encoding="utf-8")
    for stance in STANCES:
        text = "".join(row + "\n" for row in export_rows(p, stance))
        document = json.dumps(game_document(p, stance), indent=2, sort_keys=True) + "\n"
        for fmt, expected in (("text", text), ("json", document)):
            argv = ["game", "--input", str(source), "--stance", stance, "--format", fmt]
            stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
            with contextlib.redirect_stdout(stdout):
                assert main(argv) == 0
            stdout.flush()
            assert stdout.buffer.getvalue() == expected.encode()
            assert main([*argv, "--output", str(dest)]) == 0
            assert dest.read_bytes() == expected.encode()
        # one chunk per high half of the mask bits, none holding the whole table
        chunks = list(game_chunks(p, stance))
        assert len(chunks) == 1 << n - n // 2
        assert all(chunk.count(b"\n") == 1 << n // 2 for chunk in chunks)


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
