"""Shared generators and helpers for the test suite."""

import csv
import io
import math
from fractions import Fraction

from hypothesis import strategies as st

from streamshare import build_problem
from streamshare.indices import IndexVector, reward_shares
from streamshare.reporting import game_chunks


def random_problem(rng, max_n=5, max_m=5, max_entry=5, zero_chance=0.35):
    """Seeded random valid problem; every column is kept positive."""
    n = rng.randint(1, max_n)
    m = rng.randint(1, max_m)
    rows = [
        [0 if rng.random() < zero_chance else rng.randint(1, max_entry) for _ in range(m)]
        for _ in range(n)
    ]
    for j in range(m):
        if all(rows[i][j] == 0 for i in range(n)):
            rows[rng.randrange(n)][j] = rng.randint(1, max_entry)
    return build_problem(
        [f"a{i}" for i in range(1, n + 1)],
        [f"u{j}" for j in range(1, m + 1)],
        rows,
    )


@st.composite
def problems(draw, max_n=4, max_m=4, max_entry=4):
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(1, max_m))
    rows = [
        [draw(st.integers(0, max_entry)) for _ in range(m)] for _ in range(n)
    ]
    for j in range(m):
        if all(rows[i][j] == 0 for i in range(n)):
            i = draw(st.integers(0, n - 1))
            rows[i][j] = draw(st.integers(1, max_entry))
    return build_problem(
        [f"a{i}" for i in range(1, n + 1)],
        [f"u{j}" for j in range(1, m + 1)],
        rows,
    )


def common_numerators(values) -> tuple[int, list[int]]:
    """Return ``(common, nums)`` with ``values[i] == nums[i] / common`` exactly.

    ``common`` is the lcm of the denominators.
    """
    common = math.lcm(*(v.denominator for v in values))
    return common, [v.numerator * (common // v.denominator) for v in values]


def vector(artists, values):
    """The ``IndexVector`` whose values are the ``Fraction``s ``values``."""
    common, nums = common_numerators(values)
    return IndexVector(tuple(artists), tuple(nums), common)


def payouts(index, p):
    """The payouts of ``indices.reward_shares``, one ``Fraction`` per artist."""
    pays, total = reward_shares(index, p.m)
    return tuple(Fraction(x, total) for x in pays)


def game_export_text(p, stance: str) -> str:
    """The text game export (``reporting.game_chunks``) as one string."""
    return b"".join(game_chunks(p, stance)).decode("ascii")


def game_json(p, stance: str) -> str:
    """The JSON game export (``reporting.game_chunks``) as one string."""
    return b"".join(game_chunks(p, stance, "json")).decode("ascii")


def serialize_matrix(p) -> str:
    """Inverse of ``reporting.parse_matrix`` (modulo whitespace)."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["artist", *p.users])
    for a, row in zip(p.artists, p.streams):
        writer.writerow([a, *row])
    return out.getvalue()


EXAMPLE_1 = (["1", "2"], ["a", "b", "c"], [[200, 0, 0], [0, 100, 100]])
EXAMPLE_2 = (["1", "2"], ["a", "b", "c"], [[100, 100, 100], [200, 200, 200]])


def example_1():
    return build_problem(*EXAMPLE_1)


def example_2():
    return build_problem(*EXAMPLE_2)
