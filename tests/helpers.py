"""Shared generators for the test suite."""

from hypothesis import strategies as st

from streamshare import build_problem
from streamshare.indices import IndexVector, common_numerators


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


def vector(artists, values):
    """The ``IndexVector`` whose values are the ``Fraction``s ``values``."""
    common, nums = common_numerators(values)
    return IndexVector(tuple(artists), tuple(nums), common)


EXAMPLE_1 = (["1", "2"], ["a", "b", "c"], [[200, 0, 0], [0, 100, 100]])
EXAMPLE_2 = (["1", "2"], ["a", "b", "c"], [[100, 100, 100], [200, 200, 200]])


def example_1():
    return build_problem(*EXAMPLE_1)


def example_2():
    return build_problem(*EXAMPLE_2)
