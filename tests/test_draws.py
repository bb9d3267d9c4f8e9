"""Every integer the audit's instance generators draw comes from their own
rejection loop ``axioms._below``, in place of a ``random`` method:
``a + _below(getrandbits, b - a + 1)`` for ``randint(a, b)``,
``_below(getrandbits, n)`` for ``randrange(n)``,
``seq[_below(getrandbits, len(seq))]`` for ``choice(seq)``, and
``axioms._pair(getrandbits, n)`` for ``sample(range(n), 2)``. Each test draws
the same values as the method it replaces and leaves the generator in the same
state; so does ``axioms._random_rows``, which makes each entry's first draw
inline and calls ``_below`` only after a rejection. On a Python whose ``random`` draws otherwise, these tests fail by name,
ahead of the pinned instance digests."""

import random

import pytest

from streamshare.axioms import (HEAVY_CHANCE, HEAVY_ENTRY, MAX_ARTISTS, MAX_ENTRY, MAX_USERS,
                                _below, _pair, _random_rows)

pytestmark = pytest.mark.oracle

# every randint(a, b) of the generators: the shape in _random_rows, with
# min_n and min_m of 1 or 2 as the generators ask; the entries, light and
# heavy; and the bumps, increments (from 0 too) and scales of the
# axiom-specific generators
RANDINT_BOUNDS = sorted({(low, high) for low in (1, 2) for high in (MAX_ARTISTS, MAX_USERS)}
                        | {(1, MAX_ENTRY), (1, HEAVY_ENTRY), (1, 2), (1, 3), (2, 50),
                           (0, 2), (0, MAX_ENTRY)})
SEEDS = [0, 1, 2**64 + 3, "7|additivity|shapley", "42|click_fraud_proofness|uniform"]
DRAWS = 400


def twins(seed):
    return random.Random(seed), random.Random(seed)


@pytest.mark.parametrize("a, b", RANDINT_BOUNDS)
@pytest.mark.parametrize("seed", SEEDS)
def test_randbelow_draws_as_randint(a, b, seed):
    ours, reference = twins(seed)
    assert [a + _below(ours.getrandbits, b - a + 1) for _ in range(DRAWS)] == \
        [reference.randint(a, b) for _ in range(DRAWS)]
    assert ours.getstate() == reference.getstate()


@pytest.mark.parametrize("n", range(1, MAX_ARTISTS + 1))
@pytest.mark.parametrize("seed", SEEDS)
def test_randbelow_draws_as_randrange(n, seed):
    ours, reference = twins(seed)
    assert [_below(ours.getrandbits, n) for _ in range(DRAWS)] == \
        [reference.randrange(n) for _ in range(DRAWS)]
    assert ours.getstate() == reference.getstate()


@pytest.mark.parametrize("size", range(1, MAX_ARTISTS + 1))
@pytest.mark.parametrize("seed", SEEDS)
def test_randbelow_draws_as_choice(size, seed):
    items = [f"x{i}" for i in range(size)]
    ours, reference = twins(seed)
    assert [items[_below(ours.getrandbits, len(items))] for _ in range(DRAWS)] == \
        [reference.choice(items) for _ in range(DRAWS)]
    assert ours.getstate() == reference.getstate()


@pytest.mark.parametrize("n", range(2, MAX_ARTISTS + 1))
@pytest.mark.parametrize("seed", SEEDS)
def test_pair_draws_as_sample(n, seed):
    ours, reference = twins(seed)
    assert [_pair(ours.getrandbits, n) for _ in range(DRAWS)] == \
        [tuple(reference.sample(range(n), 2)) for _ in range(DRAWS)]
    assert ours.getstate() == reference.getstate()


def reference_rows(rng, min_n=1, min_m=1, zero_chance=0.35):
    """``axioms._random_rows`` drawn through the ``random`` methods it replaces."""
    n, m = rng.randint(min_n, MAX_ARTISTS), rng.randint(min_m, MAX_USERS)
    max_entry = HEAVY_ENTRY if rng.random() < HEAVY_CHANCE else MAX_ENTRY
    rows = [[0 if rng.random() < zero_chance else rng.randint(1, max_entry) for _ in range(m)]
            for _ in range(n)]
    for j in range(m):
        if not any(row[j] for row in rows):
            rows[rng.randrange(n)][j] = rng.randint(1, max_entry)
    return rows


@pytest.mark.parametrize("shape", [{}, {"min_m": 2}, {"min_n": 2, "zero_chance": 0.15}])
@pytest.mark.parametrize("seed", SEEDS)
def test_random_rows_draw_as_randint(shape, seed):
    ours, reference = twins(seed)
    assert [_random_rows(ours, **shape) for _ in range(DRAWS)] == \
        [reference_rows(reference, **shape) for _ in range(DRAWS)]
    assert ours.getstate() == reference.getstate()
