"""The audit's instance generators draw every integer with ``random.Random``'s
own methods: ``a + randrange(b - a + 1)`` for an integer in ``[a, b]``,
``randrange(n)``, ``choice(seq)`` and ``sample(range(n), 2)``. The pinned
digests of ``tests/golden/instances.json`` hold only if each of these draws as
``randint`` and as the rejection loop over ``getrandbits`` that CPython 3.10-3.13
run. ``randbelow`` and ``pair`` below spell that loop out, an independent
reference: each test draws the same values and leaves the generator in the
same state. So does ``axioms._random_rows``, which every generator starts
from, against ``reference_rows``, spelled with ``randint``. On a Python whose
``random`` draws otherwise, these tests fail by name, ahead of the digests."""

import random

import pytest

from streamshare.axioms import (HEAVY_CHANCE, HEAVY_ENTRY, MAX_ARTISTS, MAX_ENTRY, MAX_USERS,
                                _random_rows)

pytestmark = pytest.mark.oracle

# every integer range the generators draw from: the shape in _random_rows,
# with min_n and min_m of 1 or 2 as the generators ask; the entries, light
# and heavy; and the bumps, increments (from 0 too) and scales of the
# axiom-specific generators
RANDINT_BOUNDS = sorted({(low, high) for low in (1, 2) for high in (MAX_ARTISTS, MAX_USERS)}
                        | {(1, MAX_ENTRY), (1, HEAVY_ENTRY), (1, 2), (1, 3), (2, 50),
                           (0, 2), (0, MAX_ENTRY)})
SEEDS = [0, 1, 2**64 + 3, "7|additivity|shapley", "42|click_fraud_proofness|uniform"]
DRAWS = 400


def twins(seed):
    return random.Random(seed), random.Random(seed)


def randbelow(getrandbits, n):
    """A draw from ``range(n)``: ``n.bit_length()`` random bits, drawn again while too big."""
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def pair(getrandbits, n):
    """Two distinct draws from ``range(n)``, as ``sample``'s pool path makes them for small n."""
    i, k = randbelow(getrandbits, n), randbelow(getrandbits, n - 1)
    return i, n - 1 if k == i else k


@pytest.mark.parametrize("a, b", RANDINT_BOUNDS)
@pytest.mark.parametrize("seed", SEEDS)
def test_randbelow_draws_as_randint(a, b, seed):
    ours, reference = twins(seed)
    assert [a + ours.randrange(b - a + 1) for _ in range(DRAWS)] == \
        [reference.randint(a, b) for _ in range(DRAWS)]
    assert [a + randbelow(ours.getrandbits, b - a + 1) for _ in range(DRAWS)] == \
        [reference.randint(a, b) for _ in range(DRAWS)]
    assert ours.getstate() == reference.getstate()


@pytest.mark.parametrize("n", range(1, MAX_ARTISTS + 1))
@pytest.mark.parametrize("seed", SEEDS)
def test_randbelow_draws_as_randrange(n, seed):
    ours, reference = twins(seed)
    assert [ours.randrange(n) for _ in range(DRAWS)] == \
        [randbelow(reference.getrandbits, n) for _ in range(DRAWS)]
    assert ours.getstate() == reference.getstate()


@pytest.mark.parametrize("size", range(1, MAX_ARTISTS + 1))
@pytest.mark.parametrize("seed", SEEDS)
def test_randbelow_draws_as_choice(size, seed):
    items = [f"x{i}" for i in range(size)]
    ours, reference = twins(seed)
    assert [ours.choice(items) for _ in range(DRAWS)] == \
        [items[randbelow(reference.getrandbits, len(items))] for _ in range(DRAWS)]
    assert ours.getstate() == reference.getstate()


@pytest.mark.parametrize("n", range(2, MAX_ARTISTS + 1))
@pytest.mark.parametrize("seed", SEEDS)
def test_pair_draws_as_sample(n, seed):
    ours, reference = twins(seed)
    assert [tuple(ours.sample(range(n), 2)) for _ in range(DRAWS)] == \
        [pair(reference.getrandbits, n) for _ in range(DRAWS)]
    assert ours.getstate() == reference.getstate()


def reference_rows(rng, min_n=1, min_m=1, zero_chance=0.35):
    """``axioms._random_rows`` spelled with ``randint``."""
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
