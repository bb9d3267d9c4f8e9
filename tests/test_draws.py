"""The audit's instance generator draws every integer with ``random.Random``'s
own methods: ``a + randrange(b - a + 1)`` for an integer in ``[a, b]``,
``randrange(n)``, ``choice(seq)`` and ``sample(range(n), 2)``. The pinned
digests of ``tests/golden/instances.json`` hold only if each of these draws as
``randint`` and as the rejection loop over ``getrandbits`` that CPython 3.10-3.13
run. ``randbelow`` and ``pair`` below spell that loop out, an independent
reference: each test draws the same values and leaves the generator in the
same state. So does ``axioms._random_rows``, the planted problem every trial
expands, against ``reference_rows``, spelled with ``randint``. On a Python whose
``random`` draws otherwise, these tests fail by name, ahead of the digests."""

import random

import pytest

from streamshare.axioms import (HEAVY_CHANCE, HEAVY_ENTRY, MAX_ARTISTS, MAX_ENTRY, MAX_USERS,
                                ZERO_CHANCE, _random_rows)

pytestmark = pytest.mark.oracle

# every integer range _random_rows draws from: the shape; the entries, light and
# heavy; the multiplier of a proportional pair and the increments of a dominating row
RANDINT_BOUNDS = sorted({(1, MAX_ARTISTS), (1, MAX_USERS), (1, MAX_ENTRY), (1, HEAVY_ENTRY),
                         (2, 3), (0, 2)})
# every count of instances an axiom's expand makes of a random problem, which
# generate_instance chooses from: up to 14 user splits, or three column changes per user
CHOICE_SIZES = range(1, 3 * MAX_USERS + 1)
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


@pytest.mark.parametrize("size", CHOICE_SIZES)
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


def reference_rows(rng):
    """``axioms._random_rows`` spelled with ``randint``."""
    while True:
        n, m = rng.randint(1, MAX_ARTISTS), rng.randint(1, MAX_USERS)
        max_entry = HEAVY_ENTRY if rng.random() < HEAVY_CHANCE else MAX_ENTRY
        rows = [[0 if rng.random() < ZERO_CHANCE else rng.randint(1, max_entry)
                 for _ in range(m)] for _ in range(n)]
        plant = rng.random() if n >= 2 else 1
        if plant < 0.6:
            i, k = rng.sample(range(n), 2)
            if plant < 0.2:  # equal fan sets
                rows[k] = [rng.randint(1, max_entry) if x else 0 for x in rows[i]]
            elif plant < 0.4:  # proportional
                scale = rng.randint(2, 3)
                rows[k] = [scale * x for x in rows[i]]
            else:  # row k dominates row i
                rows[k] = [x + rng.randint(0, 2) for x in rows[i]]
        elif plant < 0.7:  # a null artist
            rows[rng.randint(0, n - 1)] = [0] * m
        users = [j for j in range(m) if any(row[j] for row in rows)]
        if users:
            return [tuple(row[j] for j in users) for row in rows]


@pytest.mark.parametrize("seed", SEEDS)
def test_random_rows_draw_as_randint(seed):
    ours, reference = twins(seed)
    assert [_random_rows(ours) for _ in range(DRAWS)] == \
        [reference_rows(reference) for _ in range(DRAWS)]
    assert ours.getstate() == reference.getstate()
