"""``axioms._random_rows`` draws through its own rejection loop ``_below``:
``a + _below(getrandbits, b - a + 1)`` for ``randint(a, b)`` and
``_below(getrandbits, n)`` for ``randrange(n)``. On a Python whose ``randint``
or ``randrange`` draws otherwise, these tests fail by name, ahead of the pinned
instance digests."""

import random

import pytest

from streamshare.axioms import HEAVY_ENTRY, MAX_ARTISTS, MAX_ENTRY, MAX_USERS, _below

# every randint(a, b) in _random_rows: the shape, with min_n and min_m of 1
# or 2 as the generators ask, and the entries, light and heavy
RANDINT_BOUNDS = sorted({(low, high) for low in (1, 2) for high in (MAX_ARTISTS, MAX_USERS)}
                        | {(1, MAX_ENTRY), (1, HEAVY_ENTRY)})
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
