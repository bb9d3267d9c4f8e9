"""Popularity indices and the proportional reward map.

All arithmetic is exact (integers and ``fractions.Fraction``), so
equalities such as budget balance hold with zero tolerance. Indices are
returned in their
canonical un-normalized form; normalization to the revenue total happens
only in :func:`rewards`.

Every index is a sum over users of an integer numerator per artist divided
by a per-user denominator: the listening-set size (shapley, user-weighted),
the stream total (user-centric) or the weight sum (artist-weighted). The
kernels walk the sparse columns ``Problem.columns`` once, user by user, so
they cost O(nnz); they add the integer numerators of users that share a
denominator, and return the per-artist numerators over the lcm of the
distinct denominators (:class:`IndexVector`), building no ``Fraction``.
Nothing goes through floats, which would break the exact equalities the
axiom checks rely on.
"""

from __future__ import annotations

import math
import random
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain, compress
from typing import Callable, Mapping

from .core import Problem


class ZeroTotalIndex(ValueError):
    pass


class MissingWeights(ValueError):
    pass


class NonpositiveWeight(ValueError):
    pass


class UnknownRule(ValueError):
    pass


@dataclass(frozen=True, slots=True)
class IndexVector:
    """Per-artist importance scores, aligned with ``Problem.artists``.

    Held as integers over one common denominator: value ``i`` is
    ``nums[i] / common`` exactly, with ``common`` positive; ``values`` gives
    the same scores as ``Fraction``s. The numerators are not reduced, so
    equality, hashing and ``repr`` go by ``artists`` and ``values``.
    """

    artists: tuple[str, ...]
    nums: tuple[int, ...]
    common: int

    @property
    def values(self) -> tuple[Fraction, ...]:
        common = self.common
        return tuple([Fraction(x, common) for x in self.nums])

    def __getitem__(self, artist: str) -> Fraction:
        return Fraction(self.nums[self.artists.index(artist)], self.common)

    @property
    def total(self) -> Fraction:
        return Fraction(sum(self.nums), self.common)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.artists == other.artists and self.values == other.values

    def __hash__(self):
        return hash((self.artists, self.values))

    def __repr__(self):
        return f"IndexVector(artists={self.artists!r}, values={self.values!r})"


def exact_sum(values) -> Fraction:
    """The sum of ``values`` as one ``Fraction``: integers added over the lcm of the denominators."""
    common, nums = common_numerators(values)
    return Fraction(sum(nums), common)


def common_numerators(values) -> tuple[int, list[int]]:
    """Return ``(common, nums)`` with ``values[i] == nums[i] / common`` exactly.

    ``common`` is the lcm of the denominators.
    """
    common = math.lcm(*(v.denominator for v in values))
    return common, [v.numerator * (common // v.denominator) for v in values]


def shapley_index(p: Problem) -> IndexVector:
    """Each user's unit subscription split equally among the artists they streamed."""
    return _equal_split(p, [1] * p.m, 1)


def pro_rata_index(p: Problem) -> IndexVector:
    """Raw total stream counts per artist."""
    totals = [0] * p.n
    for idx, counts in p.columns:
        for i, x in zip(idx, counts):
            totals[i] += x
    return IndexVector(p.artists, tuple(totals), 1)


def user_centric_index(p: Problem) -> IndexVector:
    """Each user's unit subscription split in proportion to that user's streams."""
    n = p.n
    groups = defaultdict(lambda: [0] * n)
    for idx, counts in p.columns:
        acc = groups[sum(counts)]
        for i, x in zip(idx, counts):
            acc[i] += x
    return _combine(p, n, groups)


def active_uniform_index(p: Problem) -> IndexVector:
    """Revenue split equally among the artists with at least one fan."""
    active = set(chain.from_iterable(idx for idx, _ in p.columns))
    m = p.m
    nums = tuple([m if i in active else 0 for i in range(p.n)])
    return IndexVector(p.artists, nums, len(active))


def uniform_index(p: Problem) -> IndexVector:
    """Revenue split equally among all artists, streamed or not."""
    n = p.n
    return IndexVector(p.artists, (p.m,) * n, n)


def user_weighted_index(p: Problem, weights: Mapping[str, Fraction]) -> IndexVector:
    """Equal split of a per-user weight among the artists that user streamed."""
    scale, iw = common_numerators(_check_weights(weights, p.users, "user"))
    return _equal_split(p, iw, scale)


def artist_weighted_index(p: Problem, weights: Mapping[str, Fraction]) -> IndexVector:
    """Each user's unit split among streamed artists in proportion to artist weights."""
    _, iw = common_numerators(_check_weights(weights, p.artists, "artist"))
    return _weighted_split(p, iw)


def _weighted_split(p: Problem, weights) -> IndexVector:
    """Each user's unit split among streamed artists in proportion to integer ``weights[i]``."""
    n = p.n
    groups = defaultdict(lambda: [0] * n)
    for idx, _ in p.columns:
        ws = [weights[i] for i in idx]
        acc = groups[sum(ws)]
        for i, w in zip(idx, ws):
            acc[i] += w
    return _combine(p, n, groups)


def _equal_split(p: Problem, numerators: list[int], scale: int) -> IndexVector:
    """Split ``numerators[j] / scale`` equally among the artists user ``j`` streamed."""
    n = p.n
    groups = defaultdict(lambda: [0] * n)
    for (idx, _), num in zip(p.columns, numerators):
        acc = groups[len(idx) * scale]
        for i in idx:
            acc[i] += num
    return _combine(p, n, groups)


def _combine(p: Problem, n: int, groups: Mapping[int, list[int]]) -> IndexVector:
    """Sum ``groups[d][i] / d`` over ``d`` for each of the ``n`` artists, exactly.

    The numerators are brought over the lcm of the denominators, which
    becomes the vector's ``common``, so no ``Fraction`` is built.
    """
    common = math.lcm(*groups)
    totals = [0] * n
    for denom, acc in groups.items():
        scale = common // denom
        for i in compress(range(n), acc):
            totals[i] += acc[i] * scale
    return IndexVector(p.artists, tuple(totals), common)


def _check_weights(weights, ids, kind: str) -> list[Fraction]:
    if weights is None:
        raise MissingWeights(f"{kind} weights are required")
    out = []
    for ident in ids:
        if ident not in weights:
            raise MissingWeights(f"missing weight for {kind} {ident!r}")
        w = Fraction(weights[ident])
        if w <= 0:
            raise NonpositiveWeight(f"weight for {kind} {ident!r} must be positive")
        out.append(w)
    return out


def rewards(index: IndexVector, p: Problem) -> tuple[Fraction, ...]:
    """Distribute the revenue total ``m`` proportionally to index values.

    The payouts align with ``index.artists`` and sum to ``p.m``; they are
    invariant under positive scaling of the index vector. Value ``i`` is
    ``nums[i] / common``, so payout ``i`` is ``nums[i] * m / sum(nums)``:
    one ``Fraction`` per artist.
    """
    nums, total = reward_shares(index)
    m = p.m
    return tuple([Fraction(x * m, total) for x in nums])


def reward_shares(index: IndexVector) -> tuple[tuple[int, ...], int]:
    """``(nums, total)`` of ``index``: payout ``i`` is ``nums[i] * m / total``.

    Raises :class:`ZeroTotalIndex` unless ``total`` is positive, as
    :func:`rewards` does.
    """
    nums = index.nums
    total = sum(nums)
    if total <= 0:
        raise ZeroTotalIndex("index values sum to zero")
    return nums, total


# ---------------------------------------------------------------------------
# Named rules
#
# A rule bundles an index with a name so audits and reports can refer to it.
# The two weighted rules draw default weights per identifier from a fixed
# seed, so the same user (or artist) keeps the same weight across reduced and
# split problems.

@dataclass(frozen=True)
class IndexRule:
    name: str
    fn: Callable[[Problem], IndexVector]

    def __call__(self, p: Problem) -> IndexVector:
        return self.fn(p)


TABLE_RULE_NAMES = ("shapley", "pro-rata", "user-centric")
ALL_RULE_NAMES = TABLE_RULE_NAMES + (
    "active-uniform", "uniform", "user-weighted", "artist-weighted",
)


@lru_cache(maxsize=1 << 16)
def default_weight(seed: int, kind: str, ident: str) -> int:
    """Deterministic positive weight for one identifier, independent of context.

    Memoized: seeding a ``random.Random`` from a string costs far more than
    the lookup, and audits ask for the same few identifiers on every trial.
    """
    return random.Random(f"{kind}:{seed}:{ident}").randint(1, 97)


def make_rule(name: str, seed: int = 0, weights: Mapping[str, Fraction] | None = None) -> IndexRule:
    """Build a named rule; ``weights`` overrides the seeded defaults where applicable."""
    # Looked up at call time, so a kernel rebound on the module (for instance
    # by a tracer) is the one the rule calls, bar the seeded weighted rules.
    fn = {
        "shapley": shapley_index,
        "pro-rata": pro_rata_index,
        "user-centric": user_centric_index,
        "active-uniform": active_uniform_index,
        "uniform": uniform_index,
        "user-weighted": user_weighted_index,
        "artist-weighted": artist_weighted_index,
    }.get(name)
    if fn is None:
        raise UnknownRule(f"unknown index rule {name!r}")
    kind = {"user-weighted": "user", "artist-weighted": "artist"}.get(name)
    if kind is None:
        return IndexRule(name, fn)
    if weights is not None:
        return IndexRule(name, lambda p: fn(p, weights))
    # seeded defaults are positive ints, bound once per id tuple: nothing to check or scale
    defaults = lru_cache(256)(lambda ids: tuple([default_weight(seed, kind, i) for i in ids]))
    if kind == "user":
        return IndexRule(name, lambda p: _equal_split(p, defaults(p.users), 1))
    return IndexRule(name, lambda p: _weighted_split(p, defaults(p.artists)))
