"""Popularity indices and the proportional reward map.

All arithmetic is exact (integers and ``fractions.Fraction``), so
equalities such as budget balance hold with zero tolerance. Indices are
returned in their canonical un-normalized form. The payout rule, the factor
``m`` included, is written once, in :func:`reward_shares`; :func:`rewards`,
the reports and the axiom checks all pay through it, and print an exact
number through :func:`_ratio`.

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
from fractions import Fraction
from functools import lru_cache
from itertools import chain, compress
from operator import attrgetter
from typing import Callable, Mapping, NamedTuple

from .core import Problem


class ZeroTotalIndex(ValueError):
    pass


class UnknownRule(ValueError):
    pass


class IndexVector(NamedTuple):
    """Per-artist importance scores, aligned with ``Problem.artists``.

    Held as integers over one common denominator: value ``i`` is
    ``nums[i] / common`` exactly, with ``common`` positive; ``values`` gives
    the same scores as ``Fraction``s. The numerators are not reduced, so
    equality, hashing and ``repr`` go by ``artists`` and ``values``, and
    ``vec[artist]`` is the artist's score, not a field.
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

    def __ne__(self, other):  # not tuple.__ne__, which compares the raw fields
        return not self == other

    def __hash__(self):
        return hash((self.artists, self.values))

    def __repr__(self):
        return f"IndexVector(artists={self.artists!r}, values={self.values!r})"


def shapley_index(p: Problem) -> IndexVector:
    """Each user's unit subscription split equally among the artists they streamed."""
    return _equal_split(p, [1] * p.m)


def pro_rata_index(p: Problem) -> IndexVector:
    """Raw total stream counts per artist."""
    totals = [0] * p.n
    for idx, counts in p.columns:
        for i, x in zip(idx, counts):
            totals[i] += x
    return IndexVector(p.artists, tuple(totals), 1)


def user_centric_index(p: Problem) -> IndexVector:
    """Each user's unit subscription split in proportion to that user's streams."""
    return _proportional(p, p.columns)


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


def user_weighted_index(p: Problem, weights) -> IndexVector:
    """Equal split of positive integer ``weights[j]`` among the artists user ``j`` streamed."""
    return _equal_split(p, weights)


def artist_weighted_index(p: Problem, weights) -> IndexVector:
    """Each user's unit split among streamed artists in proportion to integer ``weights[i]``."""
    return _proportional(p, ((idx, [weights[i] for i in idx]) for idx, _ in p.columns))


def _proportional(p: Problem, shares) -> IndexVector:
    """Split user ``j``'s unit among the artists ``idx`` in proportion to the
    positive integers ``parts``, for the ``j``-th ``(idx, parts)`` of ``shares``."""
    n = p.n
    groups = defaultdict(lambda: [0] * n)
    for idx, parts in shares:
        acc = groups[sum(parts)]
        for i, x in zip(idx, parts):
            acc[i] += x
    return _combine(p, n, groups)


def _equal_split(p: Problem, numerators: list[int]) -> IndexVector:
    """Split ``numerators[j]`` equally among the artists user ``j`` streamed."""
    n = p.n
    groups = defaultdict(lambda: [0] * n)
    for (idx, _), num in zip(p.columns, numerators):
        acc = groups[len(idx)]
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


def rewards(index: IndexVector, p: Problem) -> tuple[Fraction, ...]:
    """Distribute the revenue total ``m`` proportionally to index values.

    The payouts align with ``index.artists`` and sum to ``p.m``; they are
    invariant under positive scaling of the index vector. One ``Fraction``
    per artist, by the rule of :func:`reward_shares`.
    """
    pays, total = reward_shares(index, p.m)
    return tuple([Fraction(x, total) for x in pays])


def reward_shares(index: IndexVector, m: int) -> tuple[tuple[int, ...], int]:
    """``(pays, total)``: revenue ``m`` paid in proportion to ``index``.

    Value ``i`` is ``nums[i] / common``, so payout ``i`` is
    ``nums[i] * m / sum(nums)``; ``pays[i]`` is ``nums[i] * m`` and ``total``
    is ``sum(nums)``. Raises :class:`ZeroTotalIndex` unless ``total`` is
    positive.
    """
    nums = index.nums
    total = sum(nums)
    if total <= 0:
        raise ZeroTotalIndex("index values sum to zero")
    return tuple([x * m for x in nums]), total


def _ratio(num: int, den: int) -> str:
    """``str(Fraction(num, den))`` for ``den > 0``: lowest terms, "/1" left out."""
    g = math.gcd(num, den)
    return str(num // g) if den == g else f"{num // g}/{den // g}"


# ---------------------------------------------------------------------------
# Named rules
#
# A rule bundles an index with a name so audits and reports can refer to it.
# The two weighted rules draw default weights per identifier from a fixed
# seed, so the same user (or artist) keeps the same weight across reduced and
# split problems.

class IndexRule(NamedTuple):
    name: str
    fn: Callable[[Problem], IndexVector]

    def __call__(self, p: Problem) -> IndexVector:
        return self.fn(p)


# rule name -> (the name of its kernel in this module, whose ids its seeded
# weights follow: "user", "artist" or None); the three table indices first
RULES = {
    "shapley": ("shapley_index", None),
    "pro-rata": ("pro_rata_index", None),
    "user-centric": ("user_centric_index", None),
    "active-uniform": ("active_uniform_index", None),
    "uniform": ("uniform_index", None),
    "user-weighted": ("user_weighted_index", "user"),
    "artist-weighted": ("artist_weighted_index", "artist"),
}
ALL_RULE_NAMES = tuple(RULES)
TABLE_RULE_NAMES = ALL_RULE_NAMES[:3]


def default_weight(seed: int, kind: str, ident: str) -> int:
    """Deterministic positive weight for one identifier, independent of context."""
    return random.Random(f"{kind}:{seed}:{ident}").randint(1, 97)


@lru_cache(maxsize=256)
def _weights(seed: int, kind: str, ids: tuple[str, ...]) -> tuple[int, ...]:
    """The :func:`default_weight` of each id, memoized per id tuple.

    Seeding a ``random.Random`` from a string costs far more than the lookup,
    and audits ask for the same few id tuples on every trial, under every rule.
    """
    return tuple([default_weight(seed, kind, i) for i in ids])


def make_rule(name: str, seed: int = 0) -> IndexRule:
    """Build a named rule; the weighted ones use the seeded :func:`default_weight`s."""
    try:
        kernel, kind = RULES[name]
    except KeyError:
        raise UnknownRule(f"unknown index rule {name!r}") from None
    # Looked up when the rule is made, so a kernel rebound on the module (for
    # instance by a tracer) before then is the one the rule calls.
    fn = globals()[kernel]
    if kind is None:
        return IndexRule(name, fn)
    ids = attrgetter(kind + "s")  # p.users or p.artists
    return IndexRule(name, lambda p: fn(p, _weights(seed, kind, ids(p))))
