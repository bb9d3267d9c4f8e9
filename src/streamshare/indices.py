"""Popularity indices and the proportional reward map.

All arithmetic is exact (integers and ``fractions.Fraction``), so
equalities such as budget balance hold with zero tolerance. Indices are
returned in their canonical un-normalized form. The payout rule, the factor
``m`` included, is written once, in :func:`reward_shares`; the reports and the
axiom checks pay through it, and print exact numbers through :func:`_ratio`.

Every index is a sum over users of an integer numerator per artist divided
by a per-user denominator d: the listening-set size (shapley, user-weighted),
the stream total (user-centric) or the weight sum (artist-weighted). A kernel
walks the sparse columns ``Problem.columns`` once, takes ``common``, the lcm
of the distinct d, and adds each numerator times ``common // d`` into one
per-artist list (:class:`IndexVector`), building no ``Fraction``: O(nnz)
steps. The equal split scales each nonzero; the proportional split first sums
the parts of users who share a d per artist, so an integer as large as
``common`` is multiplied once per (d, artist). Nothing goes through floats,
which would break the exact equalities the axiom checks rely on.
"""

import math
import random
from collections import namedtuple
from functools import lru_cache
from itertools import chain, repeat
from operator import attrgetter

from .core import Problem


class ZeroTotalIndex(ValueError):
    pass


class UnknownRule(ValueError):
    pass


class IndexVector(namedtuple("IndexVector", "artists nums common")):
    """Per-artist importance scores, aligned with ``Problem.artists``.

    Held as integers over one common denominator: value ``i`` is
    ``nums[i] / common`` exactly, with ``common`` positive; ``values`` gives
    the same scores as ``Fraction``s. The numerators are not reduced, so
    equality, hashing and ``repr`` go by ``artists`` and ``values`` (there is
    no order), and ``vec[artist]`` is the artist's score, not a field. The
    kernels build it by ``tuple.__new__``, skipping namedtuple's Python ``__new__``.
    """
    __slots__ = ()

    @property
    def values(self):
        from fractions import Fraction  # imported on use: starting the CLI needs none
        common = self.common
        return tuple([Fraction(x, common) for x in self.nums])

    def __getitem__(self, artist: str):
        from fractions import Fraction
        return Fraction(self.nums[self.artists.index(artist)], self.common)

    @property
    def total(self):
        from fractions import Fraction
        return Fraction(sum(self.nums), self.common)

    def __eq__(self, other):  # no plain tuple is equal, not even the raw fields
        if other.__class__ is not self.__class__:
            return False if isinstance(other, tuple) else NotImplemented
        return self.artists == other.artists and self.values == other.values

    def __ne__(self, other):  # not tuple.__ne__, which compares the raw fields
        return not self == other

    def __lt__(self, other):  # not tuple's order, which compares the raw fields
        raise TypeError("IndexVector values have no order")

    __le__ = __gt__ = __ge__ = __lt__

    def __hash__(self):
        return hash((self.artists, self.values))

    def __repr__(self):
        return f"IndexVector(artists={self.artists!r}, values={self.values!r})"


def shapley_index(p: Problem) -> IndexVector:
    """Each user's unit subscription split equally among the artists they streamed."""
    return _equal_split(p, repeat(1))


def pro_rata_index(p: Problem) -> IndexVector:
    """Raw total stream counts per artist."""
    totals = [0] * len(p.artists)
    for idx, counts in p.columns:
        for i, x in zip(idx, counts):
            totals[i] += x
    return tuple.__new__(IndexVector, (p.artists, tuple(totals), 1))


def user_centric_index(p: Problem) -> IndexVector:
    """Each user's unit subscription split in proportion to that user's streams."""
    return _proportional(p, p.columns)


def active_uniform_index(p: Problem) -> IndexVector:
    """Revenue split equally among the artists with at least one fan."""
    active = set(chain.from_iterable(idx for idx, _ in p.columns))
    m = len(p.users)
    nums = tuple([m if i in active else 0 for i in range(len(p.artists))])
    return tuple.__new__(IndexVector, (p.artists, nums, len(active)))


def uniform_index(p: Problem) -> IndexVector:
    """Revenue split equally among all artists, streamed or not."""
    n = len(p.artists)
    return tuple.__new__(IndexVector, (p.artists, (len(p.users),) * n, n))


def user_weighted_index(p: Problem, weights) -> IndexVector:
    """Equal split of positive integer ``weights[j]`` among the artists user ``j`` streamed."""
    return _equal_split(p, weights)


def artist_weighted_index(p: Problem, weights) -> IndexVector:
    """Each user's unit split among streamed artists in proportion to integer ``weights[i]``."""
    return _proportional(p, ((idx, [weights[i] for i in idx]) for idx, _ in p.columns))


def _proportional(p: Problem, shares) -> IndexVector:
    """Split user ``j``'s unit among the artists ``idx`` in proportion to the
    positive integers ``parts``, for the ``j``-th ``(idx, parts)`` of ``shares``.
    Parts with the same sum d are added per artist first, in small integers (a
    lone user's pairs, else an ``{artist: sum}`` dict), then scaled once."""
    groups = {}
    for idx, parts in shares:
        if (acc := groups.get(d := sum(parts))) is None:
            groups[d] = zip(idx, parts)
            continue
        if acc.__class__ is zip:
            acc = groups[d] = dict(acc)
        for i, x in zip(idx, parts):
            acc[i] = acc.get(i, 0) + x
    common = math.lcm(*groups)
    totals = [0] * len(p.artists)
    for d, acc in groups.items():
        scale = common // d
        for i, x in acc.items() if acc.__class__ is dict else acc:
            totals[i] += x * scale
    return tuple.__new__(IndexVector, (p.artists, tuple(totals), common))


def _equal_split(p: Problem, numerators) -> IndexVector:
    """Split the ``j``-th of ``numerators`` equally among the artists user ``j`` streamed."""
    common = math.lcm(*{len(idx) for idx, _ in p.columns})
    totals = [0] * len(p.artists)
    for (idx, _), num in zip(p.columns, numerators):
        share = num * (common // len(idx))
        for i in idx:
            totals[i] += share
    return tuple.__new__(IndexVector, (p.artists, tuple(totals), common))


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

class IndexRule(namedtuple("IndexRule", "name fn")):
    """A named index: ``fn`` maps a ``Problem`` to its ``IndexVector``."""
    __slots__ = ()

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
    """Deterministic positive weight for one identifier, independent of context. Its
    seed is encoded as ``random`` encodes a ``str``, but a lone surrogate is kept."""
    return random.Random(f"{kind}:{seed}:{ident}".encode("utf-8", "surrogatepass")).randint(1, 97)


@lru_cache(maxsize=256)
def _weights(seed: int, kind: str, ids: tuple[str, ...]) -> tuple[int, ...]:
    """The :func:`default_weight` of each id, memoized per id tuple.

    Seeding a ``random.Random`` from a string costs far more than the lookup,
    and audits ask for the same few id tuples on every trial, under every rule.
    """
    return tuple([default_weight(seed, kind, i) for i in ids])


def make_rule(name: str, seed: int = 42) -> IndexRule:
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
