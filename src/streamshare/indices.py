"""Popularity indices and the proportional reward map.

All arithmetic is exact (``fractions.Fraction``), so equalities such as
budget balance hold with zero tolerance. Indices are returned in their
canonical un-normalized form; normalization to the revenue total happens
only in :func:`rewards`.

Every index is a sum over users of an integer numerator per artist divided
by a per-user denominator: the listening-set size (shapley, user-weighted),
the stream total (user-centric) or the weight sum (artist-weighted). The
kernels walk the sparse columns ``Problem.columns`` once, user by user, so
they cost O(nnz); they add the integer numerators of users that share a
denominator, and build one ``Fraction`` per artist over the lcm of the
distinct denominators. Nothing goes through floats, which would break the
exact equalities the axiom checks rely on.
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


@dataclass(frozen=True)
class IndexVector:
    """Per-artist importance scores, aligned with ``Problem.artists``."""

    artists: tuple[str, ...]
    values: tuple[Fraction, ...]

    def __getitem__(self, artist: str) -> Fraction:
        return self.values[self.artists.index(artist)]

    @property
    def total(self) -> Fraction:
        return exact_sum(self.values)


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
    return IndexVector(p.artists, tuple(map(Fraction, totals)))


def user_centric_index(p: Problem) -> IndexVector:
    """Each user's unit subscription split in proportion to that user's streams."""
    groups = defaultdict(lambda: [0] * p.n)
    for idx, counts in p.columns:
        acc = groups[sum(counts)]
        for i, x in zip(idx, counts):
            acc[i] += x
    return _combine(p, groups)


def active_uniform_index(p: Problem) -> IndexVector:
    """Revenue split equally among the artists with at least one fan."""
    active = set(chain.from_iterable(idx for idx, _ in p.columns))
    share = Fraction(p.m, len(active))
    zero = Fraction(0)
    return IndexVector(p.artists, tuple(share if i in active else zero for i in range(p.n)))


def uniform_index(p: Problem) -> IndexVector:
    """Revenue split equally among all artists, streamed or not."""
    share = Fraction(p.m, p.n)
    return IndexVector(p.artists, tuple(share for _ in p.artists))


def user_weighted_index(p: Problem, weights: Mapping[str, Fraction]) -> IndexVector:
    """Equal split of a per-user weight among the artists that user streamed."""
    w = _check_weights(weights, p.users, "user")
    scale, iw = common_numerators([w[u] for u in p.users])
    return _equal_split(p, iw, scale)


def artist_weighted_index(p: Problem, weights: Mapping[str, Fraction]) -> IndexVector:
    """Each user's unit split among streamed artists in proportion to artist weights."""
    w = _check_weights(weights, p.artists, "artist")
    _, iw = common_numerators([w[a] for a in p.artists])
    groups = defaultdict(lambda: [0] * p.n)
    for idx, _ in p.columns:
        ws = [iw[i] for i in idx]
        acc = groups[sum(ws)]
        for i, w in zip(idx, ws):
            acc[i] += w
    return _combine(p, groups)


def _equal_split(p: Problem, numerators: list[int], scale: int) -> IndexVector:
    """Split ``numerators[j] / scale`` equally among the artists user ``j`` streamed."""
    groups = defaultdict(lambda: [0] * p.n)
    for (idx, _), num in zip(p.columns, numerators):
        acc = groups[len(idx) * scale]
        for i in idx:
            acc[i] += num
    return _combine(p, groups)


def _combine(p: Problem, groups: Mapping[int, list[int]]) -> IndexVector:
    """Sum ``groups[d][i] / d`` over ``d`` for each artist ``i``, exactly.

    The numerators are brought over the lcm of the denominators, so the only
    ``Fraction`` built is the final one per artist.
    """
    common = math.lcm(*groups)
    totals = [0] * p.n
    for denom, acc in groups.items():
        scale = common // denom
        for i in compress(range(p.n), acc):
            totals[i] += acc[i] * scale
    return IndexVector(p.artists, tuple(Fraction(t, common) for t in totals))


def _check_weights(weights, ids, kind: str) -> dict[str, Fraction]:
    if weights is None:
        raise MissingWeights(f"{kind} weights are required")
    out = {}
    for ident in ids:
        if ident not in weights:
            raise MissingWeights(f"missing weight for {kind} {ident!r}")
        w = Fraction(weights[ident])
        if w <= 0:
            raise NonpositiveWeight(f"weight for {kind} {ident!r} must be positive")
        out[ident] = w
    return out


def rewards(index: IndexVector, p: Problem) -> tuple[Fraction, ...]:
    """Distribute the revenue total ``m`` proportionally to index values.

    The payouts align with ``index.artists`` and sum to ``p.m``; they are
    invariant under positive scaling of the index vector. Over the lcm of
    the denominators, value ``i`` is ``nums[i]`` and the total is
    ``sum(nums)``, so payout ``i`` is ``nums[i] * m / sum(nums)``: one
    ``Fraction`` per artist.
    """
    _, nums = common_numerators(index.values)
    total = sum(nums)
    if total <= 0:
        raise ZeroTotalIndex("index values sum to zero")
    m = p.m
    return tuple([Fraction(x * m, total) for x in nums])


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
    # Looked up at call time, so a kernel rebound on the module (for
    # instance by a tracer) is the one the rule calls.
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
    return IndexRule(name, lambda p: fn(p, {
        ident: default_weight(seed, kind, ident)
        for ident in (p.users if kind == "user" else p.artists)
    }))
