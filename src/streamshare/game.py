"""Coalition games over artists: pessimistic and optimistic worth, duality,
and a definition-level Shapley oracle.

Coalitions are bitmasks over artist positions (artist at position ``k`` is bit
``k``); the worth function is materialized eagerly as a table of length 2^n.
Worth tables are exact integers for the constructed games, and the Shapley
oracle returns exact fractions.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import permutations

from .core import Problem
from .indices import IndexVector

DEFAULT_TABLE_CAP = 20
DEFAULT_PERMUTATION_CAP = 10
# No cap override builds a worth table for more artists than this. An export
# costs about 130 bytes per coalition (55 MB peak for the dual game of 18
# artists, CPython 3.11), so 2^22 coalitions already take about half a GB.
MAX_TABLE_ARTISTS = 22


class TooManyArtists(ValueError):
    pass


@dataclass(frozen=True)
class CoalitionGame:
    players: tuple[str, ...]
    worth: tuple[int, ...]
    stance: str

    @property
    def n(self) -> int:
        return len(self.players)

    def value(self, members) -> int:
        """Worth of a coalition given as an iterable of player identifiers."""
        mask = 0
        for a in members:
            mask |= 1 << self.players.index(a)
        return self.worth[mask]


def _user_mask_counts(p: Problem) -> list[int]:
    """counts[S] = number of users whose whole listening list lies inside S."""
    size = 1 << p.n
    counts = [0] * size
    for idx, _ in p.columns:
        mask = 0
        for i in idx:
            mask |= 1 << i
        counts[mask] += 1
    # subset-sum (zeta) transform: for each bit, add every coalition without
    # the bit into the one with it, by slices: ``bit`` strided slices or
    # ``size / (2 * bit)`` contiguous blocks, whichever are fewer.
    for b in range(p.n):
        bit = 1 << b
        step = bit << 1
        if bit <= size // step:
            for lo in range(bit):
                hi = slice(lo + bit, size, step)
                counts[hi] = map(operator.add, counts[hi], counts[lo:size:step])
        else:
            for lo in range(0, size, step):
                hi = slice(lo + bit, lo + step)
                counts[hi] = map(operator.add, counts[hi], counts[lo:lo + bit])
    return counts


def _check_cap(p: Problem, cap: int):
    if p.n > MAX_TABLE_ARTISTS:
        raise TooManyArtists(
            f"{p.n} artists exceeds the ceiling of {MAX_TABLE_ARTISTS} artists "
            f"for a 2^n worth table, whatever the cap"
        )
    if p.n > cap:
        raise TooManyArtists(f"{p.n} artists exceeds the enumeration cap {cap}")


def pessimistic_game(p: Problem, cap: int = DEFAULT_TABLE_CAP) -> CoalitionGame:
    """worth(S) = number of users who streamed only artists in S."""
    _check_cap(p, cap)
    return CoalitionGame(p.artists, tuple(_user_mask_counts(p)), "pessimistic")


def optimistic_game(p: Problem, cap: int = DEFAULT_TABLE_CAP) -> CoalitionGame:
    """worth(S) = number of users who streamed at least one artist in S."""
    _check_cap(p, cap)
    # worth(S) = m - counts[N \ S], and N \ S runs down the table as S runs
    # up; counts[N] == m, so the empty coalition gets 0.
    m = p.m
    worth = tuple(m - c for c in reversed(_user_mask_counts(p)))
    return CoalitionGame(p.artists, worth, "optimistic")


def dual_game(g: CoalitionGame) -> CoalitionGame:
    """worth*(S) = worth(N) - worth(N \\ S); an involution on games."""
    grand = g.worth[-1]
    worth = tuple(grand - w for w in reversed(g.worth))  # N \ S, S ascending
    return CoalitionGame(g.players, worth, f"dual-of-{g.stance}")


def shapley_value_brute_force(
    g: CoalitionGame,
    method: str = "auto",
    permutation_cap: int = DEFAULT_PERMUTATION_CAP,
    table_cap: int = DEFAULT_TABLE_CAP,
) -> IndexVector:
    """Shapley value straight from the definition.

    ``permutation`` averages marginal contributions over all n! player orders
    (the literal definition); ``subset`` uses the equivalent subset-weighted
    sum, which reaches larger n. ``auto`` picks permutation up to
    ``permutation_cap`` and subset up to ``table_cap``.
    """
    n = g.n
    if method == "auto":
        method = "permutation" if n <= permutation_cap else "subset"
    if method == "permutation":
        if n > permutation_cap:
            raise TooManyArtists(
                f"{n} artists exceeds the permutation cap {permutation_cap}"
            )
        return _shapley_permutations(g)
    if method == "subset":
        if n > table_cap:
            raise TooManyArtists(f"{n} artists exceeds the enumeration cap {table_cap}")
        return _shapley_subsets(g)
    raise ValueError(f"unknown method {method!r}")


def _shapley_permutations(g: CoalitionGame) -> IndexVector:
    n = g.n
    totals = [0] * n
    worth = g.worth
    for order in permutations(range(n)):
        mask = 0
        prev = 0
        for i in order:
            mask |= 1 << i
            w = worth[mask]
            totals[i] += w - prev
            prev = w
    return IndexVector(g.players, tuple(totals), math.factorial(n))


def _shapley_subsets(g: CoalitionGame) -> IndexVector:
    n = g.n
    worth = g.worth
    fact = math.factorial
    # per-player, per-coalition-size integer sums of marginal contributions
    sums = [[0] * n for _ in range(n)]
    for s in range(1 << n):
        size = s.bit_count()
        ws = worth[s]
        for i in range(n):
            bit = 1 << i
            if not s & bit:
                sums[i][size] += worth[s | bit] - ws
    nums = tuple(
        sum(fact(size) * fact(n - size - 1) * sums[i][size] for size in range(n))
        for i in range(n)
    )
    return IndexVector(g.players, nums, fact(n))
