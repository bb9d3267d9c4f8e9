"""Coalition games over artists: pessimistic and optimistic worth, duality,
and one definition-level Shapley oracle that averages over all player orders.

Coalitions are bitmasks over artist positions (artist at position ``k`` is bit
``k``); the worth function is materialized eagerly as a table of length 2^n.
Worth tables are exact integers for the constructed games, and the Shapley
oracle returns exact integer numerators over n!.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import permutations

from .core import Problem
from .indices import IndexVector

DEFAULT_TABLE_CAP = 20
# The Shapley oracle walks all n! player orders; 10! is 3.6 million of them.
MAX_PERMUTATION_ARTISTS = 10
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
    return CoalitionGame(p.artists, tuple(_user_mask_counts(p)))


def optimistic_game(p: Problem, cap: int = DEFAULT_TABLE_CAP) -> CoalitionGame:
    """worth(S) = number of users who streamed at least one artist in S."""
    _check_cap(p, cap)
    # worth(S) = m - counts[N \ S], and N \ S runs down the table as S runs
    # up; counts[N] == m, so the empty coalition gets 0.
    m = p.m
    worth = tuple(m - c for c in reversed(_user_mask_counts(p)))
    return CoalitionGame(p.artists, worth)


def dual_game(g: CoalitionGame) -> CoalitionGame:
    """worth*(S) = worth(N) - worth(N \\ S); an involution on games."""
    grand = g.worth[-1]
    worth = tuple(grand - w for w in reversed(g.worth))  # N \ S, S ascending
    return CoalitionGame(g.players, worth)


def shapley_value_brute_force(g: CoalitionGame) -> IndexVector:
    """Shapley value straight from the definition: each player's marginal
    contribution averaged over all n! player orders."""
    n = len(g.players)
    if n > MAX_PERMUTATION_ARTISTS:
        raise TooManyArtists(
            f"{n} artists exceeds the permutation cap {MAX_PERMUTATION_ARTISTS}"
        )
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
