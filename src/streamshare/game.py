"""Coalition games over artists: pessimistic and optimistic worth, duality,
and one definition-level Shapley oracle that averages over all player orders.

Coalitions are bitmasks over artist positions (artist at position ``k`` is bit
``k``); the worth function is materialized eagerly as a table of length 2^n,
built by n whole-integer passes over one packed integer (pessimistic), then
taken from m and read big-endian (optimistic, which equals the dual). Worth
tables are exact integers for the constructed games, and the Shapley oracle
returns exact numerators over n!.
"""

from __future__ import annotations

import math
import operator
import sys
from array import array
from dataclasses import dataclass
from itertools import permutations, repeat

from .core import Problem
from .indices import IndexVector

# The Shapley oracle walks all n! player orders; 10! is 3.6 million of them.
MAX_PERMUTATION_ARTISTS = 10
# No worth table is built for more artists than this. A text export costs
# about 100 bytes per coalition (CLI peak RSS, CPython 3.11: 40 MB for the
# dual game of 18 artists, 110 MB for 20), and each artist more doubles it.
MAX_TABLE_ARTISTS = 20


class TooManyArtists(ValueError):
    pass


@dataclass(frozen=True)
class CoalitionGame:
    players: tuple[str, ...]
    worth: tuple[int, ...]


def _user_mask_counts(p: Problem, complement: bool = False) -> array:
    """counts[S] = number of users whose whole listening list lies inside S;
    with ``complement``, m - counts[N \\ S] (the optimistic worth of S)."""
    if p.n > MAX_TABLE_ARTISTS:
        raise TooManyArtists(f"{p.n} artists exceeds the enumeration cap {MAX_TABLE_ARTISTS}")
    size = 1 << p.n
    # counts[S] is a field of ``width`` bytes in one packed integer, the
    # narrowest width that holds m (no Problem has 2^64 users). No count
    # exceeds m, so no field ever carries into the next. The packed integer
    # is little-endian by field: a big-endian host swaps each field's bytes
    # on the way in and out of it.
    width = next(w for w in (1, 2, 4, 8) if p.m < 1 << 8 * w)
    fields = array({1: "B", 2: "H", 4: "I", 8: "Q"}[width], bytes(width * size))
    for idx, _ in p.columns:  # distinct positions, so their bits sum to the mask
        fields[sum(map((1).__lshift__, idx))] += 1
    if sys.byteorder == "big":
        fields.byteswap()
    t = int.from_bytes(fields, "little")
    # subset-sum (zeta) transform: the pass for bit b adds the fields of the
    # coalitions without the bit, shifted 2^b fields up, into those with it.
    for b in range(p.n):
        half = 8 * width << b
        clear, period = (1 << half) - 1, 2 * half  # a run of ones, doubled to full length
        while period < 8 * width * size:
            clear, period = clear | clear << period, 2 * period
        t += (t & clear) << half
    order = "big" if complement else "little"
    if complement:
        # Every field is at most m, so taking it from m never borrows; read
        # big-endian, the fields come out last first: N \ S as S runs up.
        t = int.from_bytes(p.m.to_bytes(width, "little") * size, "little") - t
    fields = array(fields.typecode, t.to_bytes(width * size, order))
    if order != sys.byteorder:
        fields.byteswap()
    return fields


def pessimistic_game(p: Problem) -> CoalitionGame:
    """worth(S) = number of users who streamed only artists in S."""
    return CoalitionGame(p.artists, tuple(_user_mask_counts(p)))


def optimistic_game(p: Problem) -> CoalitionGame:
    """worth(S) = number of users who streamed at least one artist in S."""
    # worth(S) = m - counts[N \ S]; counts[N] == m, so the empty coalition gets 0.
    return CoalitionGame(p.artists, tuple(_user_mask_counts(p, complement=True)))


def dual_game(g: CoalitionGame) -> CoalitionGame:
    """worth*(S) = worth(N) - worth(N \\ S); an involution on games."""
    grand = g.worth[-1]
    worth = tuple(map(operator.sub, repeat(grand), reversed(g.worth)))  # N \ S, S ascending
    return CoalitionGame(g.players, worth)


# Stance name -> game; the builders are looked up per call, so wrappers set on them see it.
STANCES = {
    "pessimistic": lambda p: pessimistic_game(p),
    "optimistic": lambda p: optimistic_game(p),
    "dual": lambda p: optimistic_game(p),  # dual(pessimistic) = optimistic (TestDuality)
}


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
