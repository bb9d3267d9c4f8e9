"""Coalition games over artists: pessimistic and optimistic worth.

Coalitions are bitmasks over artist positions (artist at position ``k`` is bit
``k``); the worth function is materialized eagerly as a table of length 2^n,
built by n whole-integer passes over one packed integer (pessimistic), then
taken from m and read big-endian (optimistic, which equals the dual of the
pessimistic game). Worth tables are exact integers.
"""

from __future__ import annotations

import sys
from array import array
from collections import namedtuple

from .core import Problem

# No worth table is built for more artists than this. A text export costs
# about 100 bytes per coalition (CLI peak RSS, CPython 3.11: 40 MB for the
# dual game of 18 artists, 110 MB for 20), and each artist more doubles it.
MAX_TABLE_ARTISTS = 20


class TooManyArtists(ValueError):
    pass


CoalitionGame = namedtuple("CoalitionGame", "players worth")


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


# Stance name -> game; the builders are looked up per call, so wrappers set on them see it.
STANCES = {
    "pessimistic": lambda p: pessimistic_game(p),
    "optimistic": lambda p: optimistic_game(p),
    "dual": lambda p: optimistic_game(p),  # = dual_game(pessimistic) in tests/reference_game.py
}
