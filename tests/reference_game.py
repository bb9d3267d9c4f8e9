"""Reference games: the per-bit zeta transform, the literal optimistic and
dual definitions, and two definition-level Shapley oracles.

``user_mask_counts`` is the interpreted loop that the packed-integer transform
in ``streamshare.game._user_mask_counts`` replaced: one ``if s & bit`` step per
coalition and bit. The two worth functions read the table at ``N \\ S`` for
each coalition ``S``, exactly as the definitions say. They are kept here, slow
and obviously correct, so tests can require the fast tables to equal them.

``dual_game`` and the permutation oracle ``shapley_value_brute_force`` are
the game-level definitions that no command needs: the dual stance exports the
optimistic table, which equals the pessimistic game's dual. The Möbius oracle
``shapley_value_mobius`` inverts the zeta transform to get the Harsanyi
dividends d(S) and gives each member of S the share d(S) / |S|; it reaches
the table limit of 20 artists, where the n! player orders cannot be walked.

``export_rows`` is the game export's rows as the per-coalition loop writes
them, one ``format`` per coalition, and ``game_document`` the export as a
document, which ``json.dumps(doc, indent=2, sort_keys=True)`` turns into the
bytes that ``streamshare.reporting.game_chunks`` writes block by block.
"""

import math
import operator
from itertools import permutations, repeat

from streamshare.game import CoalitionGame, TooManyArtists
from streamshare.indices import IndexVector
from streamshare.reporting import SCHEMA_VERSION

# The permutation oracle walks all n! player orders; 10! is 3.6 million of them.
MAX_PERMUTATION_ARTISTS = 10


def user_mask_counts(p):
    """counts[S] = number of users whose whole listening list lies inside S."""
    n = p.n
    counts = [0] * (1 << n)
    for idx, _ in p.columns:
        mask = 0
        for i in idx:
            mask |= 1 << i
        counts[mask] += 1
    for b in range(n):
        bit = 1 << b
        for s in range(1 << n):
            if s & bit:
                counts[s] += counts[s ^ bit]
    return counts


def optimistic_worth(p):
    """worth(S) = m - counts[N \\ S]: the users who streamed someone in S."""
    counts = user_mask_counts(p)
    full = (1 << p.n) - 1
    return tuple(p.m - counts[full ^ s] for s in range(1 << p.n))


def dual_worth(worth):
    """worth*(S) = worth(N) - worth(N \\ S)."""
    full = len(worth) - 1
    return tuple(worth[full] - worth[full ^ s] for s in range(len(worth)))


def dual_game(g: CoalitionGame) -> CoalitionGame:
    """worth*(S) = worth(N) - worth(N \\ S); an involution on games."""
    grand = g.worth[-1]
    worth = tuple(map(operator.sub, repeat(grand), reversed(g.worth)))  # N \ S, S ascending
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


def harsanyi_dividends(worth):
    """d(S) = the sum over T inside S of (-1)^|S \\ T| worth(T): the zeta
    transform undone one bit at a time."""
    d = list(worth)
    bit = 1
    while bit < len(d):
        for s in range(len(d)):
            if s & bit:
                d[s] -= d[s ^ bit]
        bit <<= 1
    return d


def shapley_value_mobius(g: CoalitionGame) -> IndexVector:
    """Shapley value as each coalition's dividend split equally among its
    members, in exact numerators over lcm(1..n)."""
    n = len(g.players)
    common = math.lcm(*range(1, n + 1))
    totals = [0] * n
    for s, d in enumerate(harsanyi_dividends(g.worth)):
        if s and d:
            share = d * (common // bin(s).count("1"))
            for i in range(n):
                if s >> i & 1:
                    totals[i] += share
    return IndexVector(g.players, tuple(totals), common)


def export_rows(p, stance: str) -> list[str]:
    """One "mask,worth" row per coalition S, ascending: S as n binary digits,
    then the stance's worth of S by the literal definitions above."""
    counts = user_mask_counts(p)
    worth = {"pessimistic": counts, "optimistic": optimistic_worth(p),
             "dual": dual_worth(counts)}[stance]
    return [f"{s:0{p.n}b},{w}" for s, w in enumerate(worth)]


def game_document(p, stance: str) -> dict:
    """The JSON game export's document: the players and one row per coalition."""
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "game",
        "stance": stance,
        "players": list(p.artists),
        "rows": export_rows(p, stance),
    }
