"""Exact-arithmetic royalty allocation for music streaming.

Builds streaming problems (artists x users stream-count matrices), computes
the competing popularity indices and their proportional payouts, constructs
the associated coalition games, and machine-checks the fairness axioms each
index satisfies.
"""

from .core import (
    Problem,
    ProblemError,
    build_problem,
    build_sparse_problem,
    remove_artist,
    remove_user,
    split_by_users,
)
from .game import (
    CoalitionGame,
    TooManyArtists,
    optimistic_game,
    pessimistic_game,
)
from .indices import (
    IndexRule,
    IndexVector,
    make_rule,
    pro_rata_index,
    shapley_index,
    user_centric_index,
)

__all__ = [
    "CoalitionGame",
    "IndexRule",
    "IndexVector",
    "Problem",
    "ProblemError",
    "TooManyArtists",
    "build_problem",
    "build_sparse_problem",
    "make_rule",
    "optimistic_game",
    "pessimistic_game",
    "pro_rata_index",
    "remove_artist",
    "remove_user",
    "shapley_index",
    "split_by_users",
    "user_centric_index",
]
