"""Exact-arithmetic royalty allocation for music streaming.

Builds streaming problems (artists x users stream-count matrices), computes
the competing popularity indices and their proportional payouts, constructs
the associated coalition games, and machine-checks the fairness axioms each
index satisfies.
"""

from .core import (
    ArtistRemoval,
    DerivedStats,
    Problem,
    ProblemError,
    build_problem,
    build_sparse_problem,
    derive,
    remove_artist,
    remove_user,
    split_by_users,
)
from .game import (
    CoalitionGame,
    TooManyArtists,
    dual_game,
    optimistic_game,
    pessimistic_game,
    shapley_value_brute_force,
)
from .indices import (
    AllocationReport,
    IndexRule,
    IndexVector,
    make_rule,
    pro_rata_index,
    rewards,
    shapley_index,
    user_centric_index,
)

__all__ = [
    "ArtistRemoval",
    "AllocationReport",
    "CoalitionGame",
    "DerivedStats",
    "IndexRule",
    "IndexVector",
    "Problem",
    "ProblemError",
    "TooManyArtists",
    "build_problem",
    "build_sparse_problem",
    "derive",
    "dual_game",
    "make_rule",
    "optimistic_game",
    "pessimistic_game",
    "pro_rata_index",
    "remove_artist",
    "remove_user",
    "rewards",
    "shapley_index",
    "shapley_value_brute_force",
    "split_by_users",
    "user_centric_index",
]
