"""Streaming-problem data model: artists, users, and the play-count matrix.

All values are immutable after construction and every operation is a pure
function, so everything here is safe to share across threads. (A problem's
dense ``streams`` view is computed on first use; a race computes it twice,
to the same value.)
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, compress
from operator import lt

Matrix = tuple[tuple[int, ...], ...]
# One user's streams: ascending artist positions and their positive counts.
Column = tuple[tuple[int, ...], tuple[int, ...]]

_INT = frozenset({int})
_SILENT = ((), ())  # the column of a user who streamed nothing


class ProblemError(ValueError):
    """Base class for invalid streaming-problem data."""


class EmptyArtists(ProblemError):
    pass


class EmptyUsers(ProblemError):
    pass


class DimensionMismatch(ProblemError):
    pass


class NegativeStream(ProblemError):
    pass


class DuplicateId(ProblemError):
    pass


class SilentUser(ProblemError):
    """A user whose stream counts sum to zero; the model assumes every user streamed something."""

    def __init__(self, user: str):
        super().__init__(f"user {user!r} has no streams")
        self.user = user


class UnknownArtist(ProblemError):
    pass


class UnknownUser(ProblemError):
    pass


class LastArtist(ProblemError):
    pass


class LastUser(ProblemError):
    pass


class BadPartition(ProblemError):
    pass


@dataclass(frozen=True)
class Problem:
    """A platform snapshot: who streamed whom how often.

    Stored user by user, sparse: ``columns[j] == (idx, counts)`` lists the
    artists user ``users[j]`` streamed, as ascending positions into
    ``artists``, and the positive stream count of each. Construct through
    :func:`build_problem` (dense rows) or :func:`build_sparse_problem` (these
    columns), which validate all invariants.
    """

    artists: tuple[str, ...]
    users: tuple[str, ...]
    columns: tuple[Column, ...]

    @property
    def n(self) -> int:
        return len(self.artists)

    @property
    def m(self) -> int:
        return len(self.users)

    @cached_property
    def streams(self) -> Matrix:
        """Dense view: ``streams[i][j]`` is how often ``users[j]`` played ``artists[i]``."""
        rows = [[0] * self.m for _ in self.artists]
        for j, (idx, counts) in enumerate(self.columns):
            for i, x in zip(idx, counts):
                rows[i][j] = x
        return tuple(map(tuple, rows))


@dataclass(frozen=True)
class DerivedStats:
    """Per-artist and per-user statistics of one problem."""

    total_by_artist: dict[str, int]
    total_by_user: dict[str, int]
    fans: dict[str, frozenset[str]]
    listening: dict[str, frozenset[str]]


@dataclass(frozen=True)
class ArtistRemoval:
    """Raw result of deleting one artist's row.

    Removing a row can leave users with an all-zero column, which violates the
    everyone-streams-something assumption. The silenced users are surfaced
    rather than dropped silently; callers decide how to proceed.
    """

    artists: tuple[str, ...]
    users: tuple[str, ...]
    streams: Matrix
    silenced: tuple[str, ...]

    def to_problem(self) -> Problem:
        """Return the reduced problem, failing if any user was silenced."""
        if self.silenced:
            raise SilentUser(self.silenced[0])
        return build_problem(self.artists, self.users, self.streams)

    def drop_silenced(self) -> Problem:
        """Return the reduced problem with silenced users' columns removed."""
        keep = [j for j, u in enumerate(self.users) if u not in self.silenced]
        if not keep:
            raise EmptyUsers("removing the artist silenced every user")
        users = tuple(self.users[j] for j in keep)
        streams = tuple(tuple(row[j] for j in keep) for row in self.streams)
        return build_problem(self.artists, users, streams)


def build_problem(artists, users, streams) -> Problem:
    """Validate and construct a :class:`Problem` from dense rows.

    Checks shape, entry types, identifier uniqueness, and that every user
    streamed at least once. The validated rows are kept as the problem's
    dense view, so ``streams`` is never rebuilt.
    """
    artists, users = _check_ids(artists, users)
    m = len(users)
    rows = tuple(map(tuple, streams))
    if len(rows) != len(artists):
        raise DimensionMismatch(
            f"expected {len(artists)} rows, got {len(rows)}"
        )
    for a, row in zip(artists, rows):
        if len(row) != m:
            raise DimensionMismatch(
                f"row for artist {a!r} has {len(row)} entries, expected {m}"
            )
    if set(map(type, chain.from_iterable(rows))) != _INT or min(map(min, rows)) < 0:
        for a, row in zip(artists, rows):
            for x in row:
                _check_count(x, a)
    positions = range(len(artists))
    columns = tuple([
        (tuple(compress(positions, col)), tuple(filter(None, col)))
        for col in zip(*rows)
    ])
    if _SILENT in columns:
        raise SilentUser(users[columns.index(_SILENT)])
    p = Problem(artists, users, columns)
    p.__dict__["streams"] = rows  # prime the cached dense view
    return p


def build_sparse_problem(artists, users, columns) -> Problem:
    """Validate and construct a :class:`Problem` from per-user columns.

    ``columns[j] == (idx, counts)``: the ascending artist positions user
    ``users[j]`` streamed and the positive count of each. The checks match
    :func:`build_problem` and cost O(n + m + nnz).
    """
    artists, users = _check_ids(artists, users)
    n = len(artists)
    columns = tuple((tuple(idx), tuple(counts)) for idx, counts in columns)
    if len(columns) != len(users):
        raise DimensionMismatch(
            f"expected {len(users)} columns, got {len(columns)}"
        )
    positions = chain.from_iterable(idx for idx, _ in columns)
    if set(map(type, positions)) - _INT:
        raise DimensionMismatch("artist positions must be integers")
    for u, (idx, counts) in zip(users, columns):
        if len(idx) != len(counts):
            raise DimensionMismatch(
                f"column for user {u!r} has {len(idx)} positions and {len(counts)} counts"
            )
        if not idx:
            raise SilentUser(u)
        if idx[0] < 0 or idx[-1] >= n or not all(map(lt, idx, idx[1:])):
            raise DimensionMismatch(
                f"artist positions for user {u!r} must ascend within 0..{n - 1}"
            )
    entries = list(chain.from_iterable(counts for _, counts in columns))
    if set(map(type, entries)) != _INT or min(entries) <= 0:
        for u, (idx, counts) in zip(users, columns):
            for i, x in zip(idx, counts):
                _check_count(x, artists[i])
                if x == 0:
                    raise NegativeStream(
                        f"zero stream count stored for artist {artists[i]!r}, user {u!r}"
                    )
    return Problem(artists, users, columns)


def _check_ids(artists, users) -> tuple[tuple[str, ...], tuple[str, ...]]:
    artists = tuple(artists)
    users = tuple(users)
    if not artists:
        raise EmptyArtists("at least one artist is required")
    if not users:
        raise EmptyUsers("at least one user is required")
    if len(set(artists)) != len(artists):
        raise DuplicateId("duplicate artist identifier")
    if len(set(users)) != len(users):
        raise DuplicateId("duplicate user identifier")
    return artists, users


def _check_count(x, artist: str) -> None:
    if isinstance(x, bool) or not isinstance(x, int):
        raise NegativeStream(f"stream count {x!r} is not an integer")
    if x < 0:
        raise NegativeStream(f"negative stream count {x} for artist {artist!r}")


def derive(p: Problem) -> DerivedStats:
    """Compute totals, fan sets and listening sets."""
    artists = p.artists
    total_by_artist = [0] * p.n
    fans = [[] for _ in artists]
    total_by_user = {}
    listening = {}
    for u, (idx, counts) in zip(p.users, p.columns):
        total_by_user[u] = sum(counts)
        listening[u] = frozenset([artists[i] for i in idx])
        for i, x in zip(idx, counts):
            total_by_artist[i] += x
            fans[i].append(u)
    return DerivedStats(
        total_by_artist=dict(zip(artists, total_by_artist)),
        total_by_user=total_by_user,
        fans=dict(zip(artists, map(frozenset, fans))),
        listening=listening,
    )


def remove_artist(p: Problem, artist: str) -> ArtistRemoval:
    """Delete one artist's row, reporting any users left with zero streams."""
    if artist not in p.artists:
        raise UnknownArtist(f"unknown artist {artist!r}")
    if p.n < 2:
        raise LastArtist("cannot remove the only artist")
    i = p.artists.index(artist)
    artists = p.artists[:i] + p.artists[i + 1:]
    streams = p.streams[:i] + p.streams[i + 1:]
    only_i = (i,)
    silenced = tuple(
        u for u, (idx, _) in zip(p.users, p.columns) if idx == only_i
    )
    return ArtistRemoval(artists, p.users, streams, silenced)


def remove_user(p: Problem, user: str) -> Problem:
    """Delete one user's column; the result is always a valid problem."""
    if user not in p.users:
        raise UnknownUser(f"unknown user {user!r}")
    if p.m < 2:
        raise LastUser("cannot remove the only user")
    j = p.users.index(user)
    # the remaining columns are valid as they stand, so nothing is rechecked
    users = p.users[:j] + p.users[j + 1:]
    return Problem(p.artists, users, p.columns[:j] + p.columns[j + 1:])


def split_by_users(p: Problem, first, second) -> tuple[Problem, Problem]:
    """Split the user set into two disjoint nonempty groups, keeping all artists.

    Column order within each part follows the original problem.
    """
    first = set(first)
    second = set(second)
    if not first or not second:
        raise BadPartition("both parts must be nonempty")
    if first & second:
        raise BadPartition("parts overlap")
    if first | second != set(p.users):
        raise BadPartition("parts do not cover the user set")
    return _restrict(p, first), _restrict(p, second)


def _restrict(p: Problem, keep: set[str]) -> Problem:
    cols = [j for j, u in enumerate(p.users) if u in keep]
    users = tuple(p.users[j] for j in cols)
    return Problem(p.artists, users, tuple(p.columns[j] for j in cols))
