"""Streaming-problem data model: artists, users, and the play-count matrix.

All values are immutable after construction and every operation is a pure
function, so everything here is safe to share across threads. (A problem's
dense ``streams`` view is computed on first use; a race computes it twice,
to the same value.)
"""

from __future__ import annotations

from bisect import bisect_left
from collections import namedtuple
from functools import cached_property
from itertools import chain, compress
from operator import lt

Matrix = tuple[tuple[int, ...], ...]

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


class BadId(ProblemError):
    """An id that is not a ``str``, or ids given as one ``str`` or ``bytes``."""


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


class Problem(namedtuple("Problem", "artists users columns")):
    """A platform snapshot: who streamed whom how often.

    Stored user by user, sparse: ``columns[j] == (idx, counts)`` lists the
    artists user ``users[j]`` streamed, as ascending positions into
    ``artists``, and the positive stream count of each. Construct through
    :func:`build_problem` (dense rows) or :func:`build_sparse_problem` (these
    columns), which validate all invariants. The fields are those of an
    immutable named tuple; ``__dict__`` holds only the cached ``streams``.
    """

    def __setattr__(self, name, value):  # the cache writes __dict__ itself
        raise AttributeError(f"cannot assign to {name!r} of a Problem")

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
    return _problem_from_rows(artists, users, rows)


def _problem_from_rows(artists: tuple[str, ...], users: tuple[str, ...], rows: Matrix) -> Problem:
    """The problem of ``rows``, checked only for a silent user: the rest of
    :func:`build_problem`'s checks must hold already, as for generated rows."""
    positions = range(len(artists))
    columns = tuple([
        (tuple(compress(positions, col)), tuple(filter(None, col)))
        for col in zip(*rows)
    ])
    if _SILENT in columns:
        raise SilentUser(users[columns.index(_SILENT)])
    p = tuple.__new__(Problem, (artists, users, columns))  # skips namedtuple's __new__
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
    for field, ids in (("artists", artists), ("users", users)):
        if isinstance(ids, (str, bytes)):  # else read as one id per character
            raise BadId(f"{field} must be a collection of ids, not {ids!r}")
    artists = tuple(artists)
    users = tuple(users)
    if not artists:
        raise EmptyArtists("at least one artist is required")
    if not users:
        raise EmptyUsers("at least one user is required")
    for kind, ids in (("artist", artists), ("user", users)):
        bad = [x for x in ids if not isinstance(x, str)]
        if bad:
            raise BadId(f"{kind} id {bad[0]!r} is not a str")
        if len(set(ids)) != len(ids):
            seen = set()
            repeated = next(x for x in ids if x in seen or seen.add(x))
            raise DuplicateId(f"duplicate {kind} identifier {repeated!r}")
    return artists, users


def _check_count(x, artist: str) -> None:
    if isinstance(x, bool) or not isinstance(x, int):
        raise NegativeStream(f"stream count {x!r} is not an integer")
    if x < 0:
        raise NegativeStream(f"negative stream count {x} for artist {artist!r}")


def remove_artist(p: Problem, artist: str) -> Problem:
    """Delete one artist's row.

    Raises :class:`SilentUser` for the first user who streamed only that
    artist, since the reduced problem would leave them with zero streams.
    """
    if artist not in p.artists:
        raise UnknownArtist(f"unknown artist {artist!r}")
    if len(p.artists) < 2:
        raise LastArtist("cannot remove the only artist")
    i = p.artists.index(artist)
    columns = []
    for u, (idx, counts) in zip(p.users, p.columns):
        k = bisect_left(idx, i)
        if idx[k:k + 1] == (i,):
            if len(idx) == 1:
                raise SilentUser(u)
            idx, counts = idx[:k] + idx[k + 1:], counts[:k] + counts[k + 1:]
        columns.append((idx[:k] + tuple([x - 1 for x in idx[k:]]), counts))
    # the remaining columns stay valid, so nothing is rechecked
    return tuple.__new__(Problem, (p.artists[:i] + p.artists[i + 1:], p.users, tuple(columns)))


def remove_user(p: Problem, user: str) -> Problem:
    """Delete one user's column; the result is always a valid problem."""
    if user not in p.users:
        raise UnknownUser(f"unknown user {user!r}")
    if len(p.users) < 2:
        raise LastUser("cannot remove the only user")
    j = p.users.index(user)  # the other columns stay valid, so nothing is rechecked
    users, columns = p.users[:j] + p.users[j + 1:], p.columns[:j] + p.columns[j + 1:]
    return tuple.__new__(Problem, (p.artists, users, columns))


def split_by_users(p: Problem, first, second) -> tuple[Problem, Problem]:
    """Split the user set into two disjoint nonempty groups, keeping all artists.

    Column order within each part follows the original problem. A user listed
    twice raises :class:`BadPartition`, and an id that is not a user raises
    :class:`UnknownUser`, the first such id in part order.
    """
    for part in (first, second):
        if isinstance(part, (str, bytes)):  # else read as one user per character
            raise BadPartition(f"a part must be a collection of users, not {part!r}")
    parts = list(first), list(second)
    first, second = map(set, parts)
    if not first or not second:
        raise BadPartition("both parts must be nonempty")
    if first & second:
        raise BadPartition("parts overlap")
    for part, kept in zip(parts, (first, second)):
        if len(kept) < len(part):
            twice = next(u for u in part if part.count(u) > 1)
            raise BadPartition(f"user {twice!r} is listed twice")
    users = set(p.users)
    if first | second != users:
        for u in chain(*parts):
            if u not in users:
                raise UnknownUser(f"unknown user {u!r}")
        raise BadPartition("parts do not cover the user set")
    return _restrict(p, first), _restrict(p, second)


def _restrict(p: Problem, keep: set[str]) -> Problem:
    mask = [u in keep for u in p.users]
    users, columns = tuple(compress(p.users, mask)), tuple(compress(p.columns, mask))
    return tuple.__new__(Problem, (p.artists, users, columns))
