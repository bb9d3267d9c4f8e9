"""The sparse per-user storage of Problem and its dense view."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from streamshare import (
    build_problem,
    build_sparse_problem,
    remove_artist,
    remove_user,
    split_by_users,
)
from streamshare.core import (
    BadId,
    DimensionMismatch,
    DuplicateId,
    EmptyArtists,
    EmptyUsers,
    NegativeStream,
    SilentUser,
)
from streamshare.reporting import parse_matrix

from helpers import example_1, problems, serialize_matrix


def naive_columns(rows):
    """Per-user (positions, counts) of the nonzero entries, by a double loop."""
    n, m = len(rows), len(rows[0])
    return [
        ([i for i in range(n) if rows[i][j]], [rows[i][j] for i in range(n) if rows[i][j]])
        for j in range(m)
    ]


def assert_streams_match_columns(p):
    for j, (idx, counts) in enumerate(p.columns):
        streamed = dict(zip(idx, counts))
        for i in range(p.n):
            assert p.streams[i][j] == streamed.get(i, 0)


class TestLayout:
    def test_example_1_columns(self):
        p = example_1()
        assert p.columns == (((0,), (200,)), ((1,), (100,)), ((1,), (100,)))

    def test_dense_view_of_sparse_problem(self):
        p = build_sparse_problem(["1", "2"], ["a", "b", "c"],
                                 [([0], [200]), ([1], [100]), ([1], [100])])
        assert p == example_1()
        assert p.streams == ((200, 0, 0), (0, 100, 100))

    @given(problems(max_n=5, max_m=5, max_entry=6))
    def test_parse_serialize_round_trip(self, p):
        assert parse_matrix(serialize_matrix(p)) == p

    @given(problems(max_n=5, max_m=5, max_entry=6))
    def test_sparse_constructor_equals_build_problem(self, p):
        rows = [list(row) for row in p.streams]
        q = build_sparse_problem(p.artists, p.users, naive_columns(rows))
        assert q == build_problem(p.artists, p.users, rows)
        assert q.streams == p.streams

    @given(problems(max_n=5, max_m=5, max_entry=6))
    def test_streams_match_columns(self, p):
        assert_streams_match_columns(p)
        assert_streams_match_columns(build_sparse_problem(p.artists, p.users, p.columns))

    @given(problems(max_n=4, max_m=5), st.data())
    def test_reductions_equal_rebuilt_problems(self, p, data):
        user = data.draw(st.sampled_from(p.users))
        if p.m > 1:
            j = p.users.index(user)
            rows = [row[:j] + row[j + 1:] for row in p.streams]
            assert remove_user(p, user) == build_problem(
                p.artists, p.users[:j] + p.users[j + 1:], rows
            )
            first = [u for u in p.users if u != user]
            p1, p2 = split_by_users(p, first, [user])
            keep = [k for k in range(p.m) if k != j]
            assert p1 == build_problem(p.artists, first,
                                       [[row[k] for k in keep] for row in p.streams])
            assert p2 == build_problem(p.artists, [user], [[row[j]] for row in p.streams])
            assert_streams_match_columns(p1)

    @given(problems(max_n=5, max_m=5), st.data())
    def test_artist_removal_equals_rebuilt_problem(self, p, data):
        artist = data.draw(st.sampled_from(p.artists))
        if p.n < 2:
            return
        i = p.artists.index(artist)
        artists = p.artists[:i] + p.artists[i + 1:]
        rows = p.streams[:i] + p.streams[i + 1:]
        try:
            expected = build_problem(artists, p.users, rows)
        except SilentUser as exc:
            with pytest.raises(SilentUser) as got:
                remove_artist(p, artist)
            assert got.value.user == exc.user
            return
        reduced = remove_artist(p, artist)
        assert reduced == expected
        assert reduced.streams == expected.streams


class TestSparseConstructorChecks:
    def build(self, columns, artists=("x", "y"), users=("a", "b")):
        return build_sparse_problem(artists, users, columns)

    def test_identifier_checks_shared(self):
        with pytest.raises(EmptyArtists):
            self.build([], artists=())
        with pytest.raises(EmptyUsers):
            self.build([], users=())
        with pytest.raises(DuplicateId, match="duplicate artist identifier 'x'"):
            self.build([([0], [1]), ([1], [1])], artists=("x", "x"))
        with pytest.raises(DuplicateId, match="duplicate user identifier 'a'"):
            self.build([([0], [1]), ([1], [1])], users=("a", "a"))

    def test_id_types_checked(self):
        columns = [([0], [1]), ([1], [1])]
        with pytest.raises(BadId, match="^artists must be a collection of ids, not 'xy'$"):
            self.build(columns, artists="xy")
        with pytest.raises(BadId, match="^users must be a collection of ids, not b'ab'$"):
            self.build(columns, users=b"ab")
        with pytest.raises(BadId, match="^user id 3 is not a str$"):
            self.build(columns, users=("a", 3))

    def test_shape(self):
        with pytest.raises(DimensionMismatch):
            self.build([([0], [1])])
        with pytest.raises(DimensionMismatch):
            self.build([([0], [1]), ([0, 1], [1])])

    def test_positions_ascend_within_range(self):
        for bad in ([1, 0], [0, 0], [0, 2], [-1, 0], [0.0], ["0"], [False]):
            with pytest.raises(DimensionMismatch):
                self.build([([0], [1]), (bad, [1] * len(bad))])

    def test_counts_positive_integers(self):
        with pytest.raises(NegativeStream, match="negative"):
            self.build([([0], [1]), ([1], [-3])])
        with pytest.raises(NegativeStream, match="zero"):
            self.build([([0], [1]), ([0, 1], [2, 0])])
        for bad in (1.5, "1", True):
            with pytest.raises(NegativeStream, match="not an integer"):
                self.build([([0], [1]), ([1], [bad])])

    def test_silent_user(self):
        with pytest.raises(SilentUser) as exc:
            self.build([([0], [1]), ([], [])])
        assert exc.value.user == "b"
