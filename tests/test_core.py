import random

import pytest
from hypothesis import given

from streamshare import build_problem, derive, remove_artist, remove_user, split_by_users
from streamshare.core import (
    BadPartition,
    DimensionMismatch,
    DuplicateId,
    EmptyArtists,
    EmptyUsers,
    LastArtist,
    LastUser,
    NegativeStream,
    SilentUser,
    UnknownArtist,
    UnknownUser,
)

from helpers import example_1, example_2, problems, random_problem


def naive_stats(p):
    """Independent double-loop recomputation of all derived statistics."""
    total_by_artist = {}
    fans = {}
    for i, a in enumerate(p.artists):
        total_by_artist[a] = sum(p.streams[i][j] for j in range(p.m))
        fans[a] = frozenset(
            p.users[j] for j in range(p.m) if p.streams[i][j] > 0
        )
    total_by_user = {}
    listening = {}
    for j, u in enumerate(p.users):
        total_by_user[u] = sum(p.streams[i][j] for i in range(p.n))
        listening[u] = frozenset(
            p.artists[i] for i in range(p.n) if p.streams[i][j] > 0
        )
    return total_by_artist, total_by_user, fans, listening


class TestBuildProblem:
    def test_example_1_is_valid(self):
        p = example_1()
        assert p.n == 2 and p.m == 3
        assert p.streams == ((200, 0, 0), (0, 100, 100))

    def test_minimal_instance(self):
        p = build_problem(["x"], ["y"], [[1]])
        assert p.n == p.m == 1

    def test_silent_user_rejected(self):
        with pytest.raises(SilentUser) as exc:
            build_problem(["1", "2"], ["a", "b"], [[1, 0], [2, 0]])
        assert exc.value.user == "b"

    def test_empty_sets_rejected(self):
        with pytest.raises(EmptyArtists):
            build_problem([], ["a"], [])
        with pytest.raises(EmptyUsers):
            build_problem(["1"], [], [[]])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            build_problem(["1", "2"], ["a"], [[1]])
        with pytest.raises(DimensionMismatch):
            build_problem(["1"], ["a", "b"], [[1]])

    def test_bad_entries(self):
        with pytest.raises(NegativeStream):
            build_problem(["1"], ["a"], [[-1]])
        with pytest.raises(NegativeStream):
            build_problem(["1"], ["a"], [[1.5]])
        with pytest.raises(NegativeStream):
            build_problem(["1"], ["a"], [[True]])

    def test_duplicate_ids(self):
        with pytest.raises(DuplicateId):
            build_problem(["1", "1"], ["a"], [[1], [1]])
        with pytest.raises(DuplicateId):
            build_problem(["1"], ["a", "a"], [[1, 1]])


class TestDerive:
    def test_example_1(self):
        stats = derive(example_1())
        assert stats.total_by_artist == {"1": 200, "2": 200}
        assert stats.total_by_user == {"a": 200, "b": 100, "c": 100}
        assert stats.fans == {"1": frozenset({"a"}), "2": frozenset({"b", "c"})}
        assert stats.listening == {
            "a": frozenset({"1"}),
            "b": frozenset({"2"}),
            "c": frozenset({"2"}),
        }

    def test_minimal(self):
        stats = derive(build_problem(["x"], ["y"], [[1]]))
        assert stats.fans["x"] == frozenset({"y"})
        assert stats.listening["y"] == frozenset({"x"})

    def test_random_matrix_against_naive_oracle(self):
        rng = random.Random(7)
        for _ in range(50):
            p = random_problem(rng, max_n=4, max_m=5)
            stats = derive(p)
            ta, tu, fans, listening = naive_stats(p)
            assert stats.total_by_artist == ta
            assert stats.total_by_user == tu
            assert stats.fans == fans
            assert stats.listening == listening

    @given(problems())
    def test_fan_list_duality_and_totals(self, p):
        stats = derive(p)
        for a in p.artists:
            for u in p.users:
                assert (u in stats.fans[a]) == (a in stats.listening[u])
        assert sum(stats.total_by_artist.values()) == sum(stats.total_by_user.values())
        assert all(t > 0 for t in stats.total_by_user.values())


class TestRemoveArtist:
    def test_silencing_removal_is_flagged(self):
        removal = remove_artist(example_1(), "1")
        assert removal.silenced == ("a",)
        with pytest.raises(SilentUser):
            removal.to_problem()
        reduced = removal.drop_silenced()
        assert reduced.users == ("b", "c")
        assert reduced.streams == ((100, 100),)

    def test_clean_removal(self):
        p = build_problem(["1", "2"], ["a", "b"], [[1, 1], [1, 1]])
        removal = remove_artist(p, "2")
        assert removal.silenced == ()
        assert removal.to_problem().streams == ((1, 1),)

    def test_example_2_removal_valid(self):
        removal = remove_artist(example_2(), "2")
        assert removal.silenced == ()

    def test_errors(self):
        with pytest.raises(UnknownArtist):
            remove_artist(example_1(), "zzz")
        with pytest.raises(LastArtist):
            remove_artist(build_problem(["1"], ["a"], [[1]]), "1")


class TestRemoveUser:
    def test_example_1(self):
        reduced = remove_user(example_1(), "a")
        assert reduced.users == ("b", "c")
        assert reduced.streams == ((0, 0), (100, 100))

    def test_last_user(self):
        p = build_problem(["1"], ["a", "b"], [[1, 1]])
        p = remove_user(p, "a")
        with pytest.raises(LastUser):
            remove_user(p, "b")

    def test_unknown_user(self):
        with pytest.raises(UnknownUser):
            remove_user(example_1(), "zzz")

    @given(problems())
    def test_totals_drop_by_removed_column(self, p):
        if p.m < 2:
            return
        before = derive(p).total_by_artist
        u = p.users[0]
        j = 0
        after = derive(remove_user(p, u)).total_by_artist
        for i, a in enumerate(p.artists):
            assert after[a] == before[a] - p.streams[i][j]


class TestSplitByUsers:
    def test_example_1_split(self):
        p1, p2 = split_by_users(example_1(), ["a"], ["b", "c"])
        assert p1.streams == ((200,), (0,))
        assert p2.streams == ((0, 0), (100, 100))

    def test_bad_partitions(self):
        p = example_1()
        with pytest.raises(BadPartition):
            split_by_users(p, [], ["a", "b", "c"])
        with pytest.raises(BadPartition):
            split_by_users(p, ["a", "b"], ["b", "c"])
        with pytest.raises(BadPartition):
            split_by_users(p, ["a"], ["b"])

    @given(problems())
    def test_split_then_concatenate_is_identity(self, p):
        if p.m < 2:
            return
        first = [p.users[0]]
        second = list(p.users[1:])
        p1, p2 = split_by_users(p, first, second)
        merged = tuple(
            r1 + r2 for r1, r2 in zip(p1.streams, p2.streams)
        )
        assert merged == p.streams
        assert p1.artists == p2.artists == p.artists
