import pytest
from hypothesis import given

from streamshare import build_problem, remove_artist, remove_user, split_by_users
from streamshare.core import (
    BadId,
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

from helpers import example_1, example_2, problems


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
        with pytest.raises(DuplicateId, match="duplicate artist identifier '1'"):
            build_problem(["1", "1"], ["a"], [[1], [1]])
        with pytest.raises(DuplicateId, match="duplicate user identifier 'a'"):
            build_problem(["1"], ["a", "a"], [[1, 1]])
        with pytest.raises(DuplicateId, match="duplicate user identifier 'c'"):
            build_problem(["1"], ["a", "c", "b", "c", "a"], [[1] * 5])

    def test_ids_given_as_one_string_are_refused(self):
        # a str or bytes is iterable, but would be read as one id per character
        with pytest.raises(BadId, match="^artists must be a collection of ids, not 'ab'$"):
            build_problem("ab", ["u1"], [[1], [2]])
        with pytest.raises(BadId, match="^users must be a collection of ids, not b'ab'$"):
            build_problem(["1"], b"ab", [[1, 1]])

    def test_ids_that_are_not_strings_are_refused(self):
        with pytest.raises(BadId, match="^user id 3 is not a str$"):
            build_problem(["1", "2"], ["a", 3], [[1, 0], [0, 1]])
        with pytest.raises(BadId, match="^artist id None is not a str$"):
            build_problem([None], ["a"], [[1]])

    def test_other_iterables_of_ids_are_accepted(self):
        p = build_problem((a for a in "12"), dict.fromkeys("ab"), [[1, 0], [0, 1]])
        assert p.artists == ("1", "2") and p.users == ("a", "b")


class TestRemoveArtist:
    def test_silencing_removal_is_flagged(self):
        with pytest.raises(SilentUser) as exc:
            remove_artist(example_1(), "1")
        assert exc.value.user == "a"

    def test_clean_removal(self):
        p = build_problem(["1", "2"], ["a", "b"], [[1, 1], [1, 1]])
        reduced = remove_artist(p, "2")
        assert reduced.artists == ("1",)
        assert reduced.columns == (((0,), (1,)), ((0,), (1,)))
        assert reduced.streams == ((1, 1),)

    def test_example_2_removal_valid(self):
        reduced = remove_artist(example_2(), "1")
        assert reduced.artists == ("2",)
        assert reduced.streams == ((200, 200, 200),)

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
        reduced = remove_user(p, p.users[0])
        for row, after in zip(p.streams, reduced.streams):
            assert sum(after) == sum(row) - row[0]

    @given(problems())
    def test_removal_drops_exactly_that_column(self, p):
        if p.m < 2:
            return
        for j, u in enumerate(p.users):
            reduced = remove_user(p, u)
            rows = [row[:j] + row[j + 1:] for row in p.streams]
            assert reduced == build_problem(p.artists, p.users[:j] + p.users[j + 1:], rows)
            assert reduced.streams == tuple(rows)


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

    def test_string_part_is_refused(self):
        # a str would be read as one user per character: "ab" as users a and b
        p = example_1()
        with pytest.raises(BadPartition,
                           match="^a part must be a collection of users, not 'ab'$"):
            split_by_users(p, "ab", ["c"])
        with pytest.raises(BadPartition, match="not b'c'$"):
            split_by_users(p, ["a", "b"], b"c")

    def test_unknown_user_is_named(self):
        p = example_1()
        # the parts cover the user set; only the unknown id is at fault
        with pytest.raises(UnknownUser, match="^unknown user 'zz'$"):
            split_by_users(p, ["zz"], list(p.users))
        # the first unknown id in part order, though the parts miss a user too
        with pytest.raises(UnknownUser, match="^unknown user 'y'$"):
            split_by_users(p, ["a", "y"], ["x", "b"])

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
