"""Executable axiom checks, randomized falsification search, and the
rules-versus-axioms table.

Each axiom is encoded as an exact-rational check of its defining
(in)equality on a single instance. An audit runs the check over a fixed
exhaustive small grid of problems plus seeded random trials; the first
counterexample wins and is returned as a replayable witness (the stored
instance reproduces the violation bit-for-bit through
:func:`check_instance`). Audits are sequential and fully deterministic in
the seed.

Quantified axioms ("for each pair", "for each subset") are checked over
every applicable pair or subset inside each instance. Random problems have
at most 5 artists and 5 users, so their user subsets are always enumerated
exhaustively; a supplied instance may list its own ``user_subsets``, and
must list them when it has more than 10 users.
"""

from __future__ import annotations

import random
from copy import deepcopy
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from itertools import chain, compress, product
from typing import Callable, Iterable

from .core import (
    Problem,
    ProblemError,
    SilentUser,
    _problem_from_rows,
    build_problem,
    remove_artist,
    remove_user,
    split_by_users,
)
from .indices import (
    TABLE_RULE_NAMES,
    IndexRule,
    make_rule,
    reward_shares,
)

SUBSET_ENUMERATION_CAP = 10
DEFAULT_TRIALS = 500

# Random problems: up to MAX_ARTISTS x MAX_USERS, entries up to MAX_ENTRY. A
# HEAVY_CHANCE share of trials caps entries at HEAVY_ENTRY instead, which is
# what exposes ratio-sensitive violations (for example, reward shifts under a
# single user's extreme stream counts).
MAX_ARTISTS = 5
MAX_USERS = 5
MAX_ENTRY = 5
HEAVY_ENTRY = 200
HEAVY_CHANCE = 0.15


class ShapeMismatch(ValueError):
    """Instance data does not fit the axiom's expected shape."""


class UnknownAxiom(ValueError):
    pass


@dataclass(frozen=True)
class Verdict:
    axiom: str
    rule: str
    outcome: str  # "holds" or "counterexample"
    trials: int
    grid_cases: int
    skipped: int
    seed: int
    witness: dict | None = None
    details: dict | None = None
    expected: str | None = None  # a suite cell's expected outcome
    axiom_set: str | None = None  # an independence cell's characterization

    @property
    def holds(self) -> bool:
        return self.outcome == "holds"

    @property
    def matches(self) -> bool:
        return self.outcome == self.expected


def problem_to_dict(p: Problem) -> dict:
    return {
        "artists": list(p.artists),
        "users": list(p.users),
        "streams": [list(row) for row in p.streams],
    }


# ---------------------------------------------------------------------------
# Single-instance checks
#
# A checker returns ``(details, skipped)``: ``details`` describes the
# violation (``None`` when the axiom holds on the instance) and ``skipped``
# counts quantified cases whose reduced problem falls outside the model (only
# relevant to the artist-removal axiom). Each docstring says what a violation
# means.
#
# Index values are compared as integers (``IndexVector.nums`` over
# ``common``) by artist position: values of one vector share its common
# denominator, so they compare as their ``nums``, and values of two vectors
# are cross-multiplied. A ``Fraction`` is built only for a violation's
# ``details``.


def check_instance(axiom: str, rule: IndexRule, instance: dict):
    """Evaluate one axiom on one instance with exact arithmetic.

    Returns ``(details, skipped)``; ``details`` is ``None`` when the axiom's
    condition holds on the instance. The ``problem`` (and ``modified``) entry
    is a dict of ``artists`` and ``users`` (lists of ids) and ``streams``,
    built and validated here, or a ``Problem`` that is already built
    (generated instances hold built ones). Malformed data raises
    :class:`ShapeMismatch`.
    """
    return _lookup(axiom).check(rule, instance)


def _get_problem(instance: dict, key: str = "problem") -> Problem:
    try:
        d = instance[key]
        if type(d) is Problem:
            return d
        artists, users, streams = d["artists"], d["users"], d["streams"]
        for field, ids in (("artists", artists), ("users", users)):
            # a string is iterable too, and would be read as one id per character
            if not isinstance(ids, (list, tuple)):
                raise TypeError(f"{field!r} must be a list of ids, got {ids!r}")
        return build_problem(artists, users, streams)
    except KeyError as exc:
        raise ShapeMismatch(f"instance is missing {exc}") from None
    except (ProblemError, TypeError) as exc:
        raise ShapeMismatch(f"invalid {key!r}: {exc}") from None


def _modified_pair(instance: dict, key: str) -> tuple[Problem, Problem, str]:
    """The problem, its ``modified`` twin and the manipulating ``key`` ("artist" or "user")."""
    p = _get_problem(instance)
    q = _get_problem(instance, "modified")
    ident = instance.get(key)
    if ident not in (p.artists if key == "artist" else p.users):
        raise ShapeMismatch(f"unknown {key} {ident!r}")
    if p.artists != q.artists or p.users != q.users:
        raise ShapeMismatch("both problems must share artists and users")
    return p, q, ident


def _check_additivity(rule: IndexRule, instance: dict):
    """Index on the whole problem differs from the sum over the user split."""
    p = _get_problem(instance)
    try:
        p1, p2 = split_by_users(p, instance["first_users"], instance["second_users"])
    except (KeyError, ProblemError, TypeError) as exc:
        raise ShapeMismatch(f"invalid user split: {exc}") from None
    whole, part1, part2 = rule(p), rule(p1), rule(p2)
    # w / cw == x / c1 + y / c2, multiplied out by cw * c1 * c2
    cw, c1, c2 = whole.common, part1.common, part2.common
    c12 = c1 * c2
    for i, (w, x, y) in enumerate(zip(whole.nums, part1.nums, part2.nums)):
        if w * c12 != (x * c2 + y * c1) * cw:
            return {
                "artist": p.artists[i],
                "whole": str(whole.values[i]),
                "first_part": str(part1.values[i]),
                "second_part": str(part2.values[i]),
            }, 0
    return None, 0


def _nonempty_subsets(items):
    n = len(items)
    for mask in range(1, 1 << n):
        yield [items[k] for k in range(n) if mask >> k & 1]


def _check_reasonable_lower_bound(rule: IndexRule, instance: dict):
    """Artists streamed by a user group receive less than the group paid."""
    p = _get_problem(instance)
    listening = {u: idx for u, (idx, _) in zip(p.users, p.columns)}
    # payout i is m * nums[i] / total, so a group's payout sum is below its
    # size exactly when m * (the sum of its nums) < size * total
    nums, total = reward_shares(rule(p))
    m = p.m
    subsets = instance.get("user_subsets")
    if subsets is None:
        if p.m > SUBSET_ENUMERATION_CAP:
            raise ShapeMismatch(
                f"{p.m} users requires sampled subsets in the instance"
            )
        subsets = _nonempty_subsets(list(p.users))
    else:
        try:
            subsets = [list(group) for group in subsets]
        except TypeError:
            raise ShapeMismatch("'user_subsets' must be a list of user lists") from None
        for u in chain.from_iterable(subsets):
            if u not in p.users:
                raise ShapeMismatch(f"unknown user {u!r} in 'user_subsets'")
        # a repeated user would count twice in the group's amount paid
        if any(len(set(group)) < len(group) for group in subsets):
            raise ShapeMismatch("a 'user_subsets' group lists a user more than once")
    for group in subsets:
        streamed = set()
        for u in group:
            streamed.update(listening[u])
        got = m * sum([nums[i] for i in streamed])
        if got < len(group) * total:
            return {
                "user_group": sorted(group),
                "streamed_artists": sorted(p.artists[i] for i in streamed),
                "reward_sum": str(Fraction(got, total)),
                "amount_paid": len(group),
            }, 0
    return None, 0


def _check_equal_global_impact_of_users(rule: IndexRule, instance: dict):
    """Removing different users shifts the index total by different amounts."""
    p = _get_problem(instance)
    if p.m < 2:
        return None, 0
    base, *others = [rule(remove_user(p, u)) for u in p.users]
    t0, c0 = sum(base.nums), base.common
    for u, vec in zip(p.users[1:], others):
        if sum(vec.nums) * c0 != t0 * vec.common:
            return {
                "user": p.users[0],
                "other_user": u,
                "total_without_user": str(base.total),
                "total_without_other": str(vec.total),
            }, 0
    return None, 0


def _check_symmetry_on_fans(rule: IndexRule, instance: dict):
    """Two artists with identical fan sets get different index values."""
    p = _get_problem(instance)
    fans = [frozenset(compress(p.users, row)) for row in p.streams]
    vec = rule(p)
    nums = vec.nums
    for x in range(p.n):
        for y in range(x + 1, p.n):
            if fans[x] == fans[y] and nums[x] != nums[y]:
                return {
                    "artist": p.artists[x],
                    "other_artist": p.artists[y],
                    "fans": sorted(fans[x]),
                    "value": str(vec.values[x]),
                    "other_value": str(vec.values[y]),
                }, 0
    return None, 0


def _check_order_preservation(rule: IndexRule, instance: dict):
    """An artist dominated stream-by-stream outranks the dominating artist."""
    p = _get_problem(instance)
    vec = rule(p)
    nums, rows = vec.nums, p.streams
    for x in range(p.n):
        for y in range(p.n):
            if nums[x] > nums[y] and all(s <= t for s, t in zip(rows[x], rows[y])):
                return {
                    "dominated_artist": p.artists[x],
                    "dominating_artist": p.artists[y],
                    "dominated_value": str(vec.values[x]),
                    "dominating_value": str(vec.values[y]),
                }, 0
    return None, 0


def _check_non_unilateral_manipulability(rule: IndexRule, instance: dict):
    """Inflating own streams from existing fans raised the artist's index."""
    p, q, artist = _modified_pair(instance, "artist")
    i = p.artists.index(artist)
    for x in range(p.n):
        if x != i and p.streams[x] != q.streams[x]:
            raise ShapeMismatch("problems differ outside the manipulating artist's row")
    for j in range(p.m):
        lo, hi = p.streams[i][j], q.streams[i][j]
        if lo > hi or (lo == 0) != (hi == 0):
            raise ShapeMismatch(
                "modified row must weakly increase streams without changing the fan set"
            )
    before, after = rule(p), rule(q)
    if after.nums[i] * before.common > before.nums[i] * after.common:
        return {
            "artist": artist,
            "value_before": str(before.values[i]),
            "value_after": str(after.values[i]),
        }, 0
    return None, 0


def _check_equal_impact_of_artists(rule: IndexRule, instance: dict):
    """One artist's departure changes the other's index asymmetrically."""
    p = _get_problem(instance)
    if p.n < 2:
        return None, 0
    vec = rule(p)
    reduced = []
    for a in p.artists:
        try:
            reduced.append(rule(remove_artist(p, a)))
        except SilentUser:
            reduced.append(None)
    v, c = vec.nums, vec.common
    skipped = 0
    for x in range(p.n):
        ra = reduced[x]
        for y in range(x + 1, p.n):
            rb = reduced[y]
            # removal outside the model (a silenced user): not pass, not fail
            if ra is None or rb is None:
                skipped += 1
                continue
            # without artist y, artist x keeps position x; without x, y moves
            # to y - 1. v[x]/c - rb[x]/cb == v[y]/c - ra[y-1]/ca, multiplied
            # out by c * ca * cb:
            ca, cb = ra.common, rb.common
            if (v[x] * cb - rb.nums[x] * c) * ca != (v[y] * ca - ra.nums[y - 1] * c) * cb:
                return {
                    "artist": p.artists[x],
                    "other_artist": p.artists[y],
                    "change_for_artist": str(vec.values[x] - rb.values[x]),
                    "change_for_other": str(vec.values[y] - ra.values[y - 1]),
                }, skipped
    return None, skipped


def _check_null_artists(rule: IndexRule, instance: dict):
    """An artist with zero streams has a nonzero index."""
    p = _get_problem(instance)
    vec = rule(p)
    for i, (x, row) in enumerate(zip(vec.nums, p.streams)):
        if x and not any(row):
            return {"artist": p.artists[i], "value": str(vec.values[i])}, 0
    return None, 0


def _row_ratio(row, other) -> tuple[int, int] | None:
    """The positive constant ratio other/row as ``(num, den)``, or None when
    no such ratio exists."""
    ratio = None
    for x, y in zip(row, other):
        if (x == 0) != (y == 0):
            return None
        if x:
            if ratio is None:
                ratio = (y, x)
            elif y * ratio[1] != ratio[0] * x:
                return None
    return ratio  # None when the base row is all zero


def _check_pairwise_homogeneity(rule: IndexRule, instance: dict):
    """A constant per-user stream ratio between two artists is not preserved."""
    p = _get_problem(instance)
    vec = rule(p)
    nums, rows = vec.nums, p.streams
    for x in range(p.n):
        for y in range(p.n):
            if x == y:
                continue
            ratio = _row_ratio(rows[x], rows[y])
            if ratio is None:
                continue
            num, den = ratio
            if nums[y] * den != num * nums[x]:
                return {
                    "artist": p.artists[x],
                    "other_artist": p.artists[y],
                    "ratio": str(Fraction(num, den)),
                    "value": str(vec.values[x]),
                    "other_value": str(vec.values[y]),
                }, 0
    return None, 0


def _check_click_fraud_proofness(rule: IndexRule, instance: dict):
    """One user's altered streams moved an artist's payout by more than that user's subscription."""
    p, q, user = _modified_pair(instance, "user")
    j = p.users.index(user)
    if p.columns[:j] + p.columns[j + 1:] != q.columns[:j] + q.columns[j + 1:]:
        raise ShapeMismatch("problems differ outside the manipulating user's column")
    before, tp = reward_shares(rule(p))
    after, tq = reward_shares(rule(q))
    m, bound = p.m, tp * tq
    # payout i moves by m * (y / tq - x / tp): by more than 1 exactly when
    # |m * (y * tp - x * tq)| > tp * tq
    for i, (x, y) in enumerate(zip(before, after)):
        if abs(m * (y * tp - x * tq)) > bound:
            return {
                "artist": p.artists[i],
                "user": user,
                "reward_before": str(Fraction(x * m, tp)),
                "reward_after": str(Fraction(y * m, tq)),
            }, 0
    return None, 0


# ---------------------------------------------------------------------------
# Exhaustive small grid
#
# Literal exhaustion over every small matrix is infeasible, so the grid covers
# two complete families that are rich enough to witness every "No" cell of the
# rules-vs-axioms table: all 0/1 support matrices up to 3x3, and all 2x2
# matrices with entries in {0, 1, 3}. Each axiom expands every grid problem
# into its instances.
#
# Grid and random instances hold built problems from the start: the 505 base
# problems are built once per process and shared by every instance expanded
# from them, and each modified problem is built once per axiom. Only the last
# axiom's grid is kept, so a suite that runs axiom by axiom builds each grid
# once and shares it among all its rules. Generated rows, valid by construction,
# are built unvalidated. Plain dicts appear only at the edges: :func:`build_problem`
# validates a supplied instance, and a witness leaves through :func:`instance_to_dict`.


@lru_cache(maxsize=1)
def _grid_problems() -> tuple[Problem, ...]:
    """The 505 base grid problems."""
    shapes = [((0, 1), n, m) for n in (1, 2, 3) for m in (1, 2, 3)] + [((0, 1, 3), 2, 2)]
    grids = ([combo[i * m:(i + 1) * m] for i in range(n)]
             for entries, n, m in shapes for combo in product(entries, repeat=n * m))
    return tuple(_problem(rows) for rows in grids if all(map(any, zip(*rows))))  # no silent user


_ids = lru_cache(None)(lambda prefix, k: tuple([f"{prefix}{i + 1}" for i in range(k)]))


def _problem(rows) -> Problem:
    """The problem of generated ``rows``, its artists named a1.. and its users u1..."""
    rows = tuple(map(tuple, rows))
    return _problem_from_rows(_ids("a", len(rows)), _ids("u", len(rows[0])), rows)


def _with_row(p: Problem, i: int, row) -> Problem:
    """``p`` with row ``i`` of its streams replaced by generated ``row``."""
    return _problem_from_rows(p.artists, p.users, p.streams[:i] + (tuple(row),) + p.streams[i + 1:])


def _with_column(p: Problem, j: int, col) -> Problem:
    """``p`` with column ``j`` of its streams replaced by generated ``col``."""
    return _problem_from_rows(p.artists, p.users, tuple(
        [r[:j] + (x,) + r[j + 1:] for r, x in zip(p.streams, col)]))


def _single(p: Problem):
    return ({"problem": p},)


def _user_splits(p: Problem):
    users = p.users
    for mask in range(1, (1 << (len(users) - 1)) - 1):  # both parts nonempty
        first = [users[0]] + [users[k + 1] for k in range(len(users) - 1) if mask >> k & 1]
        second = [u for u in users if u not in first]
        yield {"problem": p, "first_users": first, "second_users": second}


def _row_inflations(p: Problem):
    for i, (a, row) in enumerate(zip(p.artists, p.streams)):
        if any(row):
            yield {"problem": p, "modified": _with_row(p, i, [3 * x for x in row]),
                   "artist": a}


def _column_variants(col: list):
    """The column reversed and its total moved to the first artist, each if new,
    then the column scaled tenfold."""
    variants = []
    for v in (col[::-1], [sum(col)] + [0] * (len(col) - 1)):
        if v != col and v not in variants:
            variants.append(v)
    return variants + [[10 * x for x in col]]


def _column_changes(p: Problem):
    for j, u in enumerate(p.users):
        for new_col in _column_variants([row[j] for row in p.streams]):
            yield {"problem": p, "modified": _with_column(p, j, new_col), "user": u}


@lru_cache(maxsize=1)
def _grid(axiom: str) -> tuple[dict, ...]:
    """One axiom's exhaustive instances, in scan order."""
    expand = _lookup(axiom).expand
    return tuple(chain.from_iterable(map(expand, _grid_problems())))


def grid_instances(axiom: str) -> tuple[dict, ...]:
    """Deterministic exhaustive instances for one axiom, as plain dicts."""
    return tuple(map(instance_to_dict, _grid(axiom)))


def instance_to_dict(instance: dict) -> dict:
    """A plain copy of ``instance``, each built problem turned back into its dict.

    A copy, so that a caller who edits a witness cannot edit the cached grid.
    """
    return {k: problem_to_dict(v) if type(v) is Problem else deepcopy(v)
            for k, v in instance.items()}


# ---------------------------------------------------------------------------
# Random instance generation
#
# Each generator draws and adjusts plain rows, then builds them unvalidated.


def _below(getrandbits, n: int) -> int:
    """A draw from ``range(n)`` as ``randrange(n)`` makes it on Python 3.10-3.12, at half its
    cost; ``a + _below(bits, b - a + 1)`` draws as ``randint(a, b)``. instances.json pins both."""
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def _random_rows(
    rng: random.Random, min_n: int = 1, min_m: int = 1, zero_chance: float = 0.35
) -> list[list[int]]:
    bits = rng.getrandbits
    n = min_n + _below(bits, MAX_ARTISTS - min_n + 1)
    m = min_m + _below(bits, MAX_USERS - min_m + 1)
    max_entry = HEAVY_ENTRY if rng.random() < HEAVY_CHANCE else MAX_ENTRY
    rows = [
        [0 if rng.random() < zero_chance else 1 + _below(bits, max_entry) for _ in range(m)]
        for _ in range(n)
    ]
    for j in _empty_columns(rows):
        rows[_below(bits, n)][j] = 1 + _below(bits, max_entry)
    return rows


def _empty_columns(rows):
    """Positions of the all-zero columns; refilling column ``j`` leaves the others as they are."""
    return [j for j, col in enumerate(zip(*rows)) if not any(col)]


def _bump_column(rng, rows, j, avoid):
    """Make column j positive without touching rows in ``avoid`` when possible."""
    candidates = [x for x in range(len(rows)) if x not in avoid] or list(avoid)
    rows[rng.choice(candidates)][j] = rng.randint(1, 3)


def _refill_pair(rng, rows, i, k, partner):
    """Refill empty columns from rows other than ``i`` and ``k``, if any.

    With only those two rows, row ``i`` gets a fresh entry ``v`` and row
    ``k`` gets ``partner(v)``.
    """
    for j in _empty_columns(rows):
        if len(rows) > 2:
            _bump_column(rng, rows, j, {i, k})
        else:
            rows[i][j] = rng.randint(1, MAX_ENTRY)
            rows[k][j] = partner(rows[i][j])


def _plain(**shape):
    """A generator of bare random problems of the given shape."""
    return lambda rng: {"problem": _problem(_random_rows(rng, **shape))}


def _generate_additivity(rng):
    p = _problem(_random_rows(rng, min_m=2))
    while True:
        first = [u for u in p.users if rng.random() < 0.5]
        second = [u for u in p.users if u not in first]
        if first and second:
            return {"problem": p, "first_users": first, "second_users": second}


def _generate_symmetry_on_fans(rng):
    rows = _random_rows(rng, min_n=2)
    if rng.random() < 0.7:
        i, k = rng.sample(range(len(rows)), 2)
        rows[k] = [0 if x == 0 else rng.randint(1, MAX_ENTRY) for x in rows[i]]
        _refill_pair(rng, rows, i, k, lambda v: rng.randint(1, MAX_ENTRY))
    return {"problem": _problem(rows)}


def _generate_order_preservation(rng):
    rows = _random_rows(rng, min_n=2)
    if rng.random() < 0.6:
        i, k = rng.sample(range(len(rows)), 2)
        rows[k] = [x + rng.randint(0, 2) for x in rows[i]]
        for j in _empty_columns(rows):
            # bumping the dominating row keeps the domination intact
            rows[k][j] += rng.randint(1, 2)
    return {"problem": _problem(rows)}


def _generate_non_unilateral_manipulability(rng):
    rows = _random_rows(rng)
    i = rng.choice([x for x in range(len(rows)) if any(rows[x])])
    new_row = [x + (rng.randint(0, MAX_ENTRY) if x else 0) for x in rows[i]]
    p = _problem(rows)
    return {"problem": p, "modified": _with_row(p, i, new_row), "artist": p.artists[i]}


def _generate_null_artists(rng):
    rows = _random_rows(rng, min_n=2)
    i = rng.randrange(len(rows))
    rows[i] = [0] * len(rows[i])
    for j in _empty_columns(rows):
        _bump_column(rng, rows, j, {i})
    return {"problem": _problem(rows)}


def _generate_pairwise_homogeneity(rng):
    rows = _random_rows(rng, min_n=2)
    if rng.random() < 0.7:
        i, k = rng.sample(range(len(rows)), 2)
        if not any(rows[i]):
            rows[i] = [rng.randint(1, MAX_ENTRY) for _ in rows[i]]
        mult = rng.choice((2, 3))
        rows[k] = [mult * x for x in rows[i]]
        _refill_pair(rng, rows, i, k, lambda v: mult * v)
    return {"problem": _problem(rows)}


def _generate_click_fraud_proofness(rng):
    rows = _random_rows(rng)
    n = len(rows)
    j = rng.randrange(len(rows[0]))
    col = [row[j] for row in rows]
    style = rng.random()
    if style < 0.4:
        new_col = [0] * n
        new_col[rng.randrange(n)] = rng.randint(1, HEAVY_ENTRY)
    elif style < 0.7:
        new_col = list(reversed(col))
    else:
        scale = rng.randint(2, 50)
        new_col = [scale * x for x in col]
    p = _problem(rows)
    return {"problem": p, "modified": _with_column(p, j, new_col), "user": p.users[j]}


def generate_instance(axiom: str, rng: random.Random) -> dict:
    """Draw one random instance of the shape the axiom expects, its problems built.

    :func:`instance_to_dict` turns it into plain data.
    """
    return _lookup(axiom).generate(rng)


# ---------------------------------------------------------------------------
# The axiom registry


@dataclass(frozen=True)
class Axiom:
    """One axiom: its single-instance check, a random-instance generator, and
    the instances it builds from one grid problem."""

    check: Callable[[IndexRule, dict], tuple[dict | None, int]]
    generate: Callable[[random.Random], dict]
    expand: Callable[[Problem], Iterable[dict]] = _single


AXIOMS: dict[str, Axiom] = {
    "additivity": Axiom(_check_additivity, _generate_additivity, _user_splits),
    "reasonable_lower_bound": Axiom(_check_reasonable_lower_bound, _plain()),
    "equal_global_impact_of_users": Axiom(
        _check_equal_global_impact_of_users, _plain(min_m=2)),
    "symmetry_on_fans": Axiom(_check_symmetry_on_fans, _generate_symmetry_on_fans),
    "order_preservation": Axiom(_check_order_preservation, _generate_order_preservation),
    "non_unilateral_manipulability": Axiom(
        _check_non_unilateral_manipulability, _generate_non_unilateral_manipulability,
        _row_inflations),
    # dense matrices keep most artist removals inside the model
    "equal_impact_of_artists": Axiom(
        _check_equal_impact_of_artists, _plain(min_n=2, zero_chance=0.15)),
    "null_artists": Axiom(_check_null_artists, _generate_null_artists),
    "pairwise_homogeneity": Axiom(
        _check_pairwise_homogeneity, _generate_pairwise_homogeneity),
    "click_fraud_proofness": Axiom(
        _check_click_fraud_proofness, _generate_click_fraud_proofness, _column_changes),
}

AXIOM_IDS = tuple(AXIOMS)


def _lookup(axiom: str) -> Axiom:
    try:
        return AXIOMS[axiom]
    except KeyError:
        raise UnknownAxiom(f"unknown axiom {axiom!r}") from None


# ---------------------------------------------------------------------------
# Audits


def audit(axiom: str, rule: IndexRule, trials: int = DEFAULT_TRIALS, seed: int = 42) -> Verdict:
    """Search for a counterexample: exhaustive grid first, then seeded trials.

    Deterministic in ``seed``; the earliest counterexample in the fixed scan
    order is the one reported.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    grid = _grid(axiom)
    rng = random.Random(f"{seed}|{axiom}|{rule.name}")
    drawn = (generate_instance(axiom, rng) for _ in range(trials))
    skipped = 0
    for k, instance in enumerate(chain(grid, drawn), 1):
        details, sk = check_instance(axiom, rule, instance)
        skipped += sk
        if details is not None:
            grid_cases = min(k, len(grid))
            return Verdict(axiom, rule.name, "counterexample", k - grid_cases,
                           grid_cases, skipped, seed, instance_to_dict(instance), details)
    return Verdict(axiom, rule.name, "holds", trials, len(grid), skipped, seed)


def replay_witness(verdict: Verdict, rule: IndexRule) -> bool:
    """Re-run the single-instance check on a stored witness.

    True when the recorded violation reproduces exactly.
    """
    if verdict.witness is None:
        return False
    details, _ = check_instance(verdict.axiom, rule, verdict.witness)
    return details is not None and details == verdict.details


@dataclass(frozen=True)
class SuiteResult:
    kind: str  # "table" or "independence"
    trials: int
    seed: int
    cells: tuple[Verdict, ...]

    @property
    def all_match(self) -> bool:
        return all(c.matches for c in self.cells)

    @property
    def mismatches(self) -> tuple[Verdict, ...]:
        return tuple(c for c in self.cells if not c.matches)


def _run_suite(kind: str, claims, trials: int, seed: int) -> SuiteResult:
    """One cell per claim ``(axiom_set, axiom, rule, expected_holds)``, in claim order.

    Each distinct (axiom, rule) pair is audited once, axiom by axiom so that
    every axiom's grid is built once.
    """
    pairs = sorted(dict.fromkeys((axiom, rule) for _, axiom, rule, _ in claims),
                   key=lambda pair: AXIOM_IDS.index(pair[0]))
    verdicts = {(axiom, rule): audit(axiom, make_rule(rule, seed=seed), trials, seed)
                for axiom, rule in pairs}
    return SuiteResult(kind, trials, seed, tuple(
        replace(verdicts[axiom, rule], expected="holds" if holds else "counterexample",
                axiom_set=set_name)
        for set_name, axiom, rule, holds in claims))


# ---------------------------------------------------------------------------
# The rules-vs-axioms table


TABLE1_EXPECTED: dict[str, dict[str, bool]] = {
    "additivity": {"shapley": True, "pro-rata": True, "user-centric": True},
    "reasonable_lower_bound": {"shapley": True, "pro-rata": False, "user-centric": True},
    "equal_global_impact_of_users": {"shapley": True, "pro-rata": False, "user-centric": True},
    "symmetry_on_fans": {"shapley": True, "pro-rata": False, "user-centric": False},
    "order_preservation": {"shapley": True, "pro-rata": True, "user-centric": True},
    "non_unilateral_manipulability": {"shapley": True, "pro-rata": False, "user-centric": False},
    "null_artists": {"shapley": True, "pro-rata": True, "user-centric": True},
    "equal_impact_of_artists": {"shapley": True, "pro-rata": True, "user-centric": False},
    "pairwise_homogeneity": {"shapley": False, "pro-rata": True, "user-centric": True},
    "click_fraud_proofness": {"shapley": True, "pro-rata": False, "user-centric": True},
}


def reproduce_table(trials: int = DEFAULT_TRIALS, seed: int = 42) -> SuiteResult:
    """Audit every (axiom, rule) cell of the expected satisfaction table."""
    return _run_suite("table", [(None, axiom, name, TABLE1_EXPECTED[axiom][name])
                                for axiom in AXIOM_IDS for name in TABLE_RULE_NAMES],
                      trials, seed)


# ---------------------------------------------------------------------------
# Independence suites
#
# Three characterization axiom sets; within each, every deviant rule is
# expected to fail exactly one designated axiom and pass the rest.


THEOREM_AXIOM_SETS: dict[str, tuple[str, ...]] = {
    "fan-symmetry": (
        "additivity",
        "reasonable_lower_bound",
        "equal_global_impact_of_users",
        "symmetry_on_fans",
    ),
    "manipulation": (
        "additivity",
        "reasonable_lower_bound",
        "equal_global_impact_of_users",
        "order_preservation",
        "non_unilateral_manipulability",
    ),
    "artist-removal": (
        "additivity",
        "reasonable_lower_bound",
        "equal_global_impact_of_users",
        "equal_impact_of_artists",
    ),
}

INDEPENDENCE_CLAIMS: tuple[tuple[str, str, str], ...] = (
    # (axiom set, deviant rule, the one axiom it is expected to fail)
    ("fan-symmetry", "active-uniform", "additivity"),
    ("fan-symmetry", "uniform", "reasonable_lower_bound"),
    ("fan-symmetry", "user-weighted", "equal_global_impact_of_users"),
    ("fan-symmetry", "user-centric", "symmetry_on_fans"),
    ("manipulation", "active-uniform", "additivity"),
    ("manipulation", "uniform", "reasonable_lower_bound"),
    ("manipulation", "user-weighted", "equal_global_impact_of_users"),
    ("manipulation", "artist-weighted", "order_preservation"),
    ("manipulation", "user-centric", "non_unilateral_manipulability"),
    ("artist-removal", "active-uniform", "additivity"),
    ("artist-removal", "uniform", "reasonable_lower_bound"),
    ("artist-removal", "user-weighted", "equal_global_impact_of_users"),
    ("artist-removal", "user-centric", "equal_impact_of_artists"),
)


def independence_suite(trials: int = DEFAULT_TRIALS, seed: int = 42) -> SuiteResult:
    """Audit every deviant rule against its characterization axiom set."""
    return _run_suite("independence", [(set_name, axiom, rule, axiom != fails)
                                       for set_name, rule, fails in INDEPENDENCE_CLAIMS
                                       for axiom in THEOREM_AXIOM_SETS[set_name]],
                      trials, seed)
