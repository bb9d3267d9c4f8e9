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
must above 10 users.
"""

from __future__ import annotations

import random
from copy import deepcopy
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain, compress, product
from typing import Callable, Iterable

from .core import (
    Problem,
    ProblemError,
    SilentUser,
    build_problem,
    remove_artist,
    remove_user,
    split_by_users,
)
from .indices import (
    TABLE_RULE_NAMES,
    IndexRule,
    common_numerators,
    make_rule,
    rewards,
)

SUBSET_ENUMERATION_CAP = 10

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

    @property
    def holds(self) -> bool:
        return self.outcome == "holds"


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


def check_instance(axiom: str, rule: IndexRule, instance: dict):
    """Evaluate one axiom on one instance with exact arithmetic.

    Returns ``(details, skipped)``; ``details`` is ``None`` when the axiom's
    condition holds on the instance. The ``problem`` (and ``modified``) entry
    is a dict of ``artists``, ``users`` and ``streams``, built and validated
    here, or a ``Problem`` that is already built (the audit grid's are).
    """
    return _lookup(axiom).check(rule, instance)


def _get_problem(instance: dict, key: str = "problem") -> Problem:
    try:
        d = instance[key]
        return d if type(d) is Problem else _build(d)
    except KeyError:
        raise ShapeMismatch(f"instance is missing {key!r}") from None
    except ProblemError as exc:
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
    except (KeyError, ProblemError) as exc:
        raise ShapeMismatch(str(exc)) from None
    whole, part1, part2 = rule(p), rule(p1), rule(p2)
    for a in p.artists:
        if whole[a] != part1[a] + part2[a]:
            return {
                "artist": a,
                "whole": str(whole[a]),
                "first_part": str(part1[a]),
                "second_part": str(part2[a]),
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
    # payout i is nums[i] / common: group sums compare as integers
    common, nums = common_numerators(rewards(rule(p), p))
    subsets = instance.get("user_subsets")
    if subsets is None:
        if p.m > SUBSET_ENUMERATION_CAP:
            raise ShapeMismatch(
                f"{p.m} users requires sampled subsets in the instance"
            )
        subsets = _nonempty_subsets(list(p.users))
    for group in subsets:
        streamed = set()
        try:
            for u in group:
                streamed.update(listening[u])
        except KeyError as exc:  # only a supplied subset can name an unknown user
            raise ShapeMismatch(f"unknown user {exc.args[0]!r} in 'user_subsets'") from None
        got = sum([nums[i] for i in streamed])
        if got < len(group) * common:
            return {
                "user_group": sorted(group),
                "streamed_artists": sorted(p.artists[i] for i in streamed),
                "reward_sum": str(Fraction(got, common)),
                "amount_paid": len(group),
            }, 0
    return None, 0


def _check_equal_global_impact_of_users(rule: IndexRule, instance: dict):
    """Removing different users shifts the index total by different amounts."""
    p = _get_problem(instance)
    if p.m < 2:
        return None, 0
    totals = {u: rule(remove_user(p, u)).total for u in p.users}
    base = p.users[0]
    for u in p.users[1:]:
        if totals[u] != totals[base]:
            return {
                "user": base,
                "other_user": u,
                "total_without_user": str(totals[base]),
                "total_without_other": str(totals[u]),
            }, 0
    return None, 0


def _check_symmetry_on_fans(rule: IndexRule, instance: dict):
    """Two artists with identical fan sets get different index values."""
    p = _get_problem(instance)
    fans = {a: frozenset(compress(p.users, row)) for a, row in zip(p.artists, p.streams)}
    vec = rule(p)
    for x, a in enumerate(p.artists):
        for b in p.artists[x + 1:]:
            if fans[a] == fans[b] and vec[a] != vec[b]:
                return {
                    "artist": a,
                    "other_artist": b,
                    "fans": sorted(fans[a]),
                    "value": str(vec[a]),
                    "other_value": str(vec[b]),
                }, 0
    return None, 0


def _check_order_preservation(rule: IndexRule, instance: dict):
    """An artist dominated stream-by-stream outranks the dominating artist."""
    p = _get_problem(instance)
    vec = rule(p)
    for x, a in enumerate(p.artists):
        for y, b in enumerate(p.artists):
            if x == y:
                continue
            if all(p.streams[x][j] <= p.streams[y][j] for j in range(p.m)):
                if vec[a] > vec[b]:
                    return {
                        "dominated_artist": a,
                        "dominating_artist": b,
                        "dominated_value": str(vec[a]),
                        "dominating_value": str(vec[b]),
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
    before = rule(p)[artist]
    after = rule(q)[artist]
    if after > before:
        return {
            "artist": artist,
            "value_before": str(before),
            "value_after": str(after),
        }, 0
    return None, 0


def _check_equal_impact_of_artists(rule: IndexRule, instance: dict):
    """One artist's departure changes the other's index asymmetrically."""
    p = _get_problem(instance)
    if p.n < 2:
        return None, 0
    vec = rule(p)
    reduced: dict[str, object] = {}
    for a in p.artists:
        try:
            reduced[a] = rule(remove_artist(p, a))
        except SilentUser:
            reduced[a] = None
    skipped = 0
    for x, a in enumerate(p.artists):
        for b in p.artists[x + 1:]:
            # removal outside the model (a silenced user): not pass, not fail
            if reduced[a] is None or reduced[b] is None:
                skipped += 1
                continue
            lhs = vec[a] - reduced[b][a]
            rhs = vec[b] - reduced[a][b]
            if lhs != rhs:
                return {
                    "artist": a,
                    "other_artist": b,
                    "change_for_artist": str(lhs),
                    "change_for_other": str(rhs),
                }, skipped
    return None, skipped


def _check_null_artists(rule: IndexRule, instance: dict):
    """An artist with zero streams has a nonzero index."""
    p = _get_problem(instance)
    vec = rule(p)
    for a, row in zip(p.artists, p.streams):
        if not any(row) and vec[a] != 0:
            return {"artist": a, "value": str(vec[a])}, 0
    return None, 0


def _row_ratio(row, other) -> Fraction | None:
    """The positive constant ratio other/row, or None when no such ratio exists."""
    ratio = None
    for x, y in zip(row, other):
        if (x == 0) != (y == 0):
            return None
        if x:
            r = Fraction(y, x)
            if ratio is None:
                ratio = r
            elif r != ratio:
                return None
    return ratio  # None when the base row is all zero


def _check_pairwise_homogeneity(rule: IndexRule, instance: dict):
    """A constant per-user stream ratio between two artists is not preserved."""
    p = _get_problem(instance)
    vec = rule(p)
    for x, a in enumerate(p.artists):
        for y, b in enumerate(p.artists):
            if x == y:
                continue
            ratio = _row_ratio(p.streams[x], p.streams[y])
            if ratio is None:
                continue
            if vec[b] != ratio * vec[a]:
                return {
                    "artist": a,
                    "other_artist": b,
                    "ratio": str(ratio),
                    "value": str(vec[a]),
                    "other_value": str(vec[b]),
                }, 0
    return None, 0


def _check_click_fraud_proofness(rule: IndexRule, instance: dict):
    """One user's altered streams moved an artist's payout by more than that user's subscription."""
    p, q, user = _modified_pair(instance, "user")
    j = p.users.index(user)
    for x in range(p.n):
        row_p = p.streams[x][:j] + p.streams[x][j + 1:]
        row_q = q.streams[x][:j] + q.streams[x][j + 1:]
        if row_p != row_q:
            raise ShapeMismatch("problems differ outside the manipulating user's column")
    before = dict(zip(p.artists, rewards(rule(p), p)))
    after = dict(zip(q.artists, rewards(rule(q), q)))
    for a in p.artists:
        delta = after[a] - before[a]
        if delta > 1 or delta < -1:
            return {
                "artist": a,
                "user": user,
                "reward_before": str(before[a]),
                "reward_after": str(after[a]),
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
# An audit scans the grid as built problems: the 505 base problems are built
# once per process and shared by every instance expanded from them, and each
# modified problem is built once per axiom. Only the last axiom's prepared
# grid is kept, so a suite that runs axiom by axiom builds each grid once and
# shares it among all its rules.


@lru_cache(maxsize=1)
def _grid_problems() -> tuple[tuple[dict, Problem], ...]:
    """The base grid problems, each as a dict and as the ``Problem`` built from it."""
    out = []
    for n in (1, 2, 3):
        for m in (1, 2, 3):
            for combo in product((0, 1), repeat=n * m):
                rows = [list(combo[i * m:(i + 1) * m]) for i in range(n)]
                if all(any(rows[i][j] for i in range(n)) for j in range(m)):
                    out.append(_grid_dict(rows))
    for combo in product((0, 1, 3), repeat=4):
        rows = [list(combo[:2]), list(combo[2:])]
        if all(any(rows[i][j] for i in range(2)) for j in range(2)):
            out.append(_grid_dict(rows))
    return tuple((d, _build(d)) for d in out)


def _build(d: dict) -> Problem:
    return build_problem(d["artists"], d["users"], d["streams"])


def _grid_dict(rows) -> dict:
    n, m = len(rows), len(rows[0])
    return {
        "artists": [f"a{i + 1}" for i in range(n)],
        "users": [f"u{j + 1}" for j in range(m)],
        "streams": rows,
    }


def _with_row(d: dict, i: int, row) -> dict:
    """``d`` with row ``i`` of its streams replaced."""
    return {**d, "streams": [list(row if x == i else r) for x, r in enumerate(d["streams"])]}


def _with_column(d: dict, j: int, col) -> dict:
    """``d`` with column ``j`` of its streams replaced."""
    return {**d, "streams": [r[:j] + [x] + r[j + 1:] for r, x in zip(d["streams"], col)]}


def _single(d: dict):
    return ({"problem": d},)


def _user_splits(d: dict):
    users = d["users"]
    for mask in range(1, 1 << (len(users) - 1)):
        first = [users[0]] + [
            users[k + 1] for k in range(len(users) - 1) if mask >> k & 1
        ]
        second = [u for u in users if u not in first]
        if second:
            yield {"problem": d, "first_users": first, "second_users": second}


def _row_inflations(d: dict):
    for i, a in enumerate(d["artists"]):
        if any(d["streams"][i]):
            modified = _with_row(d, i, [3 * x for x in d["streams"][i]])
            yield {"problem": d, "modified": modified, "artist": a}


def _column_variants(col):
    variants = []
    rev = list(reversed(col))
    if rev != list(col):
        variants.append(rev)
    total = sum(col)
    spike = [0] * len(col)
    spike[0] = total
    if spike != list(col) and spike not in variants:
        variants.append(spike)
    scaled = [10 * x for x in col]
    variants.append(scaled)
    return variants


def _column_changes(d: dict):
    for j, u in enumerate(d["users"]):
        for new_col in _column_variants([row[j] for row in d["streams"]]):
            yield {"problem": d, "modified": _with_column(d, j, new_col), "user": u}


def grid_instances(axiom: str) -> tuple[dict, ...]:
    """Deterministic exhaustive instances for one axiom, as plain dicts."""
    expand = _lookup(axiom).expand
    return tuple(chain.from_iterable(expand(d) for d, _ in _grid_problems()))


@lru_cache(maxsize=1)
def _prepared_grid(axiom: str) -> tuple[dict, ...]:
    """``grid_instances(axiom)`` with every problem built."""
    expand = _lookup(axiom).expand
    out = []
    for d, p in _grid_problems():
        for inst in expand(d):
            built = {**inst, "problem": p}
            if "modified" in inst:
                built["modified"] = _build(inst["modified"])
            out.append(built)
    return tuple(out)


def _as_dicts(instance: dict) -> dict:
    """A plain copy of ``instance``, each built problem turned back into its dict.

    A copy, so that a caller who edits a witness cannot edit the cached grid.
    """
    return {k: problem_to_dict(v) if type(v) is Problem else deepcopy(v)
            for k, v in instance.items()}


# ---------------------------------------------------------------------------
# Random instance generation


def _random_problem_dict(
    rng: random.Random, min_n: int = 1, min_m: int = 1, zero_chance: float = 0.35
) -> dict:
    n = rng.randint(min_n, MAX_ARTISTS)
    m = rng.randint(min_m, MAX_USERS)
    max_entry = HEAVY_ENTRY if rng.random() < HEAVY_CHANCE else MAX_ENTRY
    rows = [
        [0 if rng.random() < zero_chance else rng.randint(1, max_entry) for _ in range(m)]
        for _ in range(n)
    ]
    for j in _empty_columns(rows):
        rows[rng.randrange(n)][j] = rng.randint(1, max_entry)
    return _grid_dict(rows)


def _empty_columns(rows):
    """Positions of the all-zero columns, each tested once the earlier ones are refilled."""
    for j in range(len(rows[0])):
        if not any(row[j] for row in rows):
            yield j


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
    return lambda rng: {"problem": _random_problem_dict(rng, **shape)}


def _generate_additivity(rng):
    d = _random_problem_dict(rng, min_m=2)
    users = d["users"]
    while True:
        first = [u for u in users if rng.random() < 0.5]
        second = [u for u in users if u not in first]
        if first and second:
            return {"problem": d, "first_users": first, "second_users": second}


def _generate_symmetry_on_fans(rng):
    d = _random_problem_dict(rng, min_n=2)
    if rng.random() < 0.7:
        rows = d["streams"]
        i, k = rng.sample(range(len(rows)), 2)
        rows[k] = [0 if x == 0 else rng.randint(1, MAX_ENTRY) for x in rows[i]]
        _refill_pair(rng, rows, i, k, lambda v: rng.randint(1, MAX_ENTRY))
    return {"problem": d}


def _generate_order_preservation(rng):
    d = _random_problem_dict(rng, min_n=2)
    if rng.random() < 0.6:
        rows = d["streams"]
        i, k = rng.sample(range(len(rows)), 2)
        rows[k] = [x + rng.randint(0, 2) for x in rows[i]]
        for j in _empty_columns(rows):
            # bumping the dominating row keeps the domination intact
            rows[k][j] += rng.randint(1, 2)
    return {"problem": d}


def _generate_non_unilateral_manipulability(rng):
    d = _random_problem_dict(rng)
    rows = d["streams"]
    i = rng.choice([x for x in range(len(rows)) if any(rows[x])])
    new_row = [x + (rng.randint(0, MAX_ENTRY) if x else 0) for x in rows[i]]
    return {"problem": d, "modified": _with_row(d, i, new_row), "artist": d["artists"][i]}


def _generate_null_artists(rng):
    d = _random_problem_dict(rng, min_n=2)
    rows = d["streams"]
    i = rng.randrange(len(rows))
    rows[i] = [0] * len(rows[i])
    for j in _empty_columns(rows):
        _bump_column(rng, rows, j, {i})
    return {"problem": d}


def _generate_pairwise_homogeneity(rng):
    d = _random_problem_dict(rng, min_n=2)
    if rng.random() < 0.7:
        rows = d["streams"]
        i, k = rng.sample(range(len(rows)), 2)
        if not any(rows[i]):
            rows[i] = [rng.randint(1, MAX_ENTRY) for _ in rows[i]]
        mult = rng.choice((2, 3))
        rows[k] = [mult * x for x in rows[i]]
        _refill_pair(rng, rows, i, k, lambda v: mult * v)
    return {"problem": d}


def _generate_click_fraud_proofness(rng):
    d = _random_problem_dict(rng)
    n = len(d["artists"])
    j = rng.randrange(len(d["users"]))
    col = [row[j] for row in d["streams"]]
    style = rng.random()
    if style < 0.4:
        new_col = [0] * n
        new_col[rng.randrange(n)] = rng.randint(1, HEAVY_ENTRY)
    elif style < 0.7:
        new_col = list(reversed(col))
    else:
        scale = rng.randint(2, 50)
        new_col = [scale * x for x in col]
    return {"problem": d, "modified": _with_column(d, j, new_col), "user": d["users"][j]}


def generate_instance(axiom: str, rng: random.Random) -> dict:
    """Draw one random instance of the shape the axiom expects."""
    return _lookup(axiom).generate(rng)


# ---------------------------------------------------------------------------
# The axiom registry


@dataclass(frozen=True)
class Axiom:
    """One axiom: its single-instance check, a random-instance generator, and
    the instances it builds from one grid problem."""

    check: Callable[[IndexRule, dict], tuple[dict | None, int]]
    generate: Callable[[random.Random], dict]
    expand: Callable[[dict], Iterable[dict]] = _single


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


def audit(axiom: str, rule: IndexRule, trials: int = 500, seed: int = 42) -> Verdict:
    """Search for a counterexample: exhaustive grid first, then seeded trials.

    Deterministic in ``seed``; the earliest counterexample in the fixed scan
    order is the one reported.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    grid = _prepared_grid(axiom)
    rng = random.Random(f"{seed}|{axiom}|{rule.name}")
    drawn = (generate_instance(axiom, rng) for _ in range(trials))
    skipped = 0
    for k, instance in enumerate(chain(grid, drawn), 1):
        details, sk = check_instance(axiom, rule, instance)
        skipped += sk
        if details is not None:
            grid_cases = min(k, len(grid))
            return Verdict(axiom, rule.name, "counterexample", k - grid_cases,
                           grid_cases, skipped, seed, _as_dicts(instance), details)
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
class AuditCell:
    """One audited (axiom, rule) pair and the outcome it is expected to have.

    ``axiom_set`` names the characterization of an independence-suite cell.
    """

    verdict: Verdict
    expected_holds: bool
    axiom_set: str | None = None

    @property
    def axiom(self) -> str:
        return self.verdict.axiom

    @property
    def rule(self) -> str:
        return self.verdict.rule

    @property
    def matches(self) -> bool:
        return self.verdict.holds == self.expected_holds


@dataclass(frozen=True)
class SuiteResult:
    kind: str  # "table" or "independence"
    trials: int
    seed: int
    cells: tuple[AuditCell, ...]

    @property
    def all_match(self) -> bool:
        return all(c.matches for c in self.cells)

    @property
    def mismatches(self) -> tuple[AuditCell, ...]:
        return tuple(c for c in self.cells if not c.matches)


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


def reproduce_table(trials: int = 500, seed: int = 42) -> SuiteResult:
    """Audit every (axiom, rule) cell of the expected satisfaction table."""
    cells = tuple(
        AuditCell(audit(axiom, make_rule(name, seed=seed), trials, seed),
                  TABLE1_EXPECTED[axiom][name])
        for axiom in AXIOM_IDS
        for name in TABLE_RULE_NAMES
    )
    return SuiteResult("table", trials, seed, cells)


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


def independence_suite(trials: int = 200, seed: int = 42) -> SuiteResult:
    """Audit every deviant rule against its characterization axiom set.

    Each distinct (axiom, rule) pair is audited once, axiom by axiom so that
    every axiom's grid is built once; the cells then follow the claims.
    """
    claimed = [(set_name, axiom, rule, axiom != fails)
               for set_name, rule, fails in INDEPENDENCE_CLAIMS
               for axiom in THEOREM_AXIOM_SETS[set_name]]
    pairs = sorted({(axiom, rule) for _, axiom, rule, _ in claimed},
                   key=lambda pair: (AXIOM_IDS.index(pair[0]), pair[1]))
    verdicts = {(axiom, rule): audit(axiom, make_rule(rule, seed=seed), trials, seed)
                for axiom, rule in pairs}
    cells = tuple(AuditCell(verdicts[axiom, rule], holds, set_name)
                  for set_name, axiom, rule, holds in claimed)
    return SuiteResult("independence", trials, seed, cells)
