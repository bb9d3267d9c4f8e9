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
every applicable pair or subset inside each instance. A trial is one of the
instances an axiom expands a random problem into (:func:`generate_instance`), as
it expands each grid problem. Random problems have at most 5 artists and 5 users.
"""

from __future__ import annotations

import random
from collections import namedtuple
from functools import lru_cache, partial
from itertools import chain, compress, product
from math import gcd
from operator import le

from .core import (Problem, ProblemError, SilentUser, _problem_from_rows, build_problem,
                   remove_artist, remove_user, split_by_users)
from .game import TooManyArtists, _user_mask_counts
from .indices import TABLE_RULE_NAMES, IndexRule, _ratio, make_rule, reward_shares

DEFAULT_TRIALS = 500

# Random problems: up to MAX_ARTISTS x MAX_USERS, each entry 0 by ZERO_CHANCE, else
# up to MAX_ENTRY. A HEAVY_CHANCE share of trials caps entries at HEAVY_ENTRY instead,
# which is what exposes ratio-sensitive violations (for example, reward shifts under a
# single user's extreme stream counts).
MAX_ARTISTS = 5
MAX_USERS = 5
MAX_ENTRY = 5
HEAVY_ENTRY = 200
HEAVY_CHANCE = 0.15
ZERO_CHANCE = 0.35


class ShapeMismatch(ValueError):
    """Instance data does not fit the axiom's expected shape."""


class UnknownAxiom(ValueError):
    pass


class Verdict(namedtuple("Verdict", "axiom rule outcome trials grid_cases skipped seed "
                                    "witness details expected axiom_set", defaults=(None,) * 4)):
    """``outcome`` is "holds" or "counterexample"; ``expected`` is a suite cell's
    expected outcome, ``axiom_set`` an independence cell's characterization."""
    __slots__ = ()

    @property
    def holds(self) -> bool:
        return self.outcome == "holds"

    @property
    def matches(self) -> bool:
        return self.outcome == self.expected


def problem_to_dict(p: Problem) -> dict:
    return {"artists": list(p.artists), "users": list(p.users),
            "streams": [list(row) for row in p.streams]}


# ---------------------------------------------------------------------------
# Single-instance checks
#
# An axiom checks in two steps. ``prepare(instance)`` does what no rule changes:
# it builds and validates the problems and derives the split parts, removals,
# worth table or checked manipulation. ``check(rule, prepared)`` scores that under
# ``rule``, any callable from a problem to its vector, and returns ``(details,
# skipped)``: ``details`` is the violation (``None`` when the axiom holds; each
# docstring says what a violation means), ``skipped`` counts quantified cases
# whose reduced problem falls outside the model (only the artist-removal axiom).
#
# Index values are compared as integers (``IndexVector.nums`` over
# ``common``) by artist position: values of one vector share its common
# denominator, so they compare as their ``nums``, and values of two vectors
# are cross-multiplied. A violation's ``details`` print each number through
# ``indices._ratio``, in lowest terms, with no ``Fraction`` built.


def check_instance(axiom: str, rule: IndexRule, instance: dict):
    """Evaluate one axiom on one instance with exact arithmetic: ``check(rule, prepare(instance))``.

    Returns ``(details, skipped)``, ``details`` being ``None`` when the axiom holds. The
    ``problem`` (and ``modified``) entry is a dict of ``artists`` and ``users`` (lists of
    ids) and ``streams``, built and validated here, or a ``Problem`` that is already
    built (generated instances hold built ones). Malformed data raises :class:`ShapeMismatch`.
    """
    ax = _lookup(axiom)
    return ax.check(rule, ax.prepare(instance))


def _get_problem(instance: dict, key: str = "problem") -> Problem:
    try:
        d = instance[key]
        if type(d) is Problem:
            return d
        return build_problem(d["artists"], d["users"], d["streams"])
    except KeyError as exc:
        raise ShapeMismatch(f"instance is missing {exc}") from None
    except (ProblemError, TypeError) as exc:
        raise ShapeMismatch(f"invalid {key!r}: {exc}") from None


def _modified_pair(instance: dict, key: str) -> tuple[Problem, Problem, str, int]:
    """The problem, its ``modified`` twin, the manipulating ``key`` ("artist" or "user")
    and its position. The two may differ only in that artist's row, whose streams may
    grow but gain or lose no fan, or in that user's column."""
    p = _get_problem(instance)
    q = _get_problem(instance, "modified")
    ident, ids = instance.get(key), p.artists if key == "artist" else p.users
    if ident not in ids:
        raise ShapeMismatch(f"unknown {key} {ident!r}")
    if p.artists != q.artists or p.users != q.users:
        raise ShapeMismatch("both problems must share artists and users")
    k = ids.index(ident)
    a, b = (p.streams, q.streams) if key == "artist" else (p.columns, q.columns)
    if a[:k] + a[k + 1:] != b[:k] + b[k + 1:]:
        part = "row" if key == "artist" else "column"
        raise ShapeMismatch(f"problems differ outside the manipulating {key}'s {part}")
    if key == "artist" and any(lo > hi or (lo == 0) != (hi == 0) for lo, hi in zip(a[k], b[k])):
        raise ShapeMismatch(
            "modified row must weakly increase streams without changing the fan set")
    return p, q, ident, k


def _same(x: int, dx: int, y: int, dy: int) -> bool:
    """``x * dy == y * dx``: ``x / dx == y / dy`` multiplied out, if ``dx, dy != 0``."""
    return x * dy == y * dx


def _prepare_additivity(instance: dict):
    p = _get_problem(instance)
    try:
        return (p, *split_by_users(p, instance["first_users"], instance["second_users"]))
    except (KeyError, ProblemError, TypeError) as exc:
        raise ShapeMismatch(f"invalid user split: {exc}") from None


def _check_additivity(rule, prepared):
    """Index on the whole problem differs from the sum over the user split."""
    p, p1, p2 = prepared
    whole, part1, part2 = rule(p), rule(p1), rule(p2)
    cw, c1, c2 = whole.common, part1.common, part2.common
    c12 = c1 * c2
    for i, (w, x, y) in enumerate(zip(whole.nums, part1.nums, part2.nums)):
        if not _same(w, cw, x * c2 + y * c1, c12):  # x / c1 + y / c2 over c1 * c2
            return {"artist": p.artists[i], "whole": _ratio(w, cw),
                    "first_part": _ratio(x, c1), "second_part": _ratio(y, c2)}, 0
    return None, 0


def _prepare_reasonable_lower_bound(instance: dict):
    p = _get_problem(instance)  # then one (S, worth[S], members of S) per closed S, in mask order
    try:
        worth = _user_mask_counts(p)  # worth[S]: the users who stream only inside S
    except TooManyArtists as exc:
        raise ShapeMismatch(str(exc)) from None
    # A group that streams S lies among the worth[S] users who stream only
    # inside S. Those stream all of S just when S is closed (dropping any
    # artist of S loses one of them), so only closed S can bind. Worth grows with
    # S: if S less its lowest artist (S & S - 1) is worth as much, S is not closed.
    closed = []
    for s, w in enumerate(worth):
        if worth[s & s - 1] < w:  # never so for an S of worth 0
            members = [i for i in range(len(p.artists)) if s >> i & 1]
            if all(worth[s ^ 1 << i] < w for i in members):
                closed.append((s, w, members))
    return p, closed


def _check_reasonable_lower_bound(rule, prepared):
    """Artists streamed by a user group receive less than the group paid."""
    p, closed = prepared
    # payout i is pays[i] / total, so a group's payout sum is below its size
    # exactly when the sum of its pays < size * total
    pays, total = reward_shares(rule(p), len(p.users))
    for s, w, members in closed:
        got = sum([pays[i] for i in members])
        if got < w * total:
            return {"user_group": sorted(u for u, (idx, _) in zip(p.users, p.columns)
                                         if all(s >> i & 1 for i in idx)),
                    "streamed_artists": sorted(p.artists[i] for i in members),
                    "reward_sum": _ratio(got, total), "amount_paid": w}, 0
    return None, 0


def _prepare_equal_global_impact_of_users(instance: dict):
    p = _get_problem(instance)  # then p without each user, if it has two or more
    return (p, *[remove_user(p, u) for u in p.users]) if len(p.users) > 1 else (p,)


def _check_equal_global_impact_of_users(rule, prepared):
    """Removing different users shifts the index total by different amounts."""
    p, *reduced = prepared
    totals = [(sum(vec.nums), vec.common) for vec in map(rule, reduced)]
    for u, (t, c) in zip(p.users[1:], totals[1:]):
        if not _same(t, c, *totals[0]):
            return {"user": p.users[0], "other_user": u, "total_without_user": _ratio(*totals[0]),
                    "total_without_other": _ratio(t, c)}, 0
    return None, 0


def _prepare_symmetry_on_fans(instance: dict):
    p = _get_problem(instance)  # then each pair x < y of artists with equal fan sets, in order
    fans = [frozenset(compress(p.users, row)) for row in p.streams]
    n = len(fans)
    return p, [(x, y, fans[x]) for x in range(n) for y in range(x + 1, n) if fans[x] == fans[y]]


def _check_symmetry_on_fans(rule, prepared):
    """Two artists with identical fan sets get different index values."""
    p, pairs = prepared
    vec = rule(p)
    nums, c = vec.nums, vec.common
    for x, y, fans in pairs:
        if nums[x] != nums[y]:
            return {"artist": p.artists[x], "other_artist": p.artists[y],
                    "fans": sorted(fans), "value": _ratio(nums[x], c),
                    "other_value": _ratio(nums[y], c)}, 0
    return None, 0


def _check_order_preservation(rule, p: Problem):
    """An artist dominated stream-by-stream outranks the dominating artist."""
    vec = rule(p)
    nums, rows, n = vec.nums, p.streams, len(p.artists)
    for x in range(n):
        for y in range(n):
            if nums[x] > nums[y] and all(map(le, rows[x], rows[y])):
                return {"dominated_artist": p.artists[x], "dominating_artist": p.artists[y],
                        "dominated_value": _ratio(nums[x], vec.common),
                        "dominating_value": _ratio(nums[y], vec.common)}, 0
    return None, 0


def _check_non_unilateral_manipulability(rule, prepared):
    """Inflating own streams from existing fans raised the artist's index."""
    p, q, artist, i = prepared
    before, after = rule(p), rule(q)
    x, y = before.nums[i], after.nums[i]
    if y * before.common > x * after.common:
        return {"artist": artist, "value_before": _ratio(x, before.common),
                "value_after": _ratio(y, after.common)}, 0
    return None, 0


def _prepare_equal_impact_of_artists(instance: dict):
    p = _get_problem(instance)  # then p without each artist, or None where that silences a user
    prepared = [p]
    for a in p.artists if len(p.artists) > 1 else ():
        try:
            prepared.append(remove_artist(p, a))
        except SilentUser:
            prepared.append(None)
    return tuple(prepared)


def _check_equal_impact_of_artists(rule, prepared):
    """One artist's departure changes the other's index asymmetrically."""
    p, *reduced = prepared
    vec, reduced = rule(p), [None if r is None else rule(r) for r in reduced]
    v, c, n = vec.nums, vec.common, len(p.artists)
    skipped = 0
    for x, ra in enumerate(reduced):  # none for a single artist
        for y in range(x + 1, n):
            rb = reduced[y]
            # removal outside the model (a silenced user): not pass, not fail
            if ra is None or rb is None:
                skipped += 1
                continue
            # without artist y, artist x keeps position x; without x, y moves
            # to y - 1. Each change is a difference over c times its reduced
            # common, and the factor c cancels.
            ca, cb = ra.common, rb.common
            dx, dy = v[x] * cb - rb.nums[x] * c, v[y] * ca - ra.nums[y - 1] * c
            if not _same(dx, cb, dy, ca):
                return {"artist": p.artists[x], "other_artist": p.artists[y],
                        "change_for_artist": _ratio(dx, c * cb),
                        "change_for_other": _ratio(dy, c * ca)}, skipped
    return None, skipped


def _check_null_artists(rule, p: Problem):
    """An artist with zero streams has a nonzero index."""
    vec = rule(p)
    for i, (x, row) in enumerate(zip(vec.nums, p.streams)):
        if x and not any(row):
            return {"artist": p.artists[i], "value": _ratio(x, vec.common)}, 0
    return None, 0


def _check_pairwise_homogeneity(rule, p: Problem):
    """A constant per-user stream ratio between two artists is not preserved."""
    vec = rule(p)
    nums, c, n = vec.nums, vec.common, len(p.artists)
    # rows x and y are proportional, with ratio g[y] / g[x], exactly when both are
    # nonzero and equal once each is divided by the gcd g of its entries
    g = [gcd(*row) for row in p.streams]
    forms = [d and tuple([v // d for v in row]) for row, d in zip(p.streams, g)]
    for x in range(n):
        for y in range(n):
            if x != y and g[x] and forms[x] == forms[y] and not _same(nums[y], nums[x], g[y], g[x]):
                return {"artist": p.artists[x], "other_artist": p.artists[y],
                        "ratio": _ratio(g[y], g[x]), "value": _ratio(nums[x], c),
                        "other_value": _ratio(nums[y], c)}, 0
    return None, 0


def _check_click_fraud_proofness(rule, prepared):
    """One user's altered streams moved an artist's payout by more than that user's subscription."""
    p, q, user, _ = prepared
    before, tp = reward_shares(rule(p), len(p.users))
    after, tq = reward_shares(rule(q), len(p.users))
    bound = tp * tq
    # payout i moves by y / tq - x / tp: by more than 1 exactly when
    # |y * tp - x * tq| > tp * tq
    for i, (x, y) in enumerate(zip(before, after)):
        if abs(y * tp - x * tq) > bound:
            return {"artist": p.artists[i], "user": user, "reward_before": _ratio(x, tp),
                    "reward_after": _ratio(y, tq)}, 0
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
# problems are built once per process, each modified one once per axiom (only
# the last axiom's grid is kept), and generated rows, valid by construction, are
# built unvalidated. Plain dicts appear only at the edges: :func:`build_problem`
# validates a supplied instance, and a witness leaves through :func:`instance_to_dict`.
#
# An audit runs each axiom's grid and then ``trials`` draws of :func:`generate_instance`
# from one ``random.Random``, seeded by the seed and the axiom, one instance at a time:
# it prepares each once and checks it under every rule not yet refuted, so a rule's
# draws are a fixed prefix of the axiom's stream. Each rule scores the grid through its
# own ``lru_cache``, keyed by problem content (ids included, which the weighted rules
# read), so it computes each distinct grid problem (base problems, split parts, removals,
# modified problems) once per call. Drawn problems go straight to its kernel: kept too,
# they would raise the peak memory.


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
    new = (tuple(compress(range(len(col)), col)), tuple(filter(None, col)))
    if not new[0]:
        raise SilentUser(p.users[j])
    return tuple.__new__(Problem, (p.artists, p.users, p.columns[:j] + (new,) + p.columns[j + 1:]))


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
    from copy import deepcopy  # imported on use: only a witness or a grid dump needs it
    return {k: problem_to_dict(v) if type(v) is Problem else deepcopy(v)
            for k, v in instance.items()}


# ---------------------------------------------------------------------------
# Random instances
#
# Every axiom draws its trials from one planted-problem generator and takes one of
# the instances its ``expand`` makes of the problem, as the grid does.


def _random_rows(rng: random.Random) -> list[tuple[int, ...]]:
    """Random rows, at most one structure planted: a pair of artists with equal fan sets,
    a proportional pair (by 2 or 3), a dominated pair or, less often, a null artist. Users
    left silent are dropped; a draw that leaves none is drawn again."""
    randrange, rand = rng.randrange, rng.random
    while True:
        n, m = 1 + randrange(MAX_ARTISTS), 1 + randrange(MAX_USERS)
        top = HEAVY_ENTRY if rand() < HEAVY_CHANCE else MAX_ENTRY
        rows = [[0 if rand() < ZERO_CHANCE else 1 + randrange(top) for _ in range(m)]
                for _ in range(n)]
        plant = rand() if n > 1 else 1
        if plant < 0.6:  # row k gets row i's fans, a multiple of row i, or dominates it
            i, k = rng.sample(range(n), 2)
            if plant < 0.2:
                rows[k] = [x and 1 + randrange(top) for x in rows[i]]
            elif plant < 0.4:
                mult = 2 + randrange(2)
                rows[k] = [mult * x for x in rows[i]]
            else:
                rows[k] = [x + randrange(3) for x in rows[i]]
        elif plant < 0.7:
            rows[randrange(n)] = [0] * m
        cols = [col for col in zip(*rows) if any(col)]
        if cols:
            return list(zip(*cols))


_grid_set = lru_cache(maxsize=1)(lambda: frozenset(_grid_problems()))


def generate_instance(axiom: str, rng: random.Random) -> dict:
    """One of the instances the axiom's ``expand`` makes of a random problem, drawn by
    ``rng``, its problems built (:func:`instance_to_dict` turns it into plain data). A
    problem that is a base grid problem in content, or that expands to no instance (too
    few users to split), is drawn again."""
    expand = _lookup(axiom).expand
    while True:
        p = _problem(_random_rows(rng))
        if p not in _grid_set() and (instances := list(expand(p))):
            return rng.choice(instances)


# ---------------------------------------------------------------------------
# The axiom registry


# One axiom: ``check`` and ``prepare`` (see the single-instance checks), and
# ``expand(problem)``, its instances of one grid or random problem.
Axiom = namedtuple("Axiom", "check prepare expand", defaults=(_get_problem, _single))


AXIOMS: dict[str, Axiom] = {
    "additivity": Axiom(_check_additivity, _prepare_additivity, _user_splits),
    "reasonable_lower_bound": Axiom(_check_reasonable_lower_bound, _prepare_reasonable_lower_bound),
    "equal_global_impact_of_users": Axiom(
        _check_equal_global_impact_of_users, _prepare_equal_global_impact_of_users),
    "symmetry_on_fans": Axiom(_check_symmetry_on_fans, _prepare_symmetry_on_fans),
    "order_preservation": Axiom(_check_order_preservation),
    "non_unilateral_manipulability": Axiom(
        _check_non_unilateral_manipulability, partial(_modified_pair, key="artist"),
        _row_inflations),
    "equal_impact_of_artists": Axiom(
        _check_equal_impact_of_artists, _prepare_equal_impact_of_artists),
    "null_artists": Axiom(_check_null_artists),
    "pairwise_homogeneity": Axiom(_check_pairwise_homogeneity),
    "click_fraud_proofness": Axiom(
        _check_click_fraud_proofness, partial(_modified_pair, key="user"), _column_changes),
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
    order is the one reported."""
    return audit_pairs([(axiom, rule)], trials, seed)[0]


def replay_witness(verdict: Verdict, rule: IndexRule) -> bool:
    """Re-run the single-instance check on a stored witness: True when the
    recorded violation reproduces exactly."""
    if verdict.witness is None:
        return False
    details, _ = check_instance(verdict.axiom, rule, verdict.witness)
    return details is not None and details == verdict.details


class SuiteResult(namedtuple("SuiteResult", "kind trials seed cells")):
    """``kind`` is "table" or "independence"; ``cells`` a tuple of ``Verdict``s."""
    __slots__ = ()

    @property
    def all_match(self) -> bool:
        return all(c.matches for c in self.cells)

    @property
    def mismatches(self) -> tuple[Verdict, ...]:
        return tuple(c for c in self.cells if not c.matches)


def audit_pairs(pairs, trials: int = DEFAULT_TRIALS, seed: int = 42) -> list[Verdict]:
    """The :func:`audit` verdict of each ``(axiom, rule)`` pair, in order; a rule is an
    ``IndexRule`` or a name, made into its rule once before any audit (so an unknown
    rule is named before an unknown axiom). Each instance of an axiom is prepared once and
    checked under every rule not yet refuted, on the grid through its memo (see grid notes)."""
    rules = {r: make_rule(r, seed=seed) if type(r) is str else r
             for r in dict.fromkeys(r for _, r in pairs)}
    if type(trials) is not int or trials < 1:
        raise ValueError(f"trials must be an int of at least 1, got {trials!r}")
    memos, verdicts = {r: lru_cache(None)(rule.fn) for r, rule in rules.items()}, {}
    for axiom in dict.fromkeys(a for a, _ in pairs):
        ax, grid, rng = _lookup(axiom), _grid(axiom), random.Random(f"{seed}|{axiom}")
        live = dict.fromkeys((r for a, r in pairs if a == axiom), 0)  # rule: skipped so far
        drawn = (generate_instance(axiom, rng) for _ in range(trials))
        for k, instance in enumerate(chain(grid, drawn), 1):
            n = min(k, len(grid))  # k == n on the grid, scored through the memos
            prep = ax.prepare(instance)
            for r in tuple(live):
                details, sk = ax.check(memos[r] if k == n else rules[r].fn, prep)
                live[r] += sk
                if details is not None:
                    verdicts[axiom, r] = Verdict(axiom, rules[r].name, "counterexample", k - n, n,
                                                 live.pop(r), seed, instance_to_dict(instance),
                                                 details)
            if not live:
                break
        verdicts.update({(axiom, r): Verdict(axiom, rules[r].name, "holds", trials, len(grid),
                                             skipped, seed) for r, skipped in live.items()})
    return [verdicts[pair] for pair in pairs]


def _run_suite(kind: str, claims, trials: int, seed: int) -> SuiteResult:
    """One cell per claim ``(axiom_set, axiom, rule, expected_holds)``, in claim order;
    each distinct (axiom, rule) pair is audited once, by one :func:`audit_pairs` call."""
    verdicts = audit_pairs([(axiom, rule) for _, axiom, rule, _ in claims], trials, seed)
    return SuiteResult(kind, trials, seed, tuple(
        v._replace(expected="holds" if holds else "counterexample", axiom_set=set_name)
        for v, (set_name, _, _, holds) in zip(verdicts, claims)))


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


_SHARED = ("additivity", "reasonable_lower_bound", "equal_global_impact_of_users")
THEOREM_AXIOM_SETS: dict[str, tuple[str, ...]] = {
    "fan-symmetry": (*_SHARED, "symmetry_on_fans"),
    "manipulation": (*_SHARED, "order_preservation", "non_unilateral_manipulability"),
    "artist-removal": (*_SHARED, "equal_impact_of_artists"),
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
