"""Reference axiom checkers: exact ``Fraction`` comparisons.

These are the single-instance checkers that ``streamshare.axioms`` replaced
with integer comparisons over each index vector's common denominator. They
are kept here verbatim, slow and obviously correct, so tests can require
:func:`streamshare.axioms.check_instance` to return exactly the same
``(details, skipped)`` as :func:`check_instance` below. :func:`audit` is the
audit loop on top of them, one instance at a time, as an oracle for the
runner that audits many rules per grid pass. Reading and validating an
instance (``_get_problem``, ``_modified_pair``) is shared with
``streamshare.axioms``; only the comparisons are kept here.

The homogeneity checker here scans each pair of rows for one ``Fraction``
ratio; ``streamshare.axioms`` compares gcd-reduced rows instead, so the two
are independent formulations of one verdict.

The lower-bound checker here enumerates every user group, so it refuses more
than ``SUBSET_ENUMERATION_CAP`` users. ``streamshare.axioms`` scans the closed
artist coalitions of the pessimistic game instead, which reaches the same
verdict but may report another violating group, so tests compare its
verdicts with this checker's and replay its witness on its own.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import chain, compress

from streamshare.axioms import (
    ShapeMismatch,
    Verdict,
    _get_problem,
    _modified_pair,
    generate_instance,
    grid_instances,
    instance_to_dict,
)
from streamshare.core import (
    ProblemError,
    SilentUser,
    remove_artist,
    remove_user,
    split_by_users,
)
from streamshare.indices import IndexRule

from helpers import common_numerators
from reference_indices import rewards

# the lower bound enumerates up to 2^10 - 1 user groups per instance
SUBSET_ENUMERATION_CAP = 10


def check_instance(axiom, rule, instance):
    """``(details, skipped)`` of the reference checker for ``axiom``."""
    return CHECKERS[axiom](rule, instance)


def audit(axiom, rule, trials, seed):
    """The verdict of ``streamshare.axioms.audit`` by its definition, one instance at a time.

    The axiom's grid as plain dicts, in scan order, then ``trials`` draws of
    ``generate_instance`` from ``random.Random(f"{seed}|{axiom}")``, which every rule of the
    axiom shares, each checked alone by :func:`check_instance` here; the first
    violation is the counterexample.
    """
    grid = grid_instances(axiom)
    rng = random.Random(f"{seed}|{axiom}")
    drawn = (generate_instance(axiom, rng) for _ in range(trials))
    skipped = 0
    for k, instance in enumerate(chain(grid, drawn), 1):
        details, sk = check_instance(axiom, rule, instance)
        skipped += sk
        if details is not None:
            grid_cases = min(k, len(grid))
            return Verdict(axiom, rule.name, "counterexample", k - grid_cases, grid_cases,
                           skipped, seed, instance_to_dict(instance), details)
    return Verdict(axiom, rule.name, "holds", trials, len(grid), skipped, seed)


def _check_additivity(rule: IndexRule, instance: dict):
    """Index on the whole problem differs from the sum over the user split."""
    p = _get_problem(instance)
    try:
        p1, p2 = split_by_users(p, instance["first_users"], instance["second_users"])
    except (KeyError, ProblemError, TypeError) as exc:
        raise ShapeMismatch(f"invalid user split: {exc}") from None
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
    if p.m > SUBSET_ENUMERATION_CAP:
        raise ShapeMismatch(f"{p.m} users; groups are enumerated up to {SUBSET_ENUMERATION_CAP}")
    for group in _nonempty_subsets(p.users):
        streamed = set()
        for u in group:
            streamed.update(listening[u])
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
    p, q, artist, _ = _modified_pair(instance, "artist")
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
    p, q, user, _ = _modified_pair(instance, "user")
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


CHECKERS = {
    "additivity": _check_additivity,
    "reasonable_lower_bound": _check_reasonable_lower_bound,
    "equal_global_impact_of_users": _check_equal_global_impact_of_users,
    "symmetry_on_fans": _check_symmetry_on_fans,
    "order_preservation": _check_order_preservation,
    "non_unilateral_manipulability": _check_non_unilateral_manipulability,
    "equal_impact_of_artists": _check_equal_impact_of_artists,
    "null_artists": _check_null_artists,
    "pairwise_homogeneity": _check_pairwise_homogeneity,
    "click_fraud_proofness": _check_click_fraud_proofness,
}
