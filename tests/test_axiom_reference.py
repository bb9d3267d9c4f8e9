"""The integer axiom checkers equal the ``Fraction`` reference checkers exactly.

``streamshare.axioms`` compares index values as integers, cross-multiplied
over each vector's common denominator; ``reference_axioms`` keeps the
checkers that compared ``Fraction`` values. Both must return the same
``(details, skipped)``, except on the reasonable lower bound:

- on every instance of each axiom's grid. The three table rules check the
  whole grid; the other rules share it out (instance k goes to the
  (k mod r)-th of the r others), so every grid instance runs under four
  rules and every rule under a share of the grid;
- on a seeded sweep of random draws under every rule, heavy draws included;
- on one hand-built violation per checker, so every ``details`` branch runs.

The lower-bound checker scans the closed coalitions of the pessimistic game in
mask order, and the reference scans user groups in mask order, so the two may
report different violating groups. For that axiom the verdicts (a violation or
none) must agree, and the reported group must violate under ``Fraction``
arithmetic and be exactly the users who stream only inside its
``streamed_artists``. A Hypothesis property compares the verdicts on problems
of up to six artists and 10 users, under a rule with negative values too.
Another holds the pairwise-homogeneity checker, which compares gcd-reduced
rows, to the reference's ratio scan on problems with a planted proportional
pair of rows ``a * r`` and ``b * r``, for any scales up to 7.

The rules are the seven named ones with their seeded weights, the two
reference weighted kernels with fractional weights, and a rule whose vectors
are built from ``Fraction`` values rather than by a kernel. The kernels'
integer form is checked against the reference kernels too, the weighted ones
also on integer weights other than the seeded ones.
"""

import random
from fractions import Fraction as F
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_axioms as ref
import reference_indices
from streamshare import build_problem
from streamshare.axioms import (
    AXIOM_IDS,
    MAX_ENTRY,
    Verdict,
    _get_problem,
    _grid,
    _grid_problems,
    audit,
    check_instance,
    generate_instance,
)
from streamshare.indices import (
    ALL_RULE_NAMES,
    TABLE_RULE_NAMES,
    IndexRule,
    IndexVector,
    ZeroTotalIndex,
    artist_weighted_index,
    make_rule,
    shapley_index,
    user_weighted_index,
)

from helpers import problems, random_problem, vector
from mutants import MUTANTS
from reference_indices import reference_rule, rewards

pytestmark = pytest.mark.oracle

SEED = 3
DRAWS = 40
# ids of every grid and random problem, and of the lower-bound property's six
# artists and ten users, with weights of several denominators
FRACTION_WEIGHTS = {ident: F(7 * k % 11 + 1, k % 4 + 2) for k, ident in enumerate(
    [f"a{i}" for i in range(1, 7)] + [f"u{j}" for j in range(1, 11)])}
# integer weights for the same ids, which the public weighted kernels take by position
INTEGER_WEIGHTS = {ident: 7 * k % 11 + 1 for k, ident in enumerate(FRACTION_WEIGHTS)}


def _rescaled_shapley(p):
    """Shapley values times (k + 2) / 3 for artist k, as ``Fraction``s."""
    values = shapley_index(p).values
    return vector(p.artists, tuple(F(k + 2, 3) * v for k, v in enumerate(values)))


def _rules():
    """Fresh rules, each memoizing its vectors so the two checkers share them."""
    rules = [make_rule(name, seed=SEED) for name in ALL_RULE_NAMES]
    rules += [IndexRule(name, lambda p, kernel=kernel: kernel(p, FRACTION_WEIGHTS))
              for name, kernel in (("user-weighted", reference_indices.user_weighted_index),
                                   ("artist-weighted", reference_indices.artist_weighted_index))]
    rules.append(IndexRule("rescaled-shapley", _rescaled_shapley))
    return [IndexRule(rule.name, lru_cache(maxsize=1024)(rule.fn)) for rule in rules]


def _counts(p):
    return [x for _, counts in p.columns for x in counts]


def assert_same_as_reference(axiom, rule, instance):
    got = check_instance(axiom, rule, instance)
    want = ref.check_instance(axiom, rule, instance)
    if axiom != "reasonable_lower_bound":
        assert got == want, (rule.name, instance)
        return got
    assert (got[0] is None, got[1]) == (want[0] is None, want[1]), (rule.name, instance)
    if got[0] is not None:
        assert_lower_bound_witness(rule, instance, got[0])
    return got


def assert_lower_bound_witness(rule, instance, details):
    """The reported group is the users who stream only inside its
    ``streamed_artists``, streams all of them, and is paid less than it paid."""
    p = _get_problem(instance)
    listening = {u: {p.artists[i] for i in idx} for u, (idx, _) in zip(p.users, p.columns)}
    streamed = set(details["streamed_artists"])
    group = [u for u in p.users if listening[u] <= streamed]
    assert details["user_group"] == sorted(group)
    assert set().union(*(listening[u] for u in group)) == streamed
    paid = dict(zip(p.artists, rewards(rule(p), p)))
    got = sum((paid[a] for a in streamed), F(0))
    assert got < len(group) == details["amount_paid"]
    assert details["reward_sum"] == str(got)


@pytest.mark.parametrize("axiom", AXIOM_IDS)
def test_grid_matches_reference(axiom):
    rules = _rules()
    table = [r for r in rules if r.name in TABLE_RULE_NAMES]
    others = [r for r in rules if r.name not in TABLE_RULE_NAMES]
    for k, instance in enumerate(_grid(axiom)):
        for rule in (*table, others[k % len(others)]):
            assert_same_as_reference(axiom, rule, instance)


@pytest.mark.parametrize("axiom", AXIOM_IDS)
def test_random_draws_match_reference(axiom):
    rng = random.Random(f"oracle|{axiom}")
    draws = [generate_instance(axiom, rng) for _ in range(DRAWS)]
    # a heavy draw has entries up to HEAVY_ENTRY; no light draw exceeds 3 * MAX_ENTRY
    assert any(max(_counts(d["problem"])) > 3 * MAX_ENTRY for d in draws)
    for rule in _rules():
        for instance in draws:
            assert_same_as_reference(axiom, rule, instance)


def _signed_shapley(p):
    """Shapley values less a quarter of their total at odd artist positions:
    some are negative, and the total stays positive up to seven artists."""
    values = shapley_index(p).values
    return vector(p.artists, tuple(v - k % 2 * sum(values) / 4 for k, v in enumerate(values)))


PROPERTY_RULES = [*_rules(), IndexRule("signed-shapley", _signed_shapley)]


@settings(max_examples=300, deadline=None)
@given(problems(max_n=6, max_m=10, max_entry=5), st.sampled_from(PROPERTY_RULES))
def test_lower_bound_verdicts_match_group_enumeration(p, rule):
    assert_same_as_reference("reasonable_lower_bound", rule, {"problem": p})


def test_lower_bound_needs_no_sign_assumption():
    # u streams a, v streams b and c, and each group is paid what it paid.
    # Only u streams inside {a, b}, which is paid 1 + (-1) < 1; but u does
    # not stream b, so {a, b} is not closed and binds no group.
    fixed = IndexRule("fixed", lambda p: IndexVector(p.artists, (1, -1, 2), 1))
    instance = {"problem": _problem([[1, 0], [0, 1], [0, 1]])}
    assert assert_same_as_reference("reasonable_lower_bound", fixed, instance) == (None, 0)


@st.composite
def planted_pairs(draw, max_n=5, max_m=6, max_entry=5, max_scale=7):
    """A random problem whose rows ``i`` and ``k`` are ``a * r`` and ``b * r``: a
    nonnegative row ``r`` with zeros and scales up to ``max_scale``, coprime or not."""
    n, m = draw(st.integers(2, max_n)), draw(st.integers(1, max_m))
    entries = st.lists(st.integers(0, max_entry), min_size=m, max_size=m)
    rows = [draw(entries) for _ in range(n)]
    i, k = draw(st.permutations(range(n)))[:2]
    rows[k] = r = rows[i]
    for j in range(m):
        if not any(row[j] for row in rows):  # a silent user: r or another row streams
            others = [x for x in range(n) if x not in (i, k)]
            rows[draw(st.sampled_from(others)) if others else i][j] = draw(st.integers(1, max_entry))
    a, b = draw(st.integers(1, max_scale)), draw(st.integers(1, max_scale))
    rows[i], rows[k] = [a * x for x in r], [b * x for x in r]
    return build_problem([f"a{x}" for x in range(1, n + 1)], [f"u{j}" for j in range(1, m + 1)],
                         rows)


@settings(max_examples=300, deadline=None)
@given(planted_pairs(), st.sampled_from(PROPERTY_RULES))
def test_homogeneity_on_planted_pairs_matches_reference(p, rule):
    # the generator and the {0, 1, 3} grid plant only the ratios 2, 3 and 1/3
    assert_same_as_reference("pairwise_homogeneity", rule, {"problem": p})


def _problem(streams, artists="abc", users="uvw"):
    return {"artists": list(artists[:len(streams)]), "users": list(users[:len(streams[0])]),
            "streams": streams}


VIOLATIONS = [  # (axiom, rule, instance): each instance violates the axiom
    ("additivity", "active-uniform", {
        "problem": _problem([[2, 0, 1], [0, 5, 0], [0, 0, 0]]),
        "first_users": ["u", "w"], "second_users": ["v"]}),
    ("reasonable_lower_bound", "pro-rata", {
        "problem": _problem([[1, 0, 4], [0, 7, 0], [2, 0, 3]])}),
    # u and v alone are paid for by a's 6/5; the pair {u, v} is not
    ("reasonable_lower_bound", "pro-rata", {"problem": _problem([[1, 1, 0], [0, 0, 3]])}),
    ("equal_global_impact_of_users", "user-weighted", {
        "problem": _problem([[1, 2, 0], [3, 0, 1]])}),
    ("symmetry_on_fans", "user-centric", {
        "problem": _problem([[1, 2], [2, 5], [1, 0]])}),
    ("order_preservation", "artist-weighted", {
        "problem": _problem([[1, 1], [2, 1], [0, 4]])}),
    ("non_unilateral_manipulability", "user-centric", {
        "problem": _problem([[1, 2], [3, 1]]),
        "modified": _problem([[4, 2], [3, 1]]), "artist": "a"}),
    # user u streams only a, so the pairs with a are skipped before (b, c) fails
    ("equal_impact_of_artists", "user-centric", {
        "problem": _problem([[1, 0, 0], [0, 1, 2], [0, 3, 1]])}),
    ("null_artists", "uniform", {"problem": _problem([[2, 0], [0, 0], [1, 3]])}),
    ("pairwise_homogeneity", "shapley", {"problem": _problem([[2, 4], [3, 6], [0, 1]])}),
    ("click_fraud_proofness", "pro-rata", {
        "problem": _problem([[1, 0, 2], [0, 3, 1], [2, 1, 0]]),
        "modified": _problem([[1, 0, 40], [0, 3, 0], [2, 1, 0]]), "user": "w"}),
]


def test_every_checker_has_a_violation():
    assert {axiom for axiom, _, _ in VIOLATIONS} == set(AXIOM_IDS)


@pytest.mark.parametrize("axiom,name,instance", VIOLATIONS,
                         ids=[f"{a}-{n}" for a, n, _ in VIOLATIONS])
def test_violation_details_match_reference(axiom, name, instance):
    details, skipped = assert_same_as_reference(axiom, make_rule(name, seed=1), instance)
    assert details is not None
    assert skipped == (2 if axiom == "equal_impact_of_artists" else 0)


@pytest.mark.parametrize("axiom", ["reasonable_lower_bound", "click_fraud_proofness"])
def test_zero_index_total_raises_as_in_reference(axiom):
    zero = IndexRule("zero", lambda p: IndexVector(p.artists, (0,) * p.n, 1))
    for check in (check_instance, ref.check_instance):
        with pytest.raises(ZeroTotalIndex):
            check(axiom, zero, _grid(axiom)[0])


def _kernel_rule(name, weights):
    """The public weighted kernel of rule ``name``, given ``weights[id]`` by position."""
    if name == "user-weighted":
        return IndexRule(name, lambda p: user_weighted_index(p, [weights[u] for u in p.users]))
    return IndexRule(name, lambda p: artist_weighted_index(p, [weights[a] for a in p.artists]))


@pytest.mark.parametrize("name,weights", [(name, None) for name in ALL_RULE_NAMES] + [
    ("user-weighted", INTEGER_WEIGHTS), ("artist-weighted", INTEGER_WEIGHTS)])
def test_kernel_numerators_are_the_reference_values(name, weights):
    rule = make_rule(name, seed=SEED) if weights is None else _kernel_rule(name, weights)
    want = reference_rule(name, seed=SEED, weights=weights)
    rng = random.Random(f"nums|{name}")
    for p in (*_grid_problems(), *(random_problem(rng, max_entry=200) for _ in range(40))):
        vec, expected = rule(p), want(p).values
        assert type(vec.common) is int and vec.common > 0
        assert all(type(x) is int for x in vec.nums)
        assert [F(x, vec.common) for x in vec.nums] == list(expected)
        assert vec.values == expected


def test_vectors_built_from_values_or_numerators_are_equal():
    p = _grid_problems()[-1]
    vec = shapley_index(p)
    same = vector(p.artists, vec.values)
    assert vec == same and hash(vec) == hash(same) and repr(vec) == repr(same)
    assert not (vec != same)  # by value too, not by the raw tuple fields
    scaled = IndexVector(p.artists, tuple(2 * x for x in vec.nums), 2 * vec.common)
    assert scaled == vec and not (scaled != vec)
    assert vec.total == sum(vec.values, F(0))
    with pytest.raises(AttributeError):
        vec.nums = ()
    for field in ("columns", "streams"):  # the cached view is not writable either
        with pytest.raises(AttributeError):
            setattr(p, field, ())
    with pytest.raises(AttributeError):
        Verdict("additivity", "shapley", "holds", 1, 0, 0, 0).outcome = "counterexample"


def _reference_cells(result, every):
    """Every ``every``-th distinct (axiom, rule) cell of ``result``, with its reference audit."""
    cells = list({(c.axiom, c.rule): c for c in result.cells}.values())[::every]
    return [(c, ref.audit(c.axiom, make_rule(c.rule, seed=result.seed), result.trials,
                          result.seed)) for c in cells]


def test_suite_cells_equal_reference_audits(table_run, independence_run):
    """Outcome, position, witness, details and ``skipped`` of a sample of suite
    cells equal those of the reference audit loop, which shares no code with
    the runner past the instance generator and the grid."""
    sample = _reference_cells(table_run, 2) + _reference_cells(independence_run, 2)
    for cell, want in sample:
        got = cell._replace(expected=None, axiom_set=None)
        if cell.axiom == "reasonable_lower_bound" and cell.details is not None:
            # the reference may name another violating group on the same instance
            assert got._replace(details=None) == want._replace(details=None)
            rule = make_rule(cell.rule, seed=cell.seed)
            assert_lower_bound_witness(rule, cell.witness, cell.details)
        else:
            assert got == want
    assert {c.outcome for c, _ in sample} == {"holds", "counterexample"}
    assert any(c.axiom == "reasonable_lower_bound" and c.details for c, _ in sample)


@pytest.mark.parametrize("axiom", ["additivity", "equal_global_impact_of_users",
                                   "equal_impact_of_artists", "null_artists"])
def test_trial_counterexamples_equal_reference_audits(axiom):
    # shapley, except pro-rata from 4 artists or 4 users: beyond the grid, so only
    # the seeded trials can catch it
    rule = MUTANTS[0]
    got = audit(axiom, rule, trials=60, seed=11)
    assert got == ref.audit(axiom, rule, 60, 11)
    assert got.holds == (axiom == "null_artists") and got.trials > 0
