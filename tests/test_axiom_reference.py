"""The integer axiom checkers equal the ``Fraction`` reference checkers exactly.

``streamshare.axioms`` compares index values as integers, cross-multiplied
over each vector's common denominator; ``reference_axioms`` keeps the
checkers that compared ``Fraction`` values. Both must return the same
``(details, skipped)``:

- on every instance of each axiom's grid. The three table rules check the
  whole grid; the other rules share it out (instance k goes to the
  (k mod r)-th of the r others), so every grid instance runs under four
  rules and every rule under a share of the grid;
- on a seeded sweep of random draws under every rule, heavy draws included;
- on one hand-built violation per checker, so every ``details`` branch runs.

The rules are the seven named ones with their seeded weights, the two
weighted ones with fractional weights, and a rule whose vectors are built
from ``Fraction`` values rather than by a kernel. The kernels' integer form
is checked against the reference kernels too.
"""

import random
from fractions import Fraction as F
from functools import lru_cache

import pytest

import reference_axioms as ref
from streamshare.axioms import (
    AXIOM_IDS,
    MAX_ENTRY,
    _grid,
    _grid_problems,
    check_instance,
    generate_instance,
)
from streamshare.indices import (
    ALL_RULE_NAMES,
    TABLE_RULE_NAMES,
    IndexRule,
    IndexVector,
    ZeroTotalIndex,
    make_rule,
    shapley_index,
)

from helpers import random_problem, vector
from reference_indices import reference_rule

SEED = 3
DRAWS = 40
# ids of every grid and random problem, with weights of several denominators
FRACTION_WEIGHTS = {ident: F(7 * k % 11 + 1, k % 4 + 2) for k, ident in enumerate(
    [f"a{i}" for i in range(1, 6)] + [f"u{j}" for j in range(1, 6)])}


def _rescaled_shapley(p):
    """Shapley values times (k + 2) / 3 for artist k, as ``Fraction``s."""
    values = shapley_index(p).values
    return vector(p.artists, tuple(F(k + 2, 3) * v for k, v in enumerate(values)))


def _rules():
    """Fresh rules, each memoizing its vectors so the two checkers share them."""
    rules = [make_rule(name, seed=SEED) for name in ALL_RULE_NAMES]
    rules += [make_rule(name, weights=FRACTION_WEIGHTS)
              for name in ("user-weighted", "artist-weighted")]
    rules.append(IndexRule("rescaled-shapley", _rescaled_shapley))
    return [IndexRule(rule.name, lru_cache(maxsize=1024)(rule.fn)) for rule in rules]


def _counts(p):
    return [x for _, counts in p.columns for x in counts]


def assert_same_as_reference(axiom, rule, instance):
    got = check_instance(axiom, rule, instance)
    assert got == ref.check_instance(axiom, rule, instance), (rule.name, instance)
    return got


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


def _problem(streams, artists="abc", users="uvw"):
    return {"artists": list(artists[:len(streams)]), "users": list(users[:len(streams[0])]),
            "streams": streams}


VIOLATIONS = [  # (axiom, rule, instance): each instance violates the axiom
    ("additivity", "active-uniform", {
        "problem": _problem([[2, 0, 1], [0, 5, 0], [0, 0, 0]]),
        "first_users": ["u", "w"], "second_users": ["v"]}),
    ("reasonable_lower_bound", "pro-rata", {
        "problem": _problem([[1, 0, 4], [0, 7, 0], [2, 0, 3]])}),
    ("reasonable_lower_bound", "pro-rata", {
        "problem": _problem([[1, 0, 4], [0, 7, 0], [2, 0, 3]]),
        "user_subsets": [["v"], ["w", "u"]]}),
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


@pytest.mark.parametrize("name,weights", [(name, None) for name in ALL_RULE_NAMES] + [
    ("user-weighted", FRACTION_WEIGHTS), ("artist-weighted", FRACTION_WEIGHTS)])
def test_kernel_numerators_are_the_reference_values(name, weights):
    rule = make_rule(name, seed=SEED, weights=weights)
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
    assert IndexVector(p.artists, tuple(2 * x for x in vec.nums), 2 * vec.common) == vec
    assert vec.total == sum(vec.values, F(0))
    with pytest.raises(AttributeError):
        vec.nums = ()
