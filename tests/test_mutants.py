"""The audits' kill table over the rule mutants of ``tests/mutants.py``.

One :func:`streamshare.axioms.audit_pairs` call audits every (mutant, axiom)
pair at seed 42 with 500 trials. The table pins where each counterexample comes
from: ``("grid", k)`` for the k-th grid instance, ``("trial", k)`` for the k-th
seeded trial of the axiom's stream, which the mutants share, or ``None``
when the axiom holds. A change to the grid, the generator or the runner that
loses or moves a kill shows here.

Shapley fails pairwise homogeneity itself, so that column's grid kills are
Shapley's own (on the {0, 1, 3} grid), not the planted fault's.
"""

import pytest

from mutants import MUTANTS
from streamshare.axioms import AXIOM_IDS, audit_pairs

pytestmark = pytest.mark.oracle

KILLS = {
    # pro-rata from 4 artists or 4 users: beyond the grid, so only trials kill it
    ("mutant-large", "additivity"): ("trial", 9),
    ("mutant-large", "reasonable_lower_bound"): ("trial", 26),
    ("mutant-large", "equal_global_impact_of_users"): ("trial", 1),
    ("mutant-large", "symmetry_on_fans"): ("trial", 2),
    ("mutant-large", "order_preservation"): None,
    ("mutant-large", "non_unilateral_manipulability"): ("trial", 1),
    ("mutant-large", "equal_impact_of_artists"): ("trial", 10),
    ("mutant-large", "null_artists"): None,
    ("mutant-large", "pairwise_homogeneity"): ("grid", 472),
    ("mutant-large", "click_fraud_proofness"): ("trial", 9),
    # pro-rata at exactly 3 x 3: the grid's largest shape
    ("mutant-3x3", "additivity"): ("grid", 61),
    ("mutant-3x3", "reasonable_lower_bound"): ("grid", 128),
    ("mutant-3x3", "equal_global_impact_of_users"): ("trial", 4),
    ("mutant-3x3", "symmetry_on_fans"): ("trial", 74),
    ("mutant-3x3", "order_preservation"): None,
    ("mutant-3x3", "non_unilateral_manipulability"): ("grid", 208),
    ("mutant-3x3", "equal_impact_of_artists"): ("grid", 101),
    ("mutant-3x3", "null_artists"): None,
    ("mutant-3x3", "pairwise_homogeneity"): ("grid", 472),
    ("mutant-3x3", "click_fraud_proofness"): ("grid", 462),
    # user-centric once a count reaches 2
    ("mutant-heavy", "additivity"): None,
    ("mutant-heavy", "reasonable_lower_bound"): None,
    ("mutant-heavy", "equal_global_impact_of_users"): None,
    ("mutant-heavy", "symmetry_on_fans"): ("grid", 469),
    ("mutant-heavy", "order_preservation"): None,
    ("mutant-heavy", "non_unilateral_manipulability"): ("grid", 6),
    ("mutant-heavy", "equal_impact_of_artists"): ("grid", 469),
    ("mutant-heavy", "null_artists"): None,
    ("mutant-heavy", "pairwise_homogeneity"): None,
    ("mutant-heavy", "click_fraud_proofness"): None,
    # pro-rata once a user streams exactly two artists
    ("mutant-pair", "additivity"): ("grid", 133),
    ("mutant-pair", "reasonable_lower_bound"): ("grid", 61),
    ("mutant-pair", "equal_global_impact_of_users"): ("grid", 9),
    ("mutant-pair", "symmetry_on_fans"): ("grid", 469),
    ("mutant-pair", "order_preservation"): None,
    ("mutant-pair", "non_unilateral_manipulability"): ("grid", 6),
    ("mutant-pair", "equal_impact_of_artists"): ("grid", 469),
    ("mutant-pair", "null_artists"): None,
    ("mutant-pair", "pairwise_homogeneity"): ("trial", 3),
    ("mutant-pair", "click_fraud_proofness"): ("grid", 86),
    # pro-rata once a count exceeds MAX_ENTRY: heavy trials, planted multiples and dominating
    # rows, and grid modifications reach it
    ("mutant-bulky", "additivity"): ("trial", 53),
    ("mutant-bulky", "reasonable_lower_bound"): ("trial", 42),
    ("mutant-bulky", "equal_global_impact_of_users"): ("trial", 2),
    ("mutant-bulky", "symmetry_on_fans"): ("trial", 4),
    ("mutant-bulky", "order_preservation"): None,
    ("mutant-bulky", "non_unilateral_manipulability"): ("grid", 1157),
    ("mutant-bulky", "equal_impact_of_artists"): ("trial", 11),
    ("mutant-bulky", "null_artists"): None,
    ("mutant-bulky", "pairwise_homogeneity"): ("grid", 472),
    ("mutant-bulky", "click_fraud_proofness"): ("grid", 60),
}


def _kill(verdict):
    if verdict.holds:
        return None
    return ("trial", verdict.trials) if verdict.trials else ("grid", verdict.grid_cases)


def test_mutant_kill_table():
    pairs = [(axiom, rule) for rule in MUTANTS for axiom in AXIOM_IDS]
    verdicts = audit_pairs(pairs, trials=500, seed=42)
    assert {(rule.name, axiom): _kill(v) for (axiom, rule), v in zip(pairs, verdicts)} == KILLS
