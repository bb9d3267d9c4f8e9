"""Acceptance gate: one test per release criterion.

Each test prints a single ``ACCEPTANCE <n> <label>: PASS/FAIL`` line (run
with ``pytest -s`` to see them on passing runs) and then asserts. Criteria,
tolerances, and time budgets are pinned here and must not be weakened.

Criterion 6 is expected to fail: the published independence claims for the
equal-split-over-active-artists rule and the user-weighted rule are false
(both violate the reasonable lower bound; see the concrete counterexamples
in tests/test_axioms.py). The suite reports that honestly.
"""

import random
import time
from fractions import Fraction as F

from streamshare import (
    build_problem,
    dual_game,
    make_rule,
    optimistic_game,
    pessimistic_game,
    pro_rata_index,
    remove_user,
    rewards,
    shapley_index,
    shapley_value_brute_force,
    user_centric_index,
)
from streamshare.axioms import independence_suite, replay_witness, reproduce_table
from streamshare.cli import main

from helpers import example_1, example_2, random_problem, vector


def _report(num, label, ok):
    print(f"\nACCEPTANCE {num} {label}: {'PASS' if ok else 'FAIL'}")
    return ok


def test_criterion_1_example_1_rewards():
    start = time.perf_counter()
    p = example_1()
    got = {
        "pro-rata": rewards(pro_rata_index(p), p),
        "user-centric": rewards(user_centric_index(p), p),
        "shapley": rewards(shapley_index(p), p),
    }
    expected = {
        "pro-rata": (F(3, 2), F(3, 2)),
        "user-centric": (F(1), F(2)),
        "shapley": (F(1), F(2)),
    }
    elapsed = time.perf_counter() - start
    ok = got == expected and elapsed < 1.0
    assert _report(1, "example-1 rewards exact", ok), (got, elapsed)


def test_criterion_2_example_2_rewards():
    start = time.perf_counter()
    p = example_2()
    got = {
        "pro-rata": rewards(pro_rata_index(p), p),
        "user-centric": rewards(user_centric_index(p), p),
        "shapley": rewards(shapley_index(p), p),
    }
    expected = {
        "pro-rata": (F(1), F(2)),
        "user-centric": (F(1), F(2)),
        "shapley": (F(3, 2), F(3, 2)),
    }
    elapsed = time.perf_counter() - start
    ok = got == expected and elapsed < 1.0
    assert _report(2, "example-2 rewards exact", ok), (got, elapsed)


def test_criterion_3_closed_form_equals_brute_force():
    start = time.perf_counter()
    rng = random.Random(1003)
    ok = True
    for _ in range(200):
        p = random_problem(rng, max_n=8, max_m=8, max_entry=5)
        closed = shapley_index(p)
        brute = shapley_value_brute_force(pessimistic_game(p))
        if closed.values != brute.values:
            ok = False
            break
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    assert _report(3, "closed-form vs permutation oracle (200 problems)", ok), elapsed


def test_criterion_4_duality_on_all_subsets():
    start = time.perf_counter()
    rng = random.Random(1004)
    ok = True
    for _ in range(200):
        p = random_problem(rng, max_n=12, max_m=8, max_entry=5)
        if dual_game(pessimistic_game(p)).worth != optimistic_game(p).worth:
            ok = False
            break
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    assert _report(4, "pessimistic dual equals optimistic (200 problems)", ok), elapsed


def test_criterion_5_satisfaction_table():
    start = time.perf_counter()
    result = reproduce_table(trials=500, seed=42)
    witnesses_ok = all(
        replay_witness(c, make_rule(c.rule, seed=42))
        for c in result.cells
        if c.expected == "counterexample"
    )
    elapsed = time.perf_counter() - start
    ok = result.all_match and witnesses_ok and elapsed < 300.0
    assert _report(5, "30-cell satisfaction table with replayable witnesses", ok), (
        [(c.axiom, c.rule) for c in result.mismatches], elapsed,
    )


def test_criterion_6_independence_suites():
    start = time.perf_counter()
    result = independence_suite(trials=500, seed=42)
    elapsed = time.perf_counter() - start
    ok = result.all_match and elapsed < 300.0
    _report(6, "characterization independence claims", ok)
    assert ok, (
        "known defect in the published claims: these cells audit differently "
        "than claimed: "
        + ", ".join(
            f"{c.axiom_set}/{c.rule}/{c.axiom}" for c in result.mismatches
        )
    )


def test_criterion_7_exact_invariants():
    rng = random.Random(1007)
    ok = True
    for _ in range(100):
        p = random_problem(rng, max_n=6, max_m=6)
        sh = shapley_index(p)
        uc = user_centric_index(p)
        if sh.total != p.m or uc.total != p.m:
            ok = False
            break
        scaled = vector(sh.artists, tuple(F(7, 3) * v for v in sh.values))
        if rewards(sh, p) != rewards(scaled, p):
            ok = False
            break
        if p.m >= 2:
            for u in p.users:
                if shapley_index(remove_user(p, u)).total != p.m - 1:
                    ok = False
                    break
        if not ok:
            break
    assert _report(7, "exact rational invariants (zero tolerance)", ok)


def test_criterion_8_audit_determinism(tmp_path):
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    argv = ["audit", "--axiom", "all", "--index", "all", "--trials", "40",
            "--seed", "42", "--format", "json"]
    code1 = main(argv + ["--output", str(first)])
    code2 = main(argv + ["--output", str(second)])
    ok = code1 == code2 == 0 and first.read_bytes() == second.read_bytes()
    assert _report(8, "same-seed audits are byte-identical", ok)
