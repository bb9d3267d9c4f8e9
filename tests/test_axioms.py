import json
import random
from collections import Counter
from itertools import chain

import pytest

from streamshare import Problem, axioms, build_problem, indices, make_rule
from streamshare.axioms import (
    AXIOM_IDS,
    INDEPENDENCE_CLAIMS,
    TABLE1_EXPECTED,
    THEOREM_AXIOM_SETS,
    ShapeMismatch,
    UnknownAxiom,
    Verdict,
    audit,
    check_instance,
    generate_instance,
    grid_instances,
    independence_suite,
    instance_to_dict,
    problem_to_dict,
    replay_witness,
    reproduce_table,
)
from streamshare.axioms import AXIOMS, _grid, _grid_problems

from helpers import EXAMPLE_1, EXAMPLE_2

SHAPLEY = make_rule("shapley")
PRO_RATA = make_rule("pro-rata")
USER_CENTRIC = make_rule("user-centric")

EX1 = {"artists": EXAMPLE_1[0], "users": EXAMPLE_1[1], "streams": EXAMPLE_1[2]}
EX2 = {"artists": EXAMPLE_2[0], "users": EXAMPLE_2[1], "streams": EXAMPLE_2[2]}


def assert_cells_equal_standalone_audits(result):
    """Each suite cell is the verdict of a standalone audit, with no memo, at the suite's seed."""
    standalone = {}
    for cell in result.cells:
        key = (cell.axiom, cell.rule)
        if key not in standalone:
            rule = make_rule(cell.rule, seed=result.seed)
            standalone[key] = audit(cell.axiom, rule, result.trials, result.seed)
        assert cell._replace(expected=None, axiom_set=None) == standalone[key]


def _count_axiom_calls(monkeypatch):
    """A counter of the audits' draws and prepared instances, keyed by ``("generate",
    axiom)`` (calls of ``axioms.generate_instance``) and ``("prepare", axiom)``."""
    calls = Counter()

    def generate(axiom, rng, real=axioms.generate_instance):
        calls["generate", axiom] += 1
        return real(axiom, rng)
    monkeypatch.setattr(axioms, "generate_instance", generate)
    for axiom, ax in AXIOMS.items():
        def prepare(instance, axiom=axiom, real=ax.prepare):
            calls["prepare", axiom] += 1
            return real(instance)
        monkeypatch.setitem(AXIOMS, axiom, ax._replace(prepare=prepare))
    return calls


def _count_kernel_calls(monkeypatch):
    """A counter of the audits' kernel calls, keyed by ``(on_grid, kernel, problem)``, the
    problem by content; ``on_grid`` is False for the problems of a drawn instance. The
    runner prepares each instance just before scoring it, a drawn one just after drawing it."""
    calls, drawn, on_grid = Counter(), [None], [False]

    def generate(axiom, rng, real=axioms.generate_instance):
        drawn[0] = real(axiom, rng)
        return drawn[0]
    monkeypatch.setattr(axioms, "generate_instance", generate)
    for axiom, ax in AXIOMS.items():
        def prepare(instance, real=ax.prepare):
            on_grid[0] = instance is not drawn[0]
            return real(instance)
        monkeypatch.setitem(AXIOMS, axiom, ax._replace(prepare=prepare))
    for kernel, _ in indices.RULES.values():  # make_rule picks up the counting kernels
        def counted(p, *weights, kernel=kernel, fn=getattr(indices, kernel)):
            calls[on_grid[0], kernel, p] += 1
            return fn(p, *weights)
        monkeypatch.setattr(indices, kernel, counted)
    return calls


class TestInstanceChecks:
    def test_pro_rata_breaks_symmetry_on_example_2(self):
        violation, _ = check_instance("symmetry_on_fans", PRO_RATA, {"problem": EX2})
        assert violation is not None
        assert {violation["value"], violation["other_value"]} \
            == {"300", "600"}

    def test_shapley_respects_symmetry_on_example_2(self):
        violation, _ = check_instance("symmetry_on_fans", SHAPLEY, {"problem": EX2})
        assert violation is None

    def test_null_artist_holds_for_shapley(self):
        inst = {"problem": {"artists": ["1", "2"], "users": ["a"], "streams": [[1], [0]]}}
        assert check_instance("null_artists", SHAPLEY, inst) == (None, 0)

    def test_lower_bound_violated_by_pro_rata(self):
        inst = {"problem": {
            "artists": ["1", "2"], "users": ["a", "b"], "streams": [[1, 0], [0, 100]],
        }}
        violation, _ = check_instance("reasonable_lower_bound", PRO_RATA, inst)
        assert violation is not None
        assert violation["user_group"] == ["a"]
        assert violation["reward_sum"] == "2/101"

    def test_pairwise_homogeneity_fails_for_shapley_on_example_2(self):
        violation, _ = check_instance("pairwise_homogeneity", SHAPLEY, {"problem": EX2})
        assert violation is not None
        assert violation["ratio"] == "2"

    def test_pairwise_homogeneity_holds_for_pro_rata_and_user_centric(self):
        for rule in (PRO_RATA, USER_CENTRIC):
            assert check_instance("pairwise_homogeneity", rule, {"problem": EX2}) == (None, 0)

    def test_additivity_holds_for_shapley_on_example_1_split(self):
        inst = {"problem": EX1, "first_users": ["a"], "second_users": ["b", "c"]}
        assert check_instance("additivity", SHAPLEY, inst) == (None, 0)

    def test_equal_impact_skips_silencing_removals(self):
        inst = {"problem": {
            "artists": ["1", "2"], "users": ["a", "b"], "streams": [[1, 0], [0, 1]],
        }}
        violation, skipped = check_instance("equal_impact_of_artists", USER_CENTRIC, inst)
        assert violation is None
        assert skipped == 1

    def test_equal_impact_violated_by_user_centric(self):
        inst = {"problem": {
            "artists": ["1", "2"], "users": ["a", "b"], "streams": [[1, 1], [2, 1]],
        }}
        violation, skipped = check_instance("equal_impact_of_artists", USER_CENTRIC, inst)
        assert violation is not None
        assert skipped == 0
        assert violation["change_for_artist"] != violation["change_for_other"]

    def test_click_fraud_violated_by_pro_rata(self):
        base = {"artists": ["1", "2"], "users": ["a", "b"], "streams": [[1, 0], [1, 3]]}
        modified = {"artists": ["1", "2"], "users": ["a", "b"], "streams": [[1, 3], [1, 0]]}
        violation, _ = check_instance(
            "click_fraud_proofness", PRO_RATA,
            {"problem": base, "modified": modified, "user": "b"},
        )
        assert violation is not None
        violation, _ = check_instance(
            "click_fraud_proofness", SHAPLEY,
            {"problem": base, "modified": modified, "user": "b"},
        )
        assert violation is None

    def test_manipulation_raises_user_centric_index(self):
        base = {"artists": ["1", "2"], "users": ["a"], "streams": [[1], [1]]}
        modified = {"artists": ["1", "2"], "users": ["a"], "streams": [[3], [1]]}
        inst = {"problem": base, "modified": modified, "artist": "1"}
        violation, _ = check_instance("non_unilateral_manipulability", USER_CENTRIC, inst)
        assert violation is not None
        assert check_instance("non_unilateral_manipulability", SHAPLEY, inst) == (None, 0)


class TestInstanceShapes:
    def test_unknown_axiom(self):
        with pytest.raises(UnknownAxiom):
            check_instance("bogus", SHAPLEY, {"problem": EX1})

    def test_missing_problem(self):
        with pytest.raises(ShapeMismatch):
            check_instance("null_artists", SHAPLEY, {})

    def test_invalid_problem_payload(self):
        bad = {"artists": ["1"], "users": ["a"], "streams": [[0]]}
        with pytest.raises(ShapeMismatch):
            check_instance("null_artists", SHAPLEY, {"problem": bad})

    @pytest.mark.parametrize("axiom, instance", [
        ("null_artists", {"problem": [[1]]}),
        ("null_artists", {"problem": {**EX1, "artists": 5}}),
        ("null_artists", {"problem": {**EX1, "streams": None}}),
        ("null_artists", [{"problem": EX1}]),
        ("additivity", {"problem": EX1, "first_users": None, "second_users": ["b", "c"]}),
        # a string of users would otherwise be read as one user per character
        ("additivity", {"problem": EX1, "first_users": "ab", "second_users": "c"}),
        # a string of ids would otherwise be read as one id per character
        ("null_artists", {"problem": {**EX1, "artists": "12"}}),
        ("null_artists", {"problem": {**EX1, "users": "abc"}}),
        ("null_artists", {"problem": {**EX1, "users": b"abc"}}),
        # the manipulating artist or user must be one of the problem's own
        ("non_unilateral_manipulability", {"problem": EX1, "modified": EX1, "artist": "9"}),
        ("click_fraud_proofness", {"problem": EX1, "modified": EX1, "user": "z"}),
        # and the modified problem must have the same artists and users
        ("non_unilateral_manipulability",
         {"problem": EX1, "modified": {**EX1, "artists": ["2", "1"]}, "artist": "1"}),
        ("click_fraud_proofness",
         {"problem": EX1, "modified": {**EX1, "users": ["a", "b", "d"]}, "user": "a"}),
    ], ids=["problem-list", "artists-int", "streams-none", "instance-list",
            "first-users-none", "first-users-str", "artists-str",
            "users-str", "users-bytes", "unknown-artist", "unknown-user",
            "modified-artists", "modified-users"])
    def test_malformed_instance_is_a_shape_mismatch(self, axiom, instance):
        with pytest.raises(ShapeMismatch):
            check_instance(axiom, SHAPLEY, instance)
        hand_edited = Verdict(axiom, "shapley", "counterexample", 1, 0, 0, 1,
                              instance, {"artist": "1"})
        with pytest.raises(ShapeMismatch):
            replay_witness(hand_edited, SHAPLEY)

    def test_user_subsets_key_is_ignored(self):
        # pro-rata pays user "a" only 2/101 here; listing only safe groups hides nothing
        inst = {"problem": {
            "artists": ["1", "2"], "users": ["a", "b"], "streams": [[1, 0], [0, 100]],
        }, "user_subsets": [["b"], ["a", "b"]]}
        violation, _ = check_instance("reasonable_lower_bound", PRO_RATA, inst)
        assert violation["user_group"] == ["a"]

    def test_many_users_are_checked(self):
        # 2^30 user groups; the checker scans the 4 coalitions of 2 artists
        users = [f"u{j:02}" for j in range(30)]
        problem = {"artists": ["1", "2"], "users": users,
                   "streams": [[1] * 15 + [0] * 15, [0] * 15 + [100] * 15]}
        assert check_instance("reasonable_lower_bound", SHAPLEY, {"problem": problem}) == (None, 0)
        violation, _ = check_instance("reasonable_lower_bound", PRO_RATA, {"problem": problem})
        assert violation == {"user_group": users[:15], "streamed_artists": ["1"],
                             "reward_sum": "30/101", "amount_paid": 15}

    def test_many_artists_are_refused(self):
        artists = [f"a{i}" for i in range(21)]
        problem = {"artists": artists, "users": ["u"], "streams": [[1]] * 21}
        with pytest.raises(ShapeMismatch, match="^21 artists exceeds the enumeration cap 20$"):
            check_instance("reasonable_lower_bound", SHAPLEY, {"problem": problem})

    def test_bad_partition(self):
        with pytest.raises(ShapeMismatch):
            check_instance("additivity", SHAPLEY,
                           {"problem": EX1, "first_users": ["a"], "second_users": ["b"]})

    def test_unknown_user_in_a_split_is_named(self):
        with pytest.raises(ShapeMismatch, match="^invalid user split: unknown user 'zz'$"):
            check_instance("additivity", SHAPLEY,
                           {"problem": EX1, "first_users": ["zz"], "second_users": ["a", "b", "c"]})

    def test_user_listed_twice_in_a_split_is_named(self):
        # u1 twice and u2, u3 once cover the three users without overlap
        problem = {"artists": ["a1"], "users": ["u1", "u2", "u3"], "streams": [[1, 1, 1]]}
        with pytest.raises(ShapeMismatch, match="^invalid user split: user 'u1' is listed twice$"):
            check_instance("additivity", SHAPLEY, {"problem": problem, "first_users": ["u1", "u1"],
                                                   "second_users": ["u2", "u3"]})

    def test_manipulation_shape_enforced(self):
        base = {"artists": ["1", "2"], "users": ["a"], "streams": [[1], [1]]}
        worse = {"artists": ["1", "2"], "users": ["a"], "streams": [[1], [2]]}
        with pytest.raises(ShapeMismatch):
            check_instance("non_unilateral_manipulability", SHAPLEY,
                           {"problem": base, "modified": worse, "artist": "1"})
        fan_change = {"artists": ["1", "2"], "users": ["a"], "streams": [[0], [1]]}
        with pytest.raises(ShapeMismatch):
            check_instance("non_unilateral_manipulability", SHAPLEY,
                           {"problem": fan_change, "modified": base, "artist": "1"})

    def test_click_fraud_shape_enforced(self):
        base = {"artists": ["1"], "users": ["a", "b"], "streams": [[1, 1]]}
        twocol = {"artists": ["1"], "users": ["a", "b"], "streams": [[2, 2]]}
        with pytest.raises(ShapeMismatch):
            check_instance("click_fraud_proofness", SHAPLEY,
                           {"problem": base, "modified": twocol, "user": "a"})


class TestAudit:
    def test_counterexample_witness_replays(self):
        for axiom, rule in (
            ("symmetry_on_fans", PRO_RATA),
            ("equal_global_impact_of_users", PRO_RATA),
            ("pairwise_homogeneity", SHAPLEY),
            ("non_unilateral_manipulability", USER_CENTRIC),
            ("click_fraud_proofness", PRO_RATA),
        ):
            verdict = audit(axiom, rule, trials=50, seed=1)
            assert verdict.outcome == "counterexample"
            assert replay_witness(verdict, rule)

    def test_holds_on_all_trials(self):
        verdict = audit("additivity", SHAPLEY, trials=50, seed=1)
        assert verdict.outcome == "holds"
        assert verdict.trials == 50
        assert verdict.witness is None
        assert not replay_witness(verdict, SHAPLEY)  # nothing to replay

    def test_deterministic_in_seed(self):
        a = audit("order_preservation", USER_CENTRIC, trials=40, seed=9)
        b = audit("order_preservation", USER_CENTRIC, trials=40, seed=9)
        assert a == b

    @pytest.mark.parametrize("trials", [0, True, 2.0, "3", None])
    def test_trials_must_be_positive(self, trials):
        with pytest.raises(ValueError, match="trials must be an int of at least 1"):
            audit("additivity", SHAPLEY, trials=trials, seed=1)

    def test_random_instances_are_well_formed(self):
        import random
        rng = random.Random(0)
        for axiom in AXIOM_IDS:
            for _ in range(40):
                inst = generate_instance(axiom, rng)
                # must not raise ShapeMismatch
                check_instance(axiom, SHAPLEY, inst)

    def test_grid_is_nonempty_for_every_axiom(self):
        for axiom in AXIOM_IDS:
            assert len(grid_instances(axiom)) > 100


class TestTable:
    def test_full_table_matches(self, table_run):
        result = table_run
        assert result.all_match, [
            (c.axiom, c.rule, c.outcome) for c in result.mismatches
        ]

    def test_every_no_cell_has_replayable_witness(self, table_run):
        result = table_run
        for cell in result.cells:
            if cell.expected == "counterexample":
                assert cell.outcome == "counterexample"
                assert replay_witness(cell, make_rule(cell.rule, seed=2))

    def test_shapley_column_has_one_no(self):
        fails = [a for a in AXIOM_IDS if not TABLE1_EXPECTED[a]["shapley"]]
        assert fails == ["pairwise_homogeneity"]

    def test_pro_rata_column(self):
        holds = {a for a in AXIOM_IDS if TABLE1_EXPECTED[a]["pro-rata"]}
        assert holds == {
            "additivity", "order_preservation", "null_artists",
            "equal_impact_of_artists", "pairwise_homogeneity",
        }


class TestIndependence:
    # The characterization write-up claims each deviant rule fails exactly one
    # axiom of its set. Two of those claims are false: both the equal-split
    # over active artists rule and the user-weighted rule also violate the
    # reasonable lower bound (see the audits below), so the suite honestly
    # reports those cells as mismatches.
    EXPECTED_MISMATCHES = {
        (set_name, rule, "reasonable_lower_bound")
        for set_name in THEOREM_AXIOM_SETS
        for rule in ("active-uniform", "user-weighted")
    }

    def test_mismatches_are_exactly_the_known_defects(self, independence_run):
        result = independence_run
        got = {(c.axiom_set, c.rule, c.axiom) for c in result.mismatches}
        assert got == self.EXPECTED_MISMATCHES

    @pytest.mark.oracle
    @pytest.mark.parametrize("seed", [42, 101, 5001])
    def test_500_trial_suites_match_but_for_the_known_defects(self, seed):
        # what the benchmark's audit oracle requires of every run (500 trials): a
        # change to the instance generator that breaks it fails here first
        assert reproduce_table(trials=500, seed=seed).all_match
        got = {(c.axiom_set, c.rule, c.axiom)
               for c in independence_suite(trials=500, seed=seed).mismatches}
        assert got == self.EXPECTED_MISMATCHES

    def test_active_uniform_fails_lower_bound_on_concrete_instance(self):
        # three active artists, two users: the lone artist of user "a" gets 2/3 < 1
        p = build_problem(["1", "2", "3"], ["a", "b"], [[1, 0], [0, 1], [0, 1]])
        rule = make_rule("active-uniform")
        violation, _ = check_instance(
            "reasonable_lower_bound", rule, {"problem": problem_to_dict(p)}
        )
        assert violation is not None
        assert violation["reward_sum"] == "2/3"

    def test_user_weighted_fails_lower_bound_with_skewed_weights(self):
        # the seeded weights of users a and b are 7 and 57: a's artist gets 2 * 7/64 < 1
        p = build_problem(["1", "2"], ["a", "b"], [[1, 0], [0, 1]])
        rule = make_rule("user-weighted", seed=42)
        violation, _ = check_instance(
            "reasonable_lower_bound", rule, {"problem": problem_to_dict(p)}
        )
        assert violation is not None
        assert violation["reward_sum"] == "7/32"

    def test_designated_failures_all_observed(self, independence_run):
        result = independence_run
        designated = {
            (s, r, a) for s, r, a in INDEPENDENCE_CLAIMS
        }
        for cell in result.cells:
            if (cell.axiom_set, cell.rule, cell.axiom) in designated:
                assert cell.outcome == "counterexample"
                assert cell.matches

    def test_uniform_rule_fails_only_lower_bound(self):
        for axiom in THEOREM_AXIOM_SETS["manipulation"]:
            verdict = audit(axiom, make_rule("uniform"), trials=60, seed=2)
            expected = "counterexample" if axiom == "reasonable_lower_bound" else "holds"
            assert verdict.outcome == expected, axiom


class TestGrid:
    @pytest.mark.oracle
    def test_grid_is_built_once(self):
        bases = {id(p) for p in _grid_problems()}
        # 9 base problems repeat another in content (the 2x2 0/1 matrices are also
        # in the {0, 1, 3} family); each is still its own problem
        assert len(bases) == 505 and len(set(_grid_problems())) == 496
        for axiom in AXIOM_IDS:
            grid = _grid(axiom)
            assert grid is _grid(axiom)
            # every instance shares its base problem; only modified ones are new
            assert {id(i["problem"]) for i in grid} <= bases
            assert all(type(i.get("modified", i["problem"])) is Problem for i in grid)
        assert _grid.cache_info().currsize == 1

    @pytest.mark.parametrize("axiom", AXIOM_IDS)
    def test_built_and_plain_instances_check_alike(self, axiom):
        rng = random.Random(f"alike|{axiom}")
        drawn = [generate_instance(axiom, rng) for _ in range(40)]
        for instance in _grid(axiom) + tuple(drawn):
            plain = instance_to_dict(instance)
            for rule in (SHAPLEY, PRO_RATA, USER_CENTRIC):
                assert (check_instance(axiom, rule, instance)
                        == check_instance(axiom, rule, plain)), (rule.name, plain)

    @pytest.mark.parametrize("axiom", AXIOM_IDS)
    def test_draws_are_expanded_and_never_a_base_grid_problem(self, axiom):
        bases, expand = set(_grid_problems()), AXIOMS[axiom].expand
        rng = random.Random(f"new|{axiom}")
        for _ in range(200):
            instance = generate_instance(axiom, rng)
            assert instance["problem"] not in bases
            assert instance in list(expand(instance["problem"]))

    def test_grid_witnesses_are_plain_grid_instances(self, table_run, independence_run):
        grids = {}
        on_grid = 0
        for v in table_run.cells + independence_run.cells:
            if v.holds or v.trials:
                continue  # held, or found by a random trial
            on_grid += 1
            if v.axiom not in grids:
                grids[v.axiom] = grid_instances(v.axiom)
            assert v.witness == grids[v.axiom][v.grid_cases - 1]
            assert json.loads(json.dumps(v.witness)) == v.witness
            assert replay_witness(v, make_rule(v.rule, seed=v.seed))
        assert on_grid >= 10

    def test_editing_a_grid_witness_leaves_the_grid_alone(self):
        rule = make_rule("active-uniform")
        first = audit("additivity", rule, trials=1, seed=1)
        assert first.trials == 0  # found on the grid
        first.witness["first_users"].append("zz")
        first.witness["problem"]["streams"][0][0] += 1
        again = audit("additivity", rule, trials=1, seed=1)
        assert again.witness == grid_instances("additivity")[again.grid_cases - 1]

    @pytest.mark.oracle
    def test_suite_cells_equal_standalone_audits(self, independence_run):
        assert_cells_equal_standalone_audits(independence_run)

    @pytest.mark.oracle
    def test_suite_memo_is_scoped_to_one_suite(self):
        # the weighted rules' vectors depend on the seed, so a memo kept from
        # the first suite would change the second suite's weighted cells
        runs = [independence_suite(trials=10, seed=seed) for seed in (3, 4)]
        for result in runs:
            assert_cells_equal_standalone_audits(result)

    @pytest.mark.oracle
    def test_suites_compute_each_rule_once_per_base_problem(self, monkeypatch):
        bases = set(_grid_problems())  # by content: the 9 twins count once
        calls = _count_kernel_calls(monkeypatch)
        for suite, rules in ((reproduce_table, 3), (independence_suite, 5)):
            calls.clear()
            suite(trials=2, seed=5)
            # a drawn instance's split part, removal or modified problem may equal a
            # base one; it is left out
            on_bases = [n for (on_grid, _, p), n in calls.items() if on_grid and p in bases]
            assert len(on_bases) == rules * len(bases)
            assert set(on_bases) == {1}

    @pytest.mark.oracle
    def test_grid_pass_computes_each_distinct_problem_once(self, monkeypatch):
        # at seed 42 with 500 trials; computing the 9 twin base problems apart
        # would add 27 and 45 kernel calls
        calls = _count_kernel_calls(monkeypatch)
        for suite, expected in ((reproduce_table, 25826), (independence_suite, 33025)):
            calls.clear()
            suite(trials=500, seed=42)
            assert sum(calls.values()) == expected, suite.__name__
            on_grid = [n for (grid, _, _), n in calls.items() if grid]  # one kernel per rule
            assert on_grid and set(on_grid) == {1}

    @pytest.mark.oracle
    def test_each_axiom_draws_its_trials_once_for_all_rules(self, monkeypatch):
        calls = _count_axiom_calls(monkeypatch)
        independence_axioms = set(chain.from_iterable(THEOREM_AXIOM_SETS.values()))
        for suite, audited, draws in ((reproduce_table, AXIOM_IDS, 5000),
                                      (independence_suite, independence_axioms, 3500)):
            calls.clear()
            suite(trials=500, seed=42)
            generated = {key: n for key, n in calls.items() if key[0] == "generate"}
            assert generated == {("generate", axiom): 500 for axiom in audited}, suite.__name__
            assert sum(generated.values()) == draws

    @pytest.mark.oracle
    def test_cells_that_hold_share_their_axiom_s_skipped_count(self, table_run,
                                                               independence_run):
        for result in (table_run, independence_run):
            skipped = {}
            for cell in result.cells:
                if cell.holds:
                    skipped.setdefault(cell.axiom, set()).add(cell.skipped)
            assert all(len(counts) == 1 for counts in skipped.values()), result.kind
            assert skipped["equal_impact_of_artists"] != {0}

    @pytest.mark.oracle
    def test_audit_prepares_up_to_its_only_rule_s_first_counterexample(self, monkeypatch):
        calls = _count_axiom_calls(monkeypatch)
        verdict = audit("additivity", make_rule("active-uniform"), trials=500, seed=1)
        assert verdict.trials == 0 and verdict.grid_cases < len(_grid("additivity"))
        assert calls == {("prepare", "additivity"): verdict.grid_cases}  # and no draw

    def test_suite_cells_follow_the_claims(self, independence_run):
        assert [(c.axiom_set, c.rule, c.axiom) for c in independence_run.cells] == [
            (set_name, rule, axiom)
            for set_name, rule, _ in INDEPENDENCE_CLAIMS
            for axiom in THEOREM_AXIOM_SETS[set_name]
        ]

    @pytest.mark.parametrize("axiom", AXIOM_IDS)
    def test_supplied_dict_instances_are_still_validated(self, axiom):
        instance = grid_instances(axiom)[0]
        silent = {**instance["problem"], "streams": [[0] * len(instance["problem"]["users"])]
                  * len(instance["problem"]["artists"])}
        keys = ["problem", "modified"] if "modified" in instance else ["problem"]
        for key in keys:
            with pytest.raises(ShapeMismatch, match="invalid"):
                check_instance(axiom, SHAPLEY, {**instance, key: silent})
