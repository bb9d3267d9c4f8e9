import json
import random
from dataclasses import replace

import pytest

from streamshare import Problem, build_problem, make_rule
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
    instance_to_dict,
    problem_to_dict,
    replay_witness,
)
from streamshare.axioms import _grid, _grid_problems

from helpers import EXAMPLE_1, EXAMPLE_2

SHAPLEY = make_rule("shapley")
PRO_RATA = make_rule("pro-rata")
USER_CENTRIC = make_rule("user-centric")

EX1 = {"artists": EXAMPLE_1[0], "users": EXAMPLE_1[1], "streams": EXAMPLE_1[2]}
EX2 = {"artists": EXAMPLE_2[0], "users": EXAMPLE_2[1], "streams": EXAMPLE_2[2]}


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
        ("reasonable_lower_bound", {"problem": EX1, "user_subsets": 5}),
        # a group naming u1 twice would be owed both users' payment
        ("reasonable_lower_bound", {"problem": {"artists": ["a1", "a2"], "users": ["u1", "u2"],
                                                "streams": [[1, 0], [0, 1]]},
                                    "user_subsets": [["u1", "u1"]]}),
        ("additivity", {"problem": EX1, "first_users": None, "second_users": ["b", "c"]}),
        # a string of ids would otherwise be read as one id per character
        ("null_artists", {"problem": {**EX1, "artists": "12"}}),
        ("null_artists", {"problem": {**EX1, "users": "abc"}}),
        ("null_artists", {"problem": {**EX1, "users": b"abc"}}),
    ], ids=["problem-list", "artists-int", "streams-none", "instance-list",
            "user-subsets-int", "user-subsets-repeat", "first-users-none", "artists-str",
            "users-str", "users-bytes"])
    def test_malformed_instance_is_a_shape_mismatch(self, axiom, instance):
        with pytest.raises(ShapeMismatch):
            check_instance(axiom, SHAPLEY, instance)
        hand_edited = Verdict(axiom, "shapley", "counterexample", 1, 0, 0, 1,
                              instance, {"artist": "1"})
        with pytest.raises(ShapeMismatch):
            replay_witness(hand_edited, SHAPLEY)

    def test_supplied_user_subsets_are_checked(self):
        # pro-rata pays user "a" only 2/101 on this problem; the subsets that
        # hold it are not checked unless listed
        inst = {"problem": {
            "artists": ["1", "2"], "users": ["a", "b"], "streams": [[1, 0], [0, 100]],
        }}
        listed = {**inst, "user_subsets": [["b"], ["a", "b"]]}
        assert check_instance("reasonable_lower_bound", PRO_RATA, listed) == (None, 0)
        violation, _ = check_instance(
            "reasonable_lower_bound", PRO_RATA, {**inst, "user_subsets": [["b"], ["a"]]})
        assert violation["user_group"] == ["a"]

    def test_supplied_user_subsets_name_known_users(self):
        inst = {"problem": {"artists": ["1"], "users": ["a"], "streams": [[1]]},
                "user_subsets": [["a"], ["zz"]]}
        with pytest.raises(ShapeMismatch, match="unknown user 'zz'"):
            check_instance("reasonable_lower_bound", SHAPLEY, inst)

    def test_many_users_need_supplied_subsets(self):
        users = [f"u{j}" for j in range(11)]
        problem = {"artists": ["1"], "users": users, "streams": [[1] * 11]}
        with pytest.raises(ShapeMismatch):
            check_instance("reasonable_lower_bound", SHAPLEY, {"problem": problem})
        inst = {"problem": problem, "user_subsets": [users[:3], users]}
        assert check_instance("reasonable_lower_bound", SHAPLEY, inst) == (None, 0)

    def test_bad_partition(self):
        with pytest.raises(ShapeMismatch):
            check_instance("additivity", SHAPLEY,
                           {"problem": EX1, "first_users": ["a"], "second_users": ["b"]})

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

    def test_deterministic_in_seed(self):
        a = audit("order_preservation", USER_CENTRIC, trials=40, seed=9)
        b = audit("order_preservation", USER_CENTRIC, trials=40, seed=9)
        assert a == b

    def test_trials_must_be_positive(self):
        with pytest.raises(ValueError):
            audit("additivity", SHAPLEY, trials=0, seed=1)

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
        p = build_problem(["1", "2"], ["a", "b"], [[1, 0], [0, 1]])
        rule = make_rule("user-weighted", weights={"a": 1, "b": 9})
        violation, _ = check_instance(
            "reasonable_lower_bound", rule, {"problem": problem_to_dict(p)}
        )
        assert violation is not None
        assert violation["reward_sum"] == "1/5"

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
    def test_grid_is_built_once(self):
        bases = {id(p) for p in _grid_problems()}
        assert len(bases) == 505
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

    def test_suite_cells_equal_standalone_audits(self, independence_run):
        result = independence_run
        standalone = {}
        for cell in result.cells:
            key = (cell.axiom, cell.rule)
            if key not in standalone:
                rule = make_rule(cell.rule, seed=result.seed)
                standalone[key] = audit(cell.axiom, rule, result.trials, result.seed)
            assert replace(cell, expected=None, axiom_set=None) == standalone[key]

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
