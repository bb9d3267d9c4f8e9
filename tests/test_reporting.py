import json
import random
from fractions import Fraction as F

import pytest

from streamshare import build_problem, make_rule
from streamshare.axioms import audit
from streamshare.core import DuplicateId, NegativeStream, SilentUser
from streamshare.reporting import (
    MAX_COUNT_DIGITS,
    ParseError,
    allocation_document,
    audit_document,
    game_document,
    game_export_text,
    parse_matrix,
    render_json,
    render_text,
    serialize_matrix,
    suite_document,
)

from helpers import EXAMPLE_1, example_1, random_problem

EXAMPLE_1_CSV = "artist,a,b,c\n1,200,0,0\n2,0,100,100\n"


class TestParseMatrix:
    def test_example_1(self):
        p = parse_matrix(EXAMPLE_1_CSV)
        assert p.artists == ("1", "2")
        assert p.users == ("a", "b", "c")
        assert p.streams == ((200, 0, 0), (0, 100, 100))

    def test_whitespace_and_blank_lines(self):
        text = "artist, a ,b\n\nx, 1 ,0\n\ny,0,2\n"
        p = parse_matrix(text)
        assert p.users == ("a", "b")
        assert p.streams == ((1, 0), (0, 2))

    def test_crlf_and_quoted_line_break(self):
        p = parse_matrix('artist,"a\nb",c\r\nx,1,0\r\n\r\ny,0,2\r\n')
        assert p.users == ("a\nb", "c")
        assert p.streams == ((1, 0), (0, 2))

    def test_round_trip(self):
        rng = random.Random(5)
        for _ in range(25):
            p = random_problem(rng)
            assert parse_matrix(serialize_matrix(p)) == p

    def test_serialize_example_1(self):
        assert serialize_matrix(example_1()) == EXAMPLE_1_CSV

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse_matrix("")

    def test_header_needs_a_user(self):
        with pytest.raises(ParseError) as exc:
            parse_matrix("artist\n")
        assert exc.value.line == 1

    def test_header_must_start_with_artist(self):
        with pytest.raises(ParseError) as exc:
            parse_matrix("banana,a\nx,1\n")
        assert (exc.value.line, exc.value.column) == (1, 1)
        assert "'banana'" in str(exc.value)

    def test_byte_order_mark_before_header_rejected(self):
        with pytest.raises(ParseError) as exc:
            parse_matrix("\ufeffartist,a\nx,1\n")
        assert (exc.value.line, exc.value.column) == (1, 1)

    def test_ragged_row_reports_line(self):
        with pytest.raises(ParseError) as exc:
            parse_matrix("artist,a,b\nx,1\ny,1,1\n")
        assert exc.value.line == 2

    def test_non_integer_reports_line_and_column(self):
        with pytest.raises(ParseError) as exc:
            parse_matrix("artist,a,b\nx,1,oops\n")
        assert exc.value.line == 2
        assert exc.value.column == 3
        assert "oops" in str(exc.value)

    def test_no_artist_rows(self):
        with pytest.raises(ParseError):
            parse_matrix("artist,a,b\n")

    def test_model_errors_pass_through(self):
        with pytest.raises(SilentUser):
            parse_matrix("artist,a,b\nx,1,0\n")
        with pytest.raises(DuplicateId):
            parse_matrix("artist,a,a\nx,1,1\n")
        with pytest.raises(NegativeStream):
            parse_matrix("artist,a,b\nx,1,-2\n")

    def test_digit_group_separator_rejected(self):
        with pytest.raises(ParseError) as exc:
            parse_matrix("artist,a,b\nx,1,1_000\n")
        assert (exc.value.line, exc.value.column) == (2, 3)

    def test_non_ascii_digit_rejected(self):
        with pytest.raises(ParseError) as exc:
            parse_matrix("artist,a,b\nx,\u0663,1\n")  # ARABIC-INDIC DIGIT THREE
        assert (exc.value.line, exc.value.column) == (2, 2)

    @pytest.mark.parametrize("row", ["x,1,{}", "x, 1 ,{}", "x,-1,-{}"],
                             ids=["plain", "spaced", "negative"])
    def test_count_digit_limit(self, row):
        # the plain-digit fast path and the per-cell path refuse alike
        longest = "9" * MAX_COUNT_DIGITS
        assert parse_matrix(f"artist,a,b\nx,1,{longest}\n").streams == ((1, int(longest)),)
        with pytest.raises(ParseError) as exc:
            parse_matrix("artist,a,b\n" + row.format("1" * 5000) + "\n")
        assert (exc.value.line, exc.value.column) == (2, 3)
        assert str(exc.value) == "stream count has 5000 digits, more than 4300 (line 2, column 3)"

    @pytest.mark.parametrize("text, line", [
        ("artist,u1\na1," + "1" * 140000 + "\n", 2),
        ("artist,u" + "1" * 140000 + "\na1,1\n", 1),
        ("artist,u1\n\na1,1\rx\n", 3),
    ], ids=["long-field", "long-header", "lone-cr"])
    def test_csv_error_reports_line(self, text, line):
        with pytest.raises(ParseError) as exc:
            parse_matrix(text)
        assert exc.value.line == line
        assert str(exc.value).startswith("malformed CSV: ")

    def test_plus_sign_rejected(self):
        with pytest.raises(ParseError):
            parse_matrix("artist,a\nx,+1\n")

    def test_zero_spellings_are_zero(self):
        p = parse_matrix("artist,a,b\nx, 0 ,1\ny,00,-0\nz,7,0\n")
        assert p.streams == ((0, 1), (0, 0), (7, 0))

    def test_empty_user_id_rejected(self):
        with pytest.raises(ParseError) as exc:
            parse_matrix("\nartist,a, \nx,1,1\n")
        assert (exc.value.line, exc.value.column) == (2, 3)

    def test_empty_artist_id_rejected(self):
        with pytest.raises(ParseError) as exc:
            parse_matrix("artist,a,b\nx,1,1\n ,1,1\n")
        assert (exc.value.line, exc.value.column) == (3, 1)

    def test_error_line_counts_blank_lines(self):
        with pytest.raises(ParseError) as exc:
            parse_matrix("artist,a,b\n\n\nx,1,zz\n")
        assert (exc.value.line, exc.value.column) == (4, 3)


class TestAllocationDocument:
    def test_example_1_sections(self):
        doc = allocation_document(example_1(), ["shapley", "pro-rata"])
        by_name = {s["index"]: s for s in doc["sections"]}
        assert by_name["shapley"]["values"] == ["1", "2"]
        assert [r["fraction"] for r in by_name["shapley"]["rewards"]] == ["1", "2"]
        assert by_name["pro-rata"]["values"] == ["200", "200"]
        assert [r["fraction"] for r in by_name["pro-rata"]["rewards"]] == ["3/2", "3/2"]
        assert by_name["pro-rata"]["rewards"][0]["decimal"] == "1.500000"

    def test_rewards_always_resum_to_revenue(self):
        rng = random.Random(8)
        for _ in range(15):
            p = random_problem(rng)
            doc = allocation_document(p, ["shapley", "user-centric", "uniform"])
            for sec in doc["sections"]:
                total = sum((F(r["fraction"]) for r in sec["rewards"]), F(0))
                assert total == p.m
                assert F(sec["reward_total"]) == p.m

    def test_price_scales_payout_only(self):
        doc = allocation_document(example_1(), ["shapley"], price=F(10))
        sec = doc["sections"][0]
        assert [r["fraction"] for r in sec["rewards"]] == ["1", "2"]
        assert [r["payout"] for r in sec["rewards"]] == ["10.000000", "20.000000"]
        assert doc["price_multiplier"] == "10"

    def test_decimal_ties_round_half_to_even(self):
        # 1/80000 = 0.0000125 and 3/80000 = 0.0000375 exactly
        for price, payouts in ((F(1, 80000), ["0.000012", "0.000025"]),
                               (F(3, 80000), ["0.000038", "0.000075"])):
            sec = allocation_document(example_1(), ["shapley"], price=price)["sections"][0]
            assert [r["payout"] for r in sec["rewards"]] == payouts

    def test_decimals_exact_beyond_float_precision(self):
        sec = allocation_document(example_1(), ["shapley"], price=F(2**53 + 1))["sections"][0]
        assert [r["payout"] for r in sec["rewards"]] == [
            "9007199254740993.000000", "18014398509481986.000000"]


class TestGameExport:
    def test_example_1_lines(self):
        p = example_1()
        assert game_export_text(p, "pessimistic") == "00,0\n01,1\n10,2\n11,3\n"
        assert game_export_text(p, "optimistic") == "00,0\n01,1\n10,2\n11,3\n"

    def test_disjoint_interest_case(self):
        p = build_problem(["1", "2"], ["a", "b"], [[1, 1], [1, 1]])
        assert game_export_text(p, "pessimistic") == "00,0\n01,0\n10,0\n11,2\n"
        assert game_export_text(p, "optimistic") == "00,0\n01,2\n10,2\n11,2\n"

    def test_dual_equals_optimistic_bytes(self):
        rng = random.Random(12)
        for _ in range(20):
            p = random_problem(rng, max_n=5, max_m=5)
            assert game_export_text(p, "dual") == game_export_text(p, "optimistic")

    def test_unknown_stance(self):
        with pytest.raises(ValueError):
            game_export_text(example_1(), "hopeful")

    def test_document_shape(self):
        doc = game_document(example_1(), "pessimistic")
        assert doc["players"] == ["1", "2"]
        assert doc["rows"][-1] == "11,3"

    def test_document_rows_are_the_text_lines(self):
        rng = random.Random(17)
        for _ in range(20):
            p = random_problem(rng, max_n=6, max_m=5)
            for stance in ("pessimistic", "optimistic", "dual"):
                doc = game_document(p, stance)
                assert "\n".join(doc["rows"]) + "\n" == game_export_text(p, stance)


class TestRendering:
    def test_json_is_deterministic_and_parseable(self):
        doc = allocation_document(example_1(), ["shapley"])
        text = render_json(doc)
        assert text == render_json(allocation_document(example_1(), ["shapley"]))
        assert json.loads(text)["kind"] == "allocation"
        assert text.endswith("\n")

    def test_text_allocation_mentions_every_artist(self):
        text = render_text(allocation_document(example_1(), ["shapley"]))
        assert "index shapley:" in text
        assert "1: value=1 reward=1" in text
        assert "reward total: 3" in text

    def test_text_game_is_raw_rows(self):
        text = game_export_text(example_1(), "pessimistic")
        assert text == "00,0\n01,1\n10,2\n11,3\n"

    def test_audit_document_includes_witness(self):
        v = audit("symmetry_on_fans", make_rule("pro-rata"), trials=20, seed=3)
        doc = audit_document([v])
        (entry,) = doc["verdicts"]
        assert entry["outcome"] == "counterexample"
        assert "witness" in entry and "details" in entry
        text = render_text(doc)
        assert "counterexample" in text
        assert "witness problem:" in text

    def test_audit_document_holds_has_no_witness(self):
        v = audit("additivity", make_rule("shapley"), trials=20, seed=3)
        (entry,) = audit_document([v])["verdicts"]
        assert "witness" not in entry

    def test_table_document_roundtrips_through_json(self, table_run):
        doc = suite_document(table_run)
        assert doc["all_match"] is True
        assert len(doc["cells"]) == 30
        assert json.loads(render_json(doc)) == doc
        assert "all_match=True" in render_text(doc)

    def test_independence_document_flags_mismatches(self, independence_run):
        doc = suite_document(independence_run)
        assert doc["all_match"] is False
        text = render_text(doc)
        assert "MISMATCH" in text
        mismatched = [c for c in doc["cells"] if not c["matches"]]
        assert {c["axiom"] for c in mismatched} == {"reasonable_lower_bound"}

    def test_text_renders_modified_problem_witnesses(self):
        v = audit("click_fraud_proofness", make_rule("pro-rata"), trials=20, seed=3)
        text = render_text(audit_document([v]))
        assert "witness modified problem:" in text
        assert "witness user:" in text
