import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamshare import cli
from streamshare.axioms import AXIOM_IDS
from streamshare.cli import main
from streamshare.indices import ALL_RULE_NAMES

EXAMPLE_1_CSV = "artist,a,b,c\n1,200,0,0\n2,0,100,100\n"


@pytest.fixture
def matrix(tmp_path):
    path = tmp_path / "streams.csv"
    path.write_text(EXAMPLE_1_CSV, encoding="utf-8")
    return path


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAllocate:
    def test_default_indices(self, matrix, capsys):
        code, out, err = run(capsys, "allocate", "--input", str(matrix))
        assert code == 0 and err == ""
        assert "index shapley:" in out
        assert "1: value=1 reward=1" in out
        assert "2: value=2 reward=2" in out
        assert "index pro-rata:" in out
        assert "index user-centric:" in out

    def test_price_multiplier(self, matrix, capsys):
        code, out, _ = run(capsys, "allocate", "--input", str(matrix),
                           "--index", "shapley", "--price", "10")
        assert code == 0
        assert "payout=10.000000" in out
        assert "payout=20.000000" in out
        assert "reward=1 " in out  # fractions unchanged by the multiplier

    def test_fractional_price(self, matrix, capsys):
        code, out, _ = run(capsys, "allocate", "--input", str(matrix),
                           "--index", "shapley", "--price", "1/2")
        assert code == 0
        assert "payout=0.500000" in out

    def test_price_beyond_float_range(self, matrix, capsys):
        code, out, err = run(capsys, "allocate", "--input", str(matrix),
                             "--index", "shapley", "--price", "1e400")
        assert code == 0 and err == ""
        assert f"payout=1{'0' * 400}.000000" in out

    def test_all_indices_json(self, matrix, capsys):
        import json
        code, out, _ = run(capsys, "allocate", "--input", str(matrix),
                           "--index", "all", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["sections"]) == 7

    def test_unknown_index_is_data_error(self, matrix, capsys):
        code, _, err = run(capsys, "allocate", "--input", str(matrix),
                           "--index", "bogus")
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("index", ["shapley,shapley", "pro-rata, shapley ,shapley"])
    def test_repeated_index_is_data_error(self, matrix, capsys, index):
        code, out, err = run(capsys, "allocate", "--input", str(matrix), "--index", index)
        assert code == 2 and out == ""
        assert err == "streamshare: error: index rule 'shapley' is listed more than once\n"

    def test_bad_price(self, matrix, capsys):
        assert run(capsys, "allocate", "--input", str(matrix), "--price", "0")[0] == 2
        assert run(capsys, "allocate", "--input", str(matrix), "--price", "x")[0] == 2
        code, out, err = run(capsys, "allocate", "--input", str(matrix), "--price", "1/0")
        assert code == 2 and out == ""
        assert "streamshare: error:" in err and "'1/0'" in err

    @pytest.mark.parametrize("price", ["1e5000", "1E-1001", "2.5e+99999999", "1" * 1001],
                             ids=["exponent", "negative-exponent", "huge-exponent", "length"])
    def test_price_out_of_range_is_refused_before_parsing(self, matrix, capsys,
                                                           monkeypatch, price):
        parsed = []
        monkeypatch.setattr(cli, "Fraction", lambda text: parsed.append(text))
        code, out, err = run(capsys, "allocate", "--input", str(matrix), "--price", price)
        assert code == 2 and out == ""
        assert err.startswith("streamshare: error: price multiplier ")
        assert repr(price[:20])[:-1] in err
        assert parsed == []

    def test_price_at_the_limits(self, matrix, capsys):
        for price in ("1e1000", "1e-1000", "9" * 995 + "e1000", "1/" + "7" * 998):
            code, out, err = run(capsys, "allocate", "--input", str(matrix),
                                 "--index", "shapley", "--price", price)
            assert (code, err) == (0, "")

    def test_output_file(self, matrix, tmp_path, capsys):
        dest = tmp_path / "report.txt"
        code, out, _ = run(capsys, "allocate", "--input", str(matrix),
                           "--output", str(dest))
        assert code == 0 and out == ""
        assert "index shapley:" in dest.read_text(encoding="utf-8")


class TestGame:
    def test_pessimistic_export(self, matrix, capsys):
        code, out, _ = run(capsys, "game", "--input", str(matrix))
        assert code == 0
        assert out == "00,0\n01,1\n10,2\n11,3\n"

    def test_dual_matches_optimistic(self, matrix, capsys):
        _, dual, _ = run(capsys, "game", "--input", str(matrix), "--stance", "dual")
        _, opt, _ = run(capsys, "game", "--input", str(matrix), "--stance", "optimistic")
        assert dual == opt

    @pytest.mark.parametrize("n", [21, 25])
    def test_table_limit_is_data_error(self, tmp_path, n, capsys):
        # the check must refuse before any 2^n table is built
        path = tmp_path / "wide.csv"
        rows = [f"a{i},{i + 1}" for i in range(n)]
        path.write_text("artist,u\n" + "\n".join(rows) + "\n", encoding="utf-8")
        code, out, err = run(capsys, "game", "--input", str(path))
        assert code == 2 and out == ""
        assert err == f"streamshare: error: {n} artists exceeds the enumeration cap 20\n"


@st.composite
def csv_texts(draw):
    """Up to 6 artist rows of small counts, then maybe one cell overwritten."""
    m = draw(st.integers(1, 4))
    rows = [["artist", *(f"u{j}" for j in range(m))]]
    for i in range(draw(st.integers(1, 6))):
        counts = st.lists(st.sampled_from(["0", "1", "7"]), min_size=m, max_size=m)
        rows.append([f"x{i}", *draw(counts)])
    if draw(st.booleans()):
        row = draw(st.sampled_from(rows))
        row[draw(st.integers(0, m))] = draw(st.sampled_from(
            ["", "x", "-1", "1.5", " 2", '"3"', "1,2", "x0", "u0", "artist"]))
    return "\n".join(map(",".join, rows)) + draw(st.sampled_from(["", "\n", "\r\n"]))


@pytest.fixture(scope="module")
def fuzz_input(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "in.csv"


@settings(max_examples=200, deadline=None)
@given(data=st.one_of(csv_texts(), st.text(max_size=80), st.binary(max_size=80)),
       stance=st.sampled_from(["pessimistic", "optimistic", "dual"]),
       as_json=st.booleans())
def test_game_on_any_input_exits_with_a_message(fuzz_input, data, stance, as_json):
    if isinstance(data, bytes):
        fuzz_input.write_bytes(data)
    else:
        fuzz_input.write_text(data, encoding="utf-8", errors="surrogatepass")
    argv = ["game", "--input", str(fuzz_input), "--stance", stance]
    argv += ["--format", "json"] if as_json else []
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    assert code == 0 or err.getvalue().strip()


@settings(max_examples=200, deadline=None)
@given(data=st.one_of(csv_texts(), st.text(max_size=80), st.binary(max_size=80)),
       index=st.sampled_from(["", ",", "all", "shapley,,pro-rata", "bogus", "all,shapley"]),
       price=st.sampled_from(["1", "9.99", "1/2", "0", "-1", "x", "1/0", "1e400", "1e5000"]),
       to_missing_dir=st.booleans(), as_json=st.booleans())
def test_allocate_on_any_input_exits_with_a_message(fuzz_input, data, index, price,
                                                    to_missing_dir, as_json):
    if isinstance(data, bytes):
        fuzz_input.write_bytes(data)
    else:
        fuzz_input.write_text(data, encoding="utf-8", errors="surrogatepass")
    argv = ["allocate", "--input", str(fuzz_input), "--index", index, "--price", price]
    argv += ["--output", str(fuzz_input.parent / "missing" / "out")] if to_missing_dir else []
    argv += ["--format", "json"] if as_json else []
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    assert code == 0 or err.getvalue().strip()


@settings(max_examples=100, deadline=None)
@given(axiom=st.sampled_from([*AXIOM_IDS, "all", "bogus"]),
       index=st.sampled_from([*ALL_RULE_NAMES, "all", "bogus"]),
       trials=st.integers(-2, 3), seed=st.integers(-(2 ** 70), 2 ** 70),
       suite=st.sampled_from([[], ["--table"], ["--independence"],
                              ["--table", "--independence"]]),
       to_missing_dir=st.booleans(), as_json=st.booleans())
def test_audit_flags_exit_with_a_message(tmp_path_factory, axiom, index, trials, seed, suite,
                                         to_missing_dir, as_json):
    # --axiom and --index are always given, so every suite flag is refused
    # before an audit runs
    argv = ["audit", "--axiom", axiom, "--index", index, "--trials", str(trials),
            "--seed", str(seed), *suite]
    if to_missing_dir:
        argv += ["--output", str(tmp_path_factory.getbasetemp() / "missing" / "out")]
    argv += ["--format", "json"] if as_json else []
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3)
    assert code not in (1, 2) or err.getvalue().strip()
    assert (code == 0) == (not suite and trials >= 1 and not to_missing_dir
                           and "bogus" not in (axiom, index))


class TestErrorsAndUsage:
    def test_missing_file(self, tmp_path, capsys):
        code, _, err = run(capsys, "allocate", "--input", str(tmp_path / "nope.csv"))
        assert code == 2
        assert "error" in err

    def test_malformed_csv(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("artist,a\nx,oops\n", encoding="utf-8")
        code, _, err = run(capsys, "allocate", "--input", str(path))
        assert code == 2
        assert "line 2" in err

    @pytest.mark.parametrize("command", ["allocate", "game"])
    @pytest.mark.parametrize("text, where", [
        ("artist,u1\na1," + "1" * 140000 + "\n", "(line 2)"),
        ("artist,u1,u2\na1,1," + "1" * 5000 + "\n", "(line 2, column 3)"),
    ], ids=["long-field", "long-count"])
    def test_oversized_cell_is_data_error(self, tmp_path, capsys, command, text, where):
        path = tmp_path / "big.csv"
        path.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, command, "--input", str(path))
        assert code == 2 and out == ""
        assert err.startswith("streamshare: error: ") and err.endswith(f" {where}\n")

    def test_byte_order_mark_input(self, tmp_path, capsys):
        path = tmp_path / "bom.csv"
        path.write_text(EXAMPLE_1_CSV, encoding="utf-8-sig")
        code, out, _ = run(capsys, "allocate", "--input", str(path), "--index", "shapley")
        assert code == 0
        assert "1: value=1 reward=1" in out

    def test_silent_user_csv(self, tmp_path, capsys):
        path = tmp_path / "silent.csv"
        path.write_text("artist,a,b\nx,1,0\n", encoding="utf-8")
        assert run(capsys, "allocate", "--input", str(path))[0] == 2

    @pytest.mark.parametrize("command", [["allocate"], ["game"],
                                         ["audit", "--axiom", "additivity"],
                                         ["audit", "--table"], ["audit", "--independence"]],
                             ids=" ".join)
    @pytest.mark.parametrize("dest", ["missing/out.txt", "."])
    def test_unwritable_output_is_data_error(self, command, dest, matrix, tmp_path, capsys,
                                             monkeypatch):
        # refused before any parsing or audit work
        def no_work(*args, **kwargs):
            raise AssertionError("work started before --output was checked")
        for module, name in [(cli.reporting, "parse_matrix"), (cli.axioms, "audit"),
                             (cli.axioms, "reproduce_table"),
                             (cli.axioms, "independence_suite")]:
            monkeypatch.setattr(module, name, no_work)
        argv = [*command, "--output", str(tmp_path / dest)]
        argv += ["--trials", "1"] if command[0] == "audit" else ["--input", str(matrix)]
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert f"streamshare: error: cannot write {tmp_path / dest}" in err

    def test_output_is_written_only_after_a_successful_run(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("artist,a\nx,oops\n", encoding="utf-8")
        kept, fresh = tmp_path / "kept.txt", tmp_path / "fresh.txt"
        kept.write_text("earlier report", encoding="utf-8")
        for dest in (kept, fresh):
            assert run(capsys, "allocate", "--input", str(bad), "--output", str(dest))[0] == 2
        assert kept.read_text(encoding="utf-8") == "earlier report"
        assert not fresh.exists()

    @pytest.mark.parametrize("command", [
        ["audit", "--axiom", "null_artists", "--index", "shapley", "--trials", "2"],
        ["game"], ["game", "--format", "json"],
    ], ids=" ".join)
    def test_closed_stdout_is_data_error(self, command, matrix):
        if command[0] == "game":
            command = [*command, "--input", str(matrix)]
        src = Path(cli.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
        read, write = os.pipe()
        os.close(read)  # the pipe has no reader before the child writes
        try:
            proc = subprocess.run([sys.executable, "-m", "streamshare.cli", *command],
                                  stdout=write, stderr=subprocess.PIPE, env=env, timeout=120)
        finally:
            os.close(write)
        err = proc.stderr.decode("utf-8")
        assert proc.returncode == 2, err
        assert err.startswith("streamshare: error: cannot write stdout: ")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_usage_errors(self, matrix, capsys):
        assert run(capsys, "allocate")[0] == 1  # --input is required
        assert run(capsys, "nonsense")[0] == 1
        assert run(capsys, "game", "--input", str(matrix), "--stance", "hopeful")[0] == 1
        assert run(capsys, "game", "--input", str(matrix), "--cap", "30")[0] == 1

    def test_table_and_independence_conflict(self, capsys):
        code, out, err = run(capsys, "audit", "--table", "--independence", "--trials", "1")
        assert code == 1 and out == ""
        assert "--table" in err and "--independence" in err

    @pytest.mark.parametrize("suite", ["--table", "--independence"])
    @pytest.mark.parametrize("flag", [["--axiom", "bogus"], ["--index", "nope"],
                                      ["--axiom", "all"], ["--index", "all"]],
                             ids=" ".join)
    def test_suite_refuses_axiom_and_index(self, suite, flag, capsys):
        code, out, err = run(capsys, "audit", suite, *flag, "--trials", "1")
        assert code == 1 and out == ""
        assert flag[0] in err and suite in err

    @pytest.mark.parametrize("trials", ["0", "-3"])
    @pytest.mark.parametrize("mode", [["--table"], ["--independence"],
                                      ["--axiom", "additivity", "--index", "shapley"]],
                             ids=" ".join)
    def test_trials_below_one_is_usage_error(self, mode, trials, capsys):
        code, out, err = run(capsys, "audit", *mode, "--trials", trials)
        assert code == 1 and out == ""
        assert f"--trials must be at least 1, got {trials}" in err


class TestAudit:
    def test_single_cell(self, capsys):
        code, out, _ = run(capsys, "audit", "--axiom", "symmetry_on_fans",
                           "--index", "pro-rata", "--trials", "20")
        assert code == 0
        assert "symmetry_on_fans x pro-rata: counterexample" in out
        assert "witness problem:" in out

    def test_unknown_axiom(self, capsys):
        assert run(capsys, "audit", "--axiom", "bogus", "--trials", "5")[0] == 2

    def test_table_reproduction_passes(self, capsys):
        code, out, _ = run(capsys, "audit", "--table", "--trials", "20")
        assert code == 0
        assert "all_match=True" in out

    def test_independence_suite_reports_mismatch(self, capsys):
        # the characterization write-up overstates two rules, so this exits 3
        code, out, _ = run(capsys, "audit", "--independence", "--trials", "20")
        assert code == 3
        assert "all_match=False" in out
        assert "MISMATCH" in out

    def test_same_seed_is_byte_identical(self, capsys):
        args = ("audit", "--axiom", "click_fraud_proofness", "--index", "pro-rata",
                "--trials", "30", "--seed", "7", "--format", "json")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second and first

    def test_seed_env_has_no_effect(self, capsys, monkeypatch):
        # the seed is --seed, default 42; a STREAMSHARE_SEED variable is ignored
        args = ("audit", "--axiom", "additivity", "--index", "shapley", "--trials", "5",
                "--format", "json")
        expected = run(capsys, *args, "--seed", "42")
        assert expected[0] == 0 and '"seed": 42' in expected[1]
        for value in ("99", "forty-two"):
            monkeypatch.setenv("STREAMSHARE_SEED", value)
            assert run(capsys, *args) == expected
