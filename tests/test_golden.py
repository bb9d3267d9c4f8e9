"""Golden CLI reports, the pinned instance generator, and the reports'
independence from the interpreter's hash seed and from the environment.

The files under ``golden/`` were written by the CLI before the code they
cover was restructured, and reports must stay byte-identical (the six audit
files were rewritten twice: when every rule of an axiom came to share one
stream of seeded trials, and when every axiom came to draw its trials from
one planted-problem generator; each time only the ``skipped`` count of the
``equal_impact_of_artists`` cells that hold moved):
``allocate --index all --format json --seed 7`` on a seeded sparse input
(24 artists x 40 users) and a seeded dense one (6 x 30), the same with
``--price 9.99`` on a seeded wide one (80 x 600, 1.6% dense, which
``parse_matrix`` scans for its nonzero cells; the dense reader takes the
other inputs) and, in text, on the dense one; ``game --seed 7`` under each
of the three stances on a 6 x 25 input (the dual one in JSON too), and plain
``audit`` (every axiom against the three table indices), ``audit --table``
and ``audit --independence`` with ``--trials 60 --seed 7``, each in JSON and
in text. The text reports pin a witness's entries in each shape: a modified
problem with its manipulating artist or user (the plain audit), and a user
split (the independence suite).

At seed 7 every audit counterexample is found on the grid, so the reports do
not pin the random instance generator. ``instances.json`` does: for each
axiom, one sha256 of its grid instances and one of 400 random instances drawn
from ``random.Random(f"pin|{axiom}")``.
"""

import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from streamshare.axioms import AXIOM_IDS, generate_instance, grid_instances, instance_to_dict
from streamshare.cli import main
from streamshare.reporting import _read_dense, _scan

GOLDEN = Path(__file__).resolve().parent / "golden"
SRC = Path(__file__).resolve().parents[1] / "src"

AUDIT = ["--trials", "60", "--seed", "7"]
CASES = {  # file name: (argv, exit code)
    "sparse_allocate.json": (["allocate", "--input", "sparse.csv", "--index", "all",
                              "--format", "json", "--seed", "7"], 0),
    "dense_allocate.json": (["allocate", "--input", "dense.csv", "--index", "all",
                             "--format", "json", "--seed", "7"], 0),
    "wide_allocate.json": (["allocate", "--input", "wide.csv", "--index", "all",
                            "--format", "json", "--price", "9.99", "--seed", "7"], 0),
    "dense_allocate.txt": (["allocate", "--input", "dense.csv", "--index", "all",
                            "--price", "9.99", "--seed", "7"], 0),
    **{f"game_{stance}.txt": (["game", "--input", "game.csv", "--stance", stance,
                               "--seed", "7"], 0)
       for stance in ("pessimistic", "optimistic", "dual")},
    "game_dual.json": (["game", "--input", "game.csv", "--stance", "dual",
                        "--format", "json", "--seed", "7"], 0),
    "audit_plain.json": (["audit", "--format", "json", *AUDIT], 0),
    "audit_plain.txt": (["audit", *AUDIT], 0),
    "audit_table.json": (["audit", "--table", "--format", "json", *AUDIT], 0),
    "audit_table.txt": (["audit", "--table", *AUDIT], 0),
    "audit_independence.json": (["audit", "--independence", "--format", "json", *AUDIT], 3),
    "audit_independence.txt": (["audit", "--independence", *AUDIT], 3),
}


def _argv(args):
    return [str(GOLDEN / a) if a.endswith(".csv") else a for a in args]


@pytest.mark.parametrize("expected", sorted(CASES))
def test_report_matches_golden_file(expected, capsys):
    argv, code = CASES[expected]
    assert main(_argv(argv)) == code
    out = capsys.readouterr().out
    assert out.encode("utf-8") == (GOLDEN / expected).read_bytes()


def _check_csv_path_twin(name, report, twin, tmp_path, capsys):
    """The CRLF or every-cell-quoted twin of golden input ``name``, which neither
    fast reader takes, reproduces golden ``report`` through ``csv.reader``."""
    text = (GOLDEN / name).read_text(encoding="utf-8")
    if twin == "crlf":
        text = text.replace("\n", "\r\n")
    else:  # every cell quoted
        text = "".join(",".join(f'"{c}"' for c in line.split(",")) + "\n"
                       for line in text.splitlines())
    assert _scan(text) is None and _read_dense(text) is None  # read by csv.reader
    (tmp_path / name).write_text(text, encoding="utf-8", newline="")
    argv = CASES[report][0]
    assert main([str(tmp_path / a) if a.endswith(".csv") else a for a in argv]) == 0
    assert capsys.readouterr().out.encode("utf-8") == (GOLDEN / report).read_bytes()


@pytest.mark.parametrize("twin", ["crlf", "quoted"])
def test_csv_path_twins_of_the_scanned_input_match_golden_file(twin, tmp_path, capsys):
    _check_csv_path_twin("wide.csv", "wide_allocate.json", twin, tmp_path, capsys)


@pytest.mark.parametrize("twin", ["crlf", "quoted"])
def test_csv_path_twins_of_the_dense_input_match_golden_file(twin, tmp_path, capsys):
    _check_csv_path_twin("dense.csv", "dense_allocate.json", twin, tmp_path, capsys)


def _digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("axiom", AXIOM_IDS)
def test_instances_match_pinned_digests(axiom):
    pinned = json.loads((GOLDEN / "instances.json").read_text(encoding="utf-8"))[axiom]
    rng = random.Random(f"pin|{axiom}")
    draws = [instance_to_dict(generate_instance(axiom, rng)) for _ in range(400)]
    assert _digest(list(grid_instances(axiom))) == pinned["grid"]
    assert _digest(draws) == pinned["random"]


def _runs(commands, **variables):
    """Each command's CLI subprocess, with ``variables`` set in its environment."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONINTMAXSTRDIGITS"}
    env.update(variables, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    return [subprocess.run([sys.executable, "-m", "streamshare.cli", *argv], env=env,
                           capture_output=True, timeout=300)
            for argv in commands]


def test_reports_independent_of_hash_seed():
    commands = [
        _argv(CASES["sparse_allocate.json"][0]),
        ["audit", "--independence", "--trials", "20", "--format", "json"],  # default seed
    ]
    # STREAMSHARE_SEED is ignored: reports depend on argv alone
    runs = [_runs(commands, PYTHONHASHSEED=hash_seed, STREAMSHARE_SEED="not a seed")
            for hash_seed in ("1", "2024")]
    for first, second in zip(*runs):
        assert first.stdout  # a report was written
        assert (first.returncode, first.stdout) == (second.returncode, second.stdout)


def test_reports_independent_of_int_digit_limit(tmp_path):
    users = range(1, 10501)
    inputs = {  # file name: (CSV text, index)
        # user j streams a1 once and a2 j times: denominators near lcm(2..10501)
        "wide.csv": ("artist," + ",".join(f"u{j}" for j in users) + "\n"
                     + "a1" + ",1" * len(users) + "\n"
                     + "a2," + ",".join(map(str, users)) + "\n", "user-centric"),
        "nines.csv": (f"artist,u1,u2\na1,{'9' * 4300},1\na2,1,{'9' * 4300}\n", "pro-rata"),
        "long.csv": (f"artist,u1,u2\na1,{'9' * 1000},1\na2,1,2\n", "shapley"),
    }
    commands = []
    for name, (text, index) in inputs.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
        commands.append(["allocate", "--input", str(tmp_path / name), "--index", index])
    # an integer option longer than the limit
    commands.append(["audit", "--axiom", "null_artists", "--index", "shapley", "--trials", "2",
                     "--seed", "1" * 700])
    default, limited = _runs(commands), _runs(commands, PYTHONINTMAXSTRDIGITS="640")
    for first, second in zip(default, limited):
        assert first.returncode == 0, first.stderr
        assert (first.returncode, first.stdout) == (second.returncode, second.stdout)
    if hasattr(sys, "set_int_max_str_digits"):  # Python 3.10.7 and later
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            assert main(commands[1]) == 0
            assert sys.get_int_max_str_digits() == 640  # restored for in-process callers
        finally:
            sys.set_int_max_str_digits(old)
