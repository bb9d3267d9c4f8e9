"""Golden CLI reports, pinned instance generators, and the reports'
independence from the interpreter's hash seed.

The files under ``golden/`` were written by the CLI before the code they
cover was restructured, and reports must stay byte-identical:
``allocate --index all --format json --seed 7`` on a seeded sparse input
(24 artists x 40 users) and a seeded dense one (6 x 30), ``game --seed 7``
under each of the three stances on a 6 x 25 input, and ``audit --table`` /
``audit --independence`` with ``--trials 60 --seed 7`` in JSON, and the
latter in text too.

At seed 7 every audit counterexample is found on the grid, so the reports do
not pin the random instance generators. ``instances.json`` does: for each
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

GOLDEN = Path(__file__).resolve().parent / "golden"
SRC = Path(__file__).resolve().parents[1] / "src"

AUDIT = ["--trials", "60", "--seed", "7"]
CASES = {  # file name: (argv, exit code)
    "sparse_allocate.json": (["allocate", "--input", "sparse.csv", "--index", "all",
                              "--format", "json", "--seed", "7"], 0),
    "dense_allocate.json": (["allocate", "--input", "dense.csv", "--index", "all",
                             "--format", "json", "--seed", "7"], 0),
    **{f"game_{stance}.txt": (["game", "--input", "game.csv", "--stance", stance,
                               "--seed", "7"], 0)
       for stance in ("pessimistic", "optimistic", "dual")},
    "audit_table.json": (["audit", "--table", "--format", "json", *AUDIT], 0),
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


def test_reports_independent_of_hash_seed():
    commands = [
        _argv(CASES["sparse_allocate.json"][0]),
        ["audit", "--independence", "--trials", "20", "--format", "json", "--seed", "5"],
    ]
    runs = []
    for hash_seed in ("1", "2024"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
        env.pop("STREAMSHARE_SEED", None)
        runs.append([
            subprocess.run([sys.executable, "-m", "streamshare.cli", *argv], env=env,
                           capture_output=True, timeout=300)
            for argv in commands
        ])
    for first, second in zip(*runs):
        assert first.stdout  # a report was written
        assert (first.returncode, first.stdout) == (second.returncode, second.stdout)
