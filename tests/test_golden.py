"""Golden CLI reports and their independence from the interpreter's hash seed.

The files under ``golden/`` were written by the CLI before the problem
storage became sparse: ``allocate --index all --format json --seed 7`` on a
seeded sparse input (24 artists x 40 users) and a seeded dense one (6 x 30),
and ``game --stance dual --seed 7`` on a 6 x 25 input. Reports must stay
byte-identical.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from streamshare.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
SRC = Path(__file__).resolve().parents[1] / "src"

CASES = {
    "sparse_allocate.json": ["allocate", "--input", "sparse.csv", "--index", "all",
                             "--format", "json", "--seed", "7"],
    "dense_allocate.json": ["allocate", "--input", "dense.csv", "--index", "all",
                            "--format", "json", "--seed", "7"],
    "game_dual.txt": ["game", "--input", "game.csv", "--stance", "dual", "--seed", "7"],
}


def _argv(args):
    return [str(GOLDEN / a) if a.endswith(".csv") else a for a in args]


@pytest.mark.parametrize("expected", sorted(CASES))
def test_report_matches_golden_file(expected, capsys):
    assert main(_argv(CASES[expected])) == 0
    out = capsys.readouterr().out
    assert out.encode("utf-8") == (GOLDEN / expected).read_bytes()


def test_reports_independent_of_hash_seed():
    commands = [
        _argv(CASES["sparse_allocate.json"]),
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
