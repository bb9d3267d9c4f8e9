"""Start-up guard: what the CLI imports before, and while, it runs.

Loading the CLI (``import streamshare.cli`` and ``build_parser()``) imports
neither ``dataclasses`` nor ``inspect``, nor ``typing``, nor ``__future__``.
``dataclasses`` pulls in ``inspect`` (and with it ``ast``, ``dis`` and
``tokenize``), which once made up about half of the CLI's import time; the
record types are ``collections.namedtuple`` classes, so that no run pays for
it, nor for ``typing``. No module of the package has a ``from __future__``
import: its annotations use only Python 3.10 syntax and are evaluated as
written. Nor does loading the CLI import ``fractions`` (with ``decimal`` and
``numbers``), ``json``, ``csv`` or ``copy``, over a third of what was left:
the functions that use them import them, so each subcommand loads only what it
needs. ``allocate`` loads ``fractions``, and ``json`` for a dense input or a
JSON report; ``allocate`` and ``game`` load ``csv`` only when ``csv.reader``
reads the input. So a text ``game`` run on a mostly-zero input loads none of
these, and a text ``allocate`` run on it only ``fractions``. An audit loads
neither ``fractions`` nor ``csv``; it loads ``json`` for a JSON report and
``copy`` once it reports a counterexample. Loading ``reporting`` does not
import ``axioms``.

Each check runs in a fresh interpreter under ``-S``, so neither ``site``
(whose ``.pth`` files may import ``typing``) nor the test runner's own
imports can load the modules first.
"""

import os
import string
import subprocess
import sys
from pathlib import Path

import pytest

from streamshare.reporting import _mostly_zero, _scan

SRC = Path(__file__).resolve().parents[1] / "src"
SLOW_MODULES = ("dataclasses", "inspect", "typing")
DEFERRED_MODULES = ("fractions", "decimal", "json", "csv", "copy")


def loaded(code: str, modules) -> list[str]:
    """Those of ``modules`` loaded once ``code`` has run in a fresh ``-S`` interpreter."""
    child = f"import sys\n{code}\nprint(*[m for m in {tuple(modules)!r} if m in sys.modules])\n"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-S", "-c", child],
                          capture_output=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode("utf-8")
    return proc.stdout.decode("utf-8").split()


def cli_run(*argv: str) -> str:
    """Child code that runs the CLI on ``argv`` and requires exit code 0."""
    return f"from streamshare.cli import main\nassert main({list(argv)!r}) == 0\n"


START_UP = "import streamshare.cli\nstreamshare.cli.build_parser()"


def test_cli_start_up_imports_neither_dataclasses_nor_inspect():
    assert loaded(START_UP, SLOW_MODULES) == []


def test_cli_start_up_imports_no_future_module():
    # the package evaluates its annotations as written (Python 3.10 syntax)
    assert loaded(START_UP, ("__future__",)) == []


def test_cli_start_up_imports_no_module_a_subcommand_imports_on_use():
    assert loaded(START_UP, DEFERRED_MODULES) == []


@pytest.fixture
def mostly_zero(tmp_path):
    """A 12 x 52 matrix file that the scanner reads whole."""
    users, n = string.ascii_letters, 12  # one-letter ids keep the header mostly unmarked
    text = "artist," + ",".join(users) + "\n" + "".join(
        f"a{i}," + ",".join(str((j % n == i) * (1 + j % 7)) for j in range(len(users))) + "\n"
        for i in range(n))
    assert _mostly_zero(text) and _scan(text) is not None
    matrix = tmp_path / "sparse.csv"
    matrix.write_text(text, encoding="utf-8")
    return matrix


def test_text_game_on_mostly_zero_input_loads_no_fraction_json_or_copy(mostly_zero, tmp_path):
    run = cli_run("game", "--input", str(mostly_zero), "--output", str(tmp_path / "game.txt"))
    assert loaded(run, DEFERRED_MODULES) == []


def test_text_allocate_on_mostly_zero_input_loads_no_csv_json_or_copy(mostly_zero, tmp_path):
    run = cli_run("allocate", "--input", str(mostly_zero), "--output", str(tmp_path / "a.txt"))
    assert loaded(run, ("csv", "json", "copy")) == []


def test_json_audit_loads_no_fraction_or_csv(tmp_path):
    run = cli_run("audit", "--axiom", "additivity", "--index", "shapley", "--trials", "5",
                  "--format", "json", "--output", str(tmp_path / "audit.json"))
    assert loaded(run, ("fractions", "decimal", "csv")) == []


def test_reporting_does_not_import_axioms():
    # the report writers read verdicts by their fields, so they need no axioms
    assert loaded("import streamshare.reporting", ("streamshare.axioms",)) == []
