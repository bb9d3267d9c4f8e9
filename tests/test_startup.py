"""Start-up guard: loading the CLI imports neither ``dataclasses`` nor
``inspect``, nor ``typing``, and loading ``reporting`` does not import
``axioms``.

``dataclasses`` pulls in ``inspect`` (and with it ``ast``, ``dis`` and
``tokenize``), which once made up about half of the CLI's import time. The
record types are ``collections.namedtuple`` classes, so that no run pays
for it, nor for ``typing``. The check runs in a fresh interpreter under
``-S``, so neither ``site`` (whose ``.pth`` files may import ``typing``) nor
the test runner's own imports can load the modules first.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
SLOW_MODULES = ("dataclasses", "inspect", "typing")


def test_cli_start_up_imports_neither_dataclasses_nor_inspect():
    child = ("import sys\n"
             "import streamshare.cli\n"
             "streamshare.cli.build_parser()\n"
             f"print(*[m for m in {SLOW_MODULES!r} if m in sys.modules])\n")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-S", "-c", child],
                          capture_output=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode("utf-8")
    assert proc.stdout.decode("utf-8").split() == []


def test_reporting_does_not_import_axioms():
    # the report writers read verdicts by their fields, so they need no axioms
    child = ("import sys\n"
             "import streamshare.reporting\n"
             "print('streamshare.axioms' in sys.modules)\n")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-S", "-c", child],
                          capture_output=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode("utf-8")
    assert proc.stdout.decode("utf-8").split() == ["False"]
