"""Import hygiene: every name a module of the package or of the tests imports
is used in that module or listed in its ``__all__``.

Each module is read with ``ast``; a name counts as used wherever it appears as
a name in the module's code (``import a.b`` binds, and is used through, ``a``).
``from __future__`` and star imports bind no name and are skipped.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted([*(ROOT / "src" / "streamshare").glob("*.py"), *(ROOT / "tests").glob("*.py")])


def unused_imports(source: str) -> list[str]:
    """The names ``source`` imports but neither uses nor lists in ``__all__``."""
    tree = ast.parse(source)
    imported, used = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names if a.name != "*"]
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return [name for name in imported if name not in used]


def test_the_check_sees_unused_and_used_names():
    source = ("from __future__ import annotations\nimport os.path\nimport re as regex\n"
              "from a import b, c as d, e\nfrom f import *\n__all__ = ['e']\n"
              "os.path.join(d)\n")
    assert unused_imports(source) == ["regex", "b"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
