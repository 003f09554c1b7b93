"""Every name a ``promptsan`` module imports is used in that module.

A stdlib stand-in for a linter's F401 check. An import line marked
``# noqa: F401`` is exempt, and a name listed in ``__all__`` counts as used.
A name read only inside a quoted annotation counts as unused; the modules
use ``from __future__ import annotations`` and need no quotes.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "promptsan"
NOQA = "# noqa: F401"


def unused_imports(source: str) -> list[str]:
    """The names ``source`` imports and never reads, as ``line: name``."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if NOQA not in lines[alias.lineno - 1]:
                    imported[alias.asname or alias.name.split(".")[0]] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"{line}: {name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in used]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_module_uses_every_import(module):
    assert unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []


def test_the_check_sees_an_unused_import_and_honours_noqa():
    source = (
        "import os\nimport os.path as osp\nfrom math import exp, log\n"
        f"from json import dumps  {NOQA}\nfrom typing import List\n"
        "__all__ = ['exp']\ndef f(x: 'List') -> float:\n    return osp.sep\n"
    )
    assert unused_imports(source) == ["1: os", "3: log", "5: List"]
