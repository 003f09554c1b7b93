"""Every name a ``promptsan`` module imports is used in that module and is
no underscore name, and every function, class and method it defines is used
outside ``tests/``.

The first is a stdlib stand-in for a linter's F401 check. An import line
marked ``# noqa: F401`` is exempt, and a name listed in ``__all__`` counts as
used. A name read only inside a quoted annotation counts as unused; the
modules use ``from __future__ import annotations`` and need no quotes. The
only exempt imports are the bindings ``perfbench`` wraps, listed in
``PERFBENCH_BINDINGS``, so a new one must be named there.

The second keeps a module's underscore names its own: a name another module
needs is public. Test files are exempt, since a reference implementation
there may check a private helper on purpose.

The third keeps package code that only tests run out of the package: a
top-level function or class, a method whose name is not a dunder, or a name
annotated in a class body (a dataclass field), must be read somewhere in
``src/``, ``perfbench/`` or ``scripts/`` as a name, as an attribute or by an
import. It has no allowlist.
"""

from __future__ import annotations

import ast
import functools
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "promptsan"
NOQA = "# noqa: F401"
# The code whose reads count as uses of a package definition.
NON_TEST_ROOTS = ("src", "perfbench", "scripts")
# The (module, name) imports kept unused only because perfbench/layers.py
# wraps the module's binding; each carries the NOQA mark.
PERFBENCH_BINDINGS = {("exemplar.py", "tokenize"), ("rewriting.py", "clip_logits")}


def imported_names(source: str, exempt: bool) -> dict[str, int]:
    """The names ``source`` imports, with their lines: the NOQA-marked ones if ``exempt``, else the rest."""
    lines = source.splitlines()
    imported: dict[str, int] = {}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if (NOQA in lines[alias.lineno - 1]) == exempt:
                    imported[alias.asname or alias.name.split(".")[0]] = alias.lineno
    return imported


def unused_imports(source: str) -> list[str]:
    """The names ``source`` imports and never reads, as ``line: name``."""
    tree = ast.parse(source)
    imported = imported_names(source, exempt=False)
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
    assert imported_names(source, exempt=True) == {"dumps": 4}


def test_the_only_exempt_imports_are_the_perfbench_bindings():
    exempt = {
        (path.name, name)
        for path in PACKAGE.glob("*.py")
        for name in imported_names(path.read_text(encoding="utf-8"), exempt=True)
    }
    assert exempt == PERFBENCH_BINDINGS
    layers = (REPO / "perfbench" / "layers.py").read_text(encoding="utf-8")
    for module, name in PERFBENCH_BINDINGS:
        assert f'Target("promptsan.{module[:-3]}", "{name}"' in layers


def private_imports(source: str) -> list[str]:
    """The underscore names, dunders aside, that ``source`` imports from a module, as ``line: name``."""
    return [
        f"{node.lineno}: {alias.name}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.endswith("__")
    ]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_module_imports_no_underscore_name(module):
    assert private_imports((PACKAGE / module).read_text(encoding="utf-8")) == []


def test_the_check_sees_an_imported_underscore_name():
    source = (
        "from __future__ import annotations\nfrom .x import _y, z\n"
        "from .x import __version__\ndef f():\n    from promptsan.x import _w as w\n"
    )
    assert private_imports(source) == ["2: _y", "5: _w"]


def used_names(source: str) -> set[str]:
    """The names ``source`` reads: loaded names, attribute names and imported names."""
    used = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    return used


def unused_definitions(source: str, used: set[str]) -> list[str]:
    """The functions, classes, non-dunder methods and class fields of ``source`` that ``used`` lacks."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    unused = []
    for node in ast.parse(source).body:
        if isinstance(node, (*functions, ast.ClassDef)) and node.name not in used:
            unused.append(node.name)
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, functions):
                    name = item.name
                    if name.startswith("__") and name.endswith("__"):
                        continue
                elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    name = item.target.id
                else:
                    continue
                if name not in used:
                    unused.append(f"{node.name}.{name}")
    return unused


@functools.lru_cache(maxsize=1)
def non_test_uses() -> frozenset[str]:
    used = set()
    for root in NON_TEST_ROOTS:
        for path in (REPO / root).rglob("*.py"):
            used |= used_names(path.read_text(encoding="utf-8"))
    return frozenset(used)


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_module_defines_nothing_only_tests_use(module):
    source = (PACKAGE / module).read_text(encoding="utf-8")
    assert unused_definitions(source, non_test_uses()) == []


def test_the_check_sees_a_definition_only_tests_use():
    package = (
        "def called():\n    pass\ndef imported():\n    pass\ndef orphan():\n    pass\n"
        "class Kept:\n    field: int\n    orphan_field: str = ''\n    plain = 1\n"
        "    def __init__(self):\n        pass\n"
        "    def read(self):\n        pass\n    def orphan_method(self):\n        pass\n"
        "class Orphan:\n    pass\n"
    )
    user = "from pkg import imported\ncalled()\nk = Kept()\nk.read()\nk.field\norphan = 1\n"
    assert unused_definitions(package, used_names(user)) == [
        "orphan", "Kept.orphan_field", "Kept.orphan_method", "Orphan",
    ]
