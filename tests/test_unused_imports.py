"""Every module uses each name it imports.

The lint parses each module of ``src/nilaffine``, each test module and each
module of ``perfbench`` (read only, never imported) with ``ast`` and reports any imported name that the module never reads as a
variable: ``import a.b`` binds ``a``, ``import a as b`` and ``from m import
a as b`` bind ``b``. ``from __future__`` imports are directives, not names,
and ``__init__.py`` is left out, since importing is how it re-exports.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for p in [*(ROOT / "src" / "nilaffine").glob("*.py"),
                             *(ROOT / "tests").glob("*.py"),
                             *(ROOT / "perfbench").glob("*.py")]
                 if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names ``source`` imports and never reads, in line order."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((name for name in imported if name not in read),
                  key=lambda name: (imported[name], name))


def test_every_imported_name_is_used():
    unused = [f"{path.relative_to(ROOT)}: {name}" for path in MODULES
              for name in unused_imports(path.read_text())]
    assert unused == []


def test_the_lint_sees_each_kind_of_import():
    source = """
from __future__ import annotations
import os.path
import json as codec
from math import floor, ceil as up
from typing import Mapping

def f(x: Mapping) -> int:
    return floor(x)
"""
    assert unused_imports(source) == ["os", "codec", "up"]
