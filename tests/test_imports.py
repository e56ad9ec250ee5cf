"""Every name a module of hgslab imports is used in that module.

Re-exports in `__init__.py` and `from __future__` imports are exempt.
"""

import ast
from pathlib import Path

import hgslab

SOURCES = sorted(
    path for path in Path(hgslab.__file__).parent.glob("*.py")
    if path.name != "__init__.py"
)


def _unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_scan_sees_unused_and_used_imports():
    source = ("from __future__ import annotations\n"
              "import os.path\nfrom re import compile as c, sub\n"
              "x = c\n")
    assert _unused_imports(source) == [(2, "os"), (3, "sub")]


def test_no_module_imports_an_unused_name():
    unused = {path.name: _unused_imports(path.read_text()) for path in SOURCES}
    assert len(SOURCES) >= 10
    assert {name: found for name, found in unused.items() if found} == {}
