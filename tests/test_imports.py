"""Every name a module of hgslab imports is used in that module, and every
relative import sits at module level.

Re-exports in `__init__.py` and `from __future__` imports are exempt from
the first rule.
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


def _local_relative_imports(source: str) -> list:
    """Lines of `from .x import y` statements inside a function body."""
    return sorted({
        node.lineno
        for fn in ast.walk(ast.parse(source))
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
        if isinstance(node, ast.ImportFrom) and node.level > 0
    })


def test_scan_sees_unused_and_used_imports():
    source = ("from __future__ import annotations\n"
              "import os.path\nfrom re import compile as c, sub\n"
              "x = c\n")
    assert _unused_imports(source) == [(2, "os"), (3, "sub")]


def test_no_module_imports_an_unused_name():
    unused = {path.name: _unused_imports(path.read_text()) for path in SOURCES}
    assert len(SOURCES) >= 10
    assert {name: found for name, found in unused.items() if found} == {}


def test_scan_sees_relative_imports_in_function_bodies():
    source = ("from .a import b\n"
              "def f():\n    from .c import d\n    import os\n"
              "    def g():\n        from ..e import h\n")
    assert _local_relative_imports(source) == [3, 6]


def test_no_module_imports_inside_a_function():
    paths = sorted(Path(hgslab.__file__).parent.glob("*.py"))
    local = {path.name: _local_relative_imports(path.read_text()) for path in paths}
    assert {name: lines for name, lines in local.items() if lines} == {}
