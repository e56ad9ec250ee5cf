"""Every private module-level function of hgslab is referenced somewhere in
hgslab, other than from its own body.

A helper left behind when its callers move to another kernel has no
caller; tests alone do not keep it alive.
"""

import ast
from pathlib import Path

import hgslab

SOURCES = sorted(Path(hgslab.__file__).parent.glob("*.py"))


def _unreferenced(sources: dict) -> list:
    """(module, name) of private top-level functions with no reference.

    A reference is a Name or an Attribute with that name outside the
    function's own definition, in any of the given module sources.
    """
    defined, used = [], set()
    for module, source in sources.items():
        for top in ast.parse(source).body:
            owner = None
            if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner = top.name
                if owner.startswith("_") and not owner.startswith("__"):
                    defined.append((module, owner))
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and node.id != owner:
                    used.add(node.id)
                elif isinstance(node, ast.Attribute) and node.attr != owner:
                    used.add(node.attr)
    return sorted((module, name) for module, name in defined if name not in used)


def test_scan_sees_unreferenced_private_functions():
    sources = {
        "a": "def _kept(): pass\ndef _dead(): pass\n"
             "def _recursive(n): return _recursive(n - 1)\n"
             "def __dunder__(): pass\nclass C:\n    def _method(self): pass\n",
        "b": "from a import _kept, _dead\nimport a\nx = a._kept\n",
    }
    assert _unreferenced(sources) == [("a", "_dead"), ("a", "_recursive")]


def test_every_private_function_is_referenced():
    sources = {path.name: path.read_text() for path in SOURCES}
    assert len(sources) >= 10
    assert _unreferenced(sources) == []
