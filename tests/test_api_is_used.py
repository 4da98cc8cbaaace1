"""Every name the package defines has a use outside the tests.

A function, class or method that only tests call is API kept alive for its
tests.  This parses ``src/hesslens/*.py`` and fails for any module-level
function or class, and any method, whose name appears as a whole word in no
program file outside its own definition.  Files under ``src/``,
``perfbench/`` and ``demos/`` count as uses; the tests do not, and neither
does a re-export in ``hesslens/__init__.py``.  Dunder methods are called by
the language and are not checked.
"""

import ast
import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "hesslens")
USE_DIRS = ("src", "perfbench", "demos")
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _python_files(top):
    for dirpath, _, files in os.walk(top):
        for name in sorted(files):
            if name.endswith(".py"):
                yield os.path.join(dirpath, name)


def _blanked(lines, first, last):
    """``lines`` with lines ``first``..``last`` (1-based, inclusive) emptied."""
    return lines[:first - 1] + [""] * (last - first + 1) + lines[last:]


def _definitions(tree):
    """Module-level functions and classes, and the methods of those classes."""
    for node in tree.body:
        if isinstance(node, DEFS):
            yield node
        if isinstance(node, ast.ClassDef):
            yield from (n for n in node.body if isinstance(n, DEFS[:2]))


def _uses():
    """Lines of every program file, with the package's re-exports emptied."""
    uses = {}
    for top in USE_DIRS:
        for path in _python_files(os.path.join(ROOT, top)):
            with open(path) as f:
                lines = f.read().splitlines()
            if path == os.path.join(PACKAGE, "__init__.py"):
                for node in ast.parse("\n".join(lines)).body:
                    if isinstance(node, ast.ImportFrom):
                        lines = _blanked(lines, node.lineno, node.end_lineno)
            uses[path] = lines
    return uses


def unused_names():
    """``path:line name`` of each package definition that nothing uses."""
    uses = _uses()
    joined = {path: "\n".join(lines) for path, lines in uses.items()}
    unused = []
    for path in sorted(_python_files(PACKAGE)):
        for node in _definitions(ast.parse(joined[path])):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            own = "\n".join(_blanked(uses[path], first, node.end_lineno))
            word = re.compile(rf"\b{re.escape(name)}\b")
            if not any(word.search(own if p == path else text)
                       for p, text in joined.items()):
                unused.append(f"{os.path.relpath(path, ROOT)}:{node.lineno} {name}")
    return unused


def test_every_package_name_has_a_use_outside_the_tests():
    assert unused_names() == []
