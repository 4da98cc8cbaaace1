"""Every name the package defines has a use outside the tests.

A function, class or method that only tests call is API kept alive for its
tests.  This parses ``src/hesslens/*.py`` and fails for any module-level
function or class, and any method, that no program file references outside
its own definition.  A reference is a code reference read off the syntax
tree: a name, an attribute, a name imported with ``from ... import`` or a
string constant equal to the name (``perfbench`` patches attributes by
name).  A word in a comment or a docstring is not a reference.  Files under
``src/`` and ``perfbench/`` count as uses; the tests do not, and neither does
a re-export in ``hesslens/__init__.py``.  Dunder methods are
called by the language and are not checked.
"""

import ast
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "hesslens")
USE_DIRS = ("src", "perfbench")
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _python_files(top):
    for dirpath, _, files in os.walk(top):
        for name in sorted(files):
            if name.endswith(".py"):
                yield os.path.join(dirpath, name)


def _definitions(tree):
    """Module-level functions and classes, and the methods of those classes."""
    for node in tree.body:
        if isinstance(node, DEFS):
            yield node
        if isinstance(node, ast.ClassDef):
            yield from (n for n in node.body if isinstance(n, DEFS[:2]))


def _references(tree, skip_imports):
    """``(name, line)`` of each code reference in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom) and not skip_imports:
            yield from ((alias.name, node.lineno) for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value, node.lineno


def unused_names():
    """``path:line name`` of each package definition that nothing uses."""
    trees, refs = {}, {}
    for top in USE_DIRS:
        for path in _python_files(os.path.join(ROOT, top)):
            with open(path) as f:
                trees[path] = ast.parse(f.read())
            reexports = path == os.path.join(PACKAGE, "__init__.py")
            refs[path] = list(_references(trees[path], skip_imports=reexports))
    unused = []
    for path in sorted(_python_files(PACKAGE)):
        for node in _definitions(trees[path]):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            if not any(ref == name and (p != path or not first <= line <= node.end_lineno)
                       for p, found in refs.items() for ref, line in found):
                unused.append(f"{os.path.relpath(path, ROOT)}:{node.lineno} {name}")
    return unused


def test_every_package_name_has_a_use_outside_the_tests():
    assert unused_names() == []
