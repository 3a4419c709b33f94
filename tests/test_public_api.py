"""Every exported name has a caller in the library itself.

A name in squareprop.__all__ must be referenced in some module of
src/squareprop other than __init__.py, outside its own definition: as a
name, or as an attribute (corpus calls sn.ComponentSup).  A function only
the tests call belongs in tests/oracles.py.
"""

import ast
from pathlib import Path

import squareprop

SRC = Path(squareprop.__file__).parent


def _references(tree: ast.AST, skip: str = "") -> set:
    """Names and attribute names used in tree, outside the definitions of
    the name skip."""
    found = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and node.name == skip):
            continue
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return found


def _exported() -> list:
    tree = ast.parse((SRC / "__init__.py").read_text())
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and [t.id for t in node.targets] == ["__all__"]):
            return ast.literal_eval(node.value)
    raise AssertionError("__init__.py assigns no __all__")


def test_all_is_what_the_package_exports():
    assert sorted(_exported()) == sorted(squareprop.__all__)


def test_every_exported_name_has_a_caller_in_the_library():
    trees = [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))
             if path.name != "__init__.py"]
    unused = [name for name in _exported()
              if not any(name in _references(tree, skip=name)
                         for tree in trees)]
    assert unused == []
