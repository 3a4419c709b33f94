"""Every exported name, and every public method of an exported class,
has a caller in the library itself.

A name in squareprop.__all__ must be referenced in some module of
src/squareprop other than __init__.py, outside its own definition: as a
name, or as an attribute (corpus calls sn.ComponentSup).  So must each
method or property whose name has no leading underscore, on an exported
class or on a base class of the library's; a method is known by its name
alone, so a caller of `values` counts for every class that defines one.
A function only the tests call belongs in tests/oracles.py.
"""

import ast
import functools
import inspect
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


def _uncalled(names) -> list:
    """The names, or "Class.method" names, that no library module uses
    outside their own definitions."""
    trees = [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))
             if path.name != "__init__.py"]
    last = {name: name.rpartition(".")[2] for name in names}
    return [name for name in names
            if not any(last[name] in _references(tree, skip=last[name])
                       for tree in trees)]


def test_every_exported_name_has_a_caller_in_the_library():
    assert _uncalled(_exported()) == []


def _public_methods() -> list:
    """Class.method for each public function or property defined on an
    exported class or on one of its bases in the library."""
    found = set()
    for name in _exported():
        cls = getattr(squareprop, name)
        if not inspect.isclass(cls):
            continue
        for base in cls.__mro__:
            if not base.__module__.startswith("squareprop."):
                continue
            found.update(f"{base.__name__}.{attr}"
                         for attr, val in vars(base).items()
                         if not attr.startswith("_")
                         and (inspect.isfunction(val)
                              or isinstance(val, (
                                  property, functools.cached_property,
                                  classmethod, staticmethod))))
    return sorted(found)


def test_every_public_method_has_a_caller_in_the_library():
    methods = _public_methods()
    assert "FiniteDimRealAlgebra.element" in methods
    assert _uncalled(methods) == []
