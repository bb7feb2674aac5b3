"""Source check of the library: no code that only tests call.

Every top-level function, class and assigned name (``__all__`` and other
dunders aside) of a ``peskit`` module must be named somewhere in the
package's own source. Its own definition does not count, recursion
included, nor does its string in an ``__all__`` list; a call, an attribute
access, a decorator or an import does. A name that no library code reaches
exists only for tests or for no caller at all.

Every method and property (a non-dunder function in a class body) must
likewise appear as an attribute access, ``x.name``, outside its own body.
A bare name does not count: ``best`` the local variable would otherwise
keep ``best`` the method alive.
"""

import ast
from collections import Counter
from pathlib import Path

import peskit


def _modules():
    """{module name: syntax tree} of every ``peskit`` module."""
    sources = sorted(Path(peskit.__file__).parent.glob("*.py"))
    assert len(sources) > 5
    return {path.stem: ast.parse(path.read_text()) for path in sources}


def _definitions(node):
    """The names a top-level statement defines: a function, a class or
    the names it assigns, dunders left out."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                         ast.ClassDef)):
        return {node.name}
    targets = (node.targets if isinstance(node, ast.Assign)
               else [node.target] if isinstance(node, ast.AnnAssign) else [])
    return {name.id for target in targets for name in ast.walk(target)
            if isinstance(name, ast.Name) and not name.id.startswith("__")}


def _references(node):
    """Every name used under ``node``: bare names, attributes and imported
    names."""
    names = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            names.add(child.id)
        elif isinstance(child, ast.Attribute):
            names.add(child.attr)
        elif isinstance(child, ast.alias):
            names.add(child.name)
    return names


def test_every_library_definition_is_reached_from_the_library():
    statements = [node for tree in _modules().values() for node in tree.body]
    uses = [_references(node) for node in statements]
    unreached = sorted(
        name for k, node in enumerate(statements)
        for name in _definitions(node)
        if not any(name in used for i, used in enumerate(uses) if i != k))
    assert unreached == []


def _attributes(node):
    """How often each attribute name is accessed under ``node``."""
    return Counter(child.attr for child in ast.walk(node)
                   if isinstance(child, ast.Attribute))


def _methods(tree):
    """(class name, function) of each non-dunder function of a class body."""
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef):
            for node in cls.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                        and not (node.name.startswith("__")
                                 and node.name.endswith("__")):
                    yield cls.name, node


def test_every_library_method_is_reached_as_an_attribute():
    modules = _modules()
    accesses = sum(map(_attributes, modules.values()), Counter())
    methods = [(f"{module}.{cls}", node) for module, tree in modules.items()
               for cls, node in _methods(tree)]
    assert len(methods) > 20
    unreached = sorted(
        f"{owner}.{node.name}" for owner, node in methods
        if accesses[node.name] == _attributes(node)[node.name])
    assert unreached == []
