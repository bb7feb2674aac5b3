"""Source check of the library: no code that only tests call.

Every top-level function, class and assigned name (``__all__`` and other
dunders aside) of a ``peskit`` module must be named somewhere in the
package's own source. Its own definition does not count, recursion
included, nor does its string in an ``__all__`` list; a call, an attribute
access, a decorator or an import does. A name that no library code reaches
exists only for tests or for no caller at all.
"""

import ast
from pathlib import Path

import peskit


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
    sources = sorted(Path(peskit.__file__).parent.glob("*.py"))
    assert len(sources) > 5
    statements = [node for path in sources
                  for node in ast.parse(path.read_text()).body]
    uses = [_references(node) for node in statements]
    unreached = sorted(
        name for k, node in enumerate(statements)
        for name in _definitions(node)
        if not any(name in used for i, used in enumerate(uses) if i != k))
    assert unreached == []
