"""Source checks of the library.

Only two handlers may catch every exception: ``optimizer.maximize`` scores
any failed objective as ``SENTINEL``, and ``cli.main`` turns any uncaught
error into an exit code. Everywhere else a handler names the failures it
expects, so a bug propagates. Every name a module exports must exist.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import peskit

ALLOWED = {("optimizer.py", "maximize"), ("cli.py", "main")}
_BROAD = {"Exception", "BaseException"}


def _is_catch_all(handler):
    if handler.type is None:  # bare ``except:``
        return True
    names = handler.type.elts if isinstance(handler.type, ast.Tuple) \
        else [handler.type]
    return any(isinstance(n, ast.Name) and n.id in _BROAD for n in names)


def _catch_alls(path):
    """(file name, outermost enclosing function, line) of each catch-all."""
    found = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            inner = func
            if func is None and isinstance(
                    child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = child.name
            if isinstance(child, ast.ExceptHandler) and _is_catch_all(child):
                found.append((path.name, func, child.lineno))
            visit(child, inner)

    visit(ast.parse(path.read_text()), None)
    return found


def test_catch_alls_only_in_maximize_and_cli_main():
    sources = sorted(Path(peskit.__file__).parent.glob("*.py"))
    assert len(sources) > 5
    found = [hit for path in sources for hit in _catch_alls(path)]
    stray = [hit for hit in found if hit[:2] not in ALLOWED]
    assert stray == []
    assert {(name, func) for name, func, _ in found} == ALLOWED


def test_every_exported_name_resolves():
    # a stale ``__all__`` entry would make ``from peskit.<module> import *``
    # raise
    modules = [importlib.import_module(f"peskit.{info.name}")
               for info in pkgutil.iter_modules(peskit.__path__)]
    assert len(modules) > 5
    stale = [(m.__name__, name) for m in modules
             for name in getattr(m, "__all__", ()) if not hasattr(m, name)]
    assert stale == []
