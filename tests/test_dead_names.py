"""Every module-level name of the package is used by the package.

A function, class or constant defined at the top of a module in
``src/dwtransfer`` counts as used when something in the package refers
to it: a read of the name in its own module, an import of it from its
module by another module, or a ``module.name`` read through an imported
module.  Re-exports in ``__init__.py`` do not count, since they keep a
name alive for outside callers only; ``__version__`` is exempt.
Imports and definitions are matched by module, so a local variable that
shares a name defined elsewhere is no use of it.
"""

import ast
from pathlib import Path

import dwtransfer

PACKAGE = Path(dwtransfer.__file__).parent
EXEMPT = {"__version__"}


def modules() -> dict:
    """Syntax tree of each module of the package, by module name."""
    return {path.stem: ast.parse(path.read_text(), str(path))
            for path in sorted(PACKAGE.glob("*.py"))}


def definitions(tree) -> set:
    """Names a module binds at its top level by ``def``, ``class`` or
    assignment."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [
                node.target]
            for target in targets:
                names.update(n.id for n in ast.walk(target)
                             if isinstance(n, ast.Name))
    return names


def references(name: str, tree) -> set:
    """``(module, name)`` pairs the module ``name`` refers to."""
    out = set()
    aliases = {}  # local name of an imported package module -> module
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module is None:  # from . import fermions
                    aliases[alias.asname or alias.name] = alias.name
                else:  # from .core import realize
                    out.add((node.module, alias.name))
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add((name, node.id))
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.value, ast.Name)
              and node.value.id in aliases):
            out.add((aliases[node.value.id], node.attr))
    return out


def unused(trees: dict) -> list:
    """``module.name`` of every definition in ``trees`` that nothing
    refers to, sorted."""
    used = set()
    for name, tree in trees.items():
        if name != "__init__":
            used |= references(name, tree)
    return sorted(f"{name}.{defined}"
                  for name, tree in trees.items() if name != "__init__"
                  for defined in definitions(tree) - EXEMPT
                  if (name, defined) not in used)


def test_every_module_level_name_is_used():
    assert unused(modules()) == []


def test_guard_matches_names_by_module():
    trees = {name: ast.parse(text) for name, text in {
        "__init__": "from .core import dead, kept, read, fidelity",
        "core": "def dead(): pass\ndef kept(): pass\ndef read(): pass\n"
                "def fidelity(): pass\nLIMIT = 3\n"
                "def own(): return LIMIT\n",
        "protocol": "from . import core\nfrom .core import kept\n"
                    "def run(): return kept() + core.read() + own()\n",
        # a local of the same name is no use of core.fidelity
        "cli": "def write():\n    fidelity = 1\n    return fidelity\n",
    }.items()}
    # core.own is read in protocol by its bare name, which is no import
    assert unused(trees) == ["cli.write", "core.dead", "core.fidelity",
                             "core.own", "protocol.run"]
