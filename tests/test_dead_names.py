"""Every module-level name, method and property of the package is used
by the package.

A function, class or constant defined at the top of a module in
``src/dwtransfer`` counts as used when something in the package refers
to it: a read of the name in its own module, an import of it from its
module by another module, or a ``module.name`` read through an imported
module.  Re-exports in ``__init__.py`` do not count, since they keep a
name alive for outside callers only; ``__version__`` is exempt.
Imports and definitions are matched by module, so a local variable that
shares a name defined elsewhere is no use of it.

A method or property a class defines counts as used when some module
reads an attribute of its name, ``x.name``; members are matched by name
alone, as the type of ``x`` is not known.  Special methods and
overrides of a base-class member (``_Parser.error``) are exempt, since
Python or the base class calls them.
"""

import ast
import importlib
from pathlib import Path

import dwtransfer

PACKAGE = Path(dwtransfer.__file__).parent
EXEMPT = {"__version__"}
# members no package code reads: the benchmark's traced runs bind them
# by name (perfbench/spans.py)
READ_OUTSIDE = ["core.MajoranaOperator.matrix", "core.Operator.matrix"]


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


def members(tree, namespace: dict) -> set:
    """``Class.member`` of every method and property the classes of a
    module define, save special methods and overrides; ``namespace``
    holds the module's classes by name."""
    out = set()
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        bases = namespace[node.name].__mro__[1:]
        for item in node.body:
            name = getattr(item, "name", "")
            if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not (name.startswith("__") and name.endswith("__"))
                    and not any(hasattr(base, name) for base in bases)):
                out.add(f"{node.name}.{name}")
    return out


def unread_members(trees: dict, namespaces: dict) -> list:
    """``module.Class.member`` of every member in ``trees`` whose name no
    module reads as an attribute, sorted."""
    read = {node.attr for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}
    return sorted(f"{name}.{member}" for name, tree in trees.items()
                  for member in members(tree, namespaces[name])
                  if member.split(".")[1] not in read)


def test_every_method_and_property_is_read():
    trees = modules()
    namespaces = {name: vars(importlib.import_module(f"dwtransfer.{name}"))
                  for name in trees}
    assert unread_members(trees, namespaces) == READ_OUTSIDE


def test_member_guard_exempts_special_methods_and_overrides():
    source = (
        "import argparse\n"
        "class Parser(argparse.ArgumentParser):\n"
        "    def error(self, message): pass\n"  # an override
        "    def unused(self): pass\n"
        "class Form:\n"
        "    def __init__(self): self.size = 1\n"
        "    @property\n"
        "    def width(self): return self.size\n"
        "    def product(self): return self.width\n"
        "    def dead(self): pass\n"
        "def run(form): return form.product()\n")
    tree = ast.parse(source)
    namespace = {}
    exec(compile(tree, "synthetic", "exec"), namespace)
    assert unread_members({"m": tree}, {"m": namespace}) == [
        "m.Form.dead", "m.Parser.unused"]
