"""Static checks on the package source with the stdlib ast: every name a
module of density_lab imports is used in it, every private module-level
function or class is referenced somewhere in the package outside its own
definition, and every private method of a class is read somewhere in the
package outside its own body. They catch helpers orphaned when their last
caller goes, and a CLI flag or `params` key that cli.py no longer reads."""

import argparse
import ast
import pathlib
from collections import Counter

from density_lab.cli import build_parser
from density_lab.instances import PARAMS

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "density_lab"
MODULES = {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}


def _names(node) -> Counter:
    """How often each name is read under node, as a bare name or an attribute."""
    out = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
    return out


def test_every_imported_name_is_used():
    unused = []
    for name, tree in MODULES.items():
        if name == "__init__.py":
            continue  # the package namespace re-exports what it imports
        imported = {
            (alias.asname or alias.name).split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        body = [node for node in tree.body if not isinstance(node, (ast.Import, ast.ImportFrom))]
        used = set().union(*map(_names, body))
        unused += [f"{name}: {n}" for n in sorted(imported) if n not in used]
    assert unused == []


def test_every_private_module_level_definition_is_referenced():
    readers: dict[str, list] = {}  # name -> the top-level nodes that read it
    for tree in MODULES.values():
        for node in tree.body:
            names = _names(node)
            if isinstance(node, ast.ImportFrom):
                names = {alias.name for alias in node.names}
            for n in names:
                readers.setdefault(n, []).append(node)
    orphans = [
        f"{name}: {node.name}"
        for name, tree in MODULES.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_") and not node.name.startswith("__")
        and all(reader is node for reader in readers.get(node.name, ()))
    ]
    assert orphans == []


def test_every_private_method_is_read_outside_its_own_body():
    """Methods are matched by name, so a read of a same-named method of
    another class counts too."""
    reads = sum(map(_names, MODULES.values()), Counter())
    orphans = [
        f"{name}: {cls.name}.{node.name}"
        for name, tree in MODULES.items()
        for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef)
        and node.name.startswith("_") and not node.name.startswith("__")
        and reads[node.name] == _names(node)[node.name]
    ]
    assert orphans == []



def test_every_cli_knob_is_read():
    """Every key of instances.PARAMS is read in cli.py as params.get("key"),
    and every dest of cli.build_parser() as args.dest, outside the parser
    itself: a knob whose reader went while its key or flag stayed fails."""
    dests, keys = set(), set()
    for node in MODULES["cli.py"].body:
        if getattr(node, "name", None) == "build_parser":
            continue
        for sub in ast.walk(node):
            if isinstance(sub, ast.Attribute) and getattr(sub.value, "id", None) == "args":
                dests.add(sub.attr)
            elif (isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute)
                  and sub.func.attr == "get" and "params" in _names(sub.func.value)
                  and sub.args and isinstance(sub.args[0], ast.Constant)):
                keys.add(sub.args[0].value)
    parser = build_parser()
    parsers = [parser, *(sub for action in parser._actions
                         if isinstance(action, argparse._SubParsersAction)
                         for sub in action.choices.values())]
    knobs = {action.dest for p in parsers for action in p._actions
             if not isinstance(action, argparse._HelpAction)}
    assert sorted(knobs - dests) == []
    assert sorted(set(PARAMS.fields) - keys) == []
