"""The names `benchmark/child.py` traces must exist in evpose.

With tracing on, the benchmark child replaces each `owner.attr` it passes
to `wrap` with a timed wrapper before it runs the subcommand, so a deleted
or renamed name makes every traced benchmark run fail at start-up. The
child is read with `ast` here, never imported or run.
"""

import ast
import importlib
from pathlib import Path

CHILD = Path(__file__).resolve().parents[1] / "benchmark" / "child.py"


def traced_targets():
    """(owner expression, attribute) per wrap call, and the evpose module
    each imported alias names."""
    tree = ast.parse(CHILD.read_text())
    modules = {}  # alias -> evpose module
    loops = {}    # loop variable -> the strings its for loop runs over
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "evpose":
            for a in node.names:
                modules[a.asname or a.name] = f"evpose.{a.name}"
        elif (isinstance(node, ast.For) and isinstance(node.target, ast.Name)
              and isinstance(node.iter, (ast.Tuple, ast.List))):
            loops[node.target.id] = [ast.literal_eval(e) for e in node.iter.elts]
    targets = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "wrap"):
            owner, attr = node.args[0], node.args[1]
            names = [attr.value] if isinstance(attr, ast.Constant) else loops[attr.id]
            targets += [(ast.unparse(owner), name) for name in names]
    return modules, targets


def resolve(modules, dotted):
    """The object a dotted owner expression names, or None if it is gone."""
    head, *rest = dotted.split(".")
    obj = importlib.import_module(modules[head])
    for part in rest:
        obj = getattr(obj, part, None)
    return obj


def test_every_traced_name_resolves():
    modules, targets = traced_targets()
    assert len(targets) >= 20, targets  # the child still wraps its layers
    missing = [f"{owner}.{attr}" for owner, attr in targets
               if not hasattr(resolve(modules, owner), attr)]
    assert missing == []
