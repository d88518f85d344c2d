"""Every function and method defined in the package is used somewhere.

A name counts as used when the package, the tests, the scripts or the
benchmark refer to it outside its own definition: as a name, as an
attribute, or inside a dotted string such as "linalg.rank" (the benchmark
names the functions it traces that way).  Dunder methods are exempt.
"""
import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "okounkov"
DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def _names_used(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and DOTTED.fullmatch(node.value)):
            yield from node.value.split(".")


def test_every_defined_function_is_referenced():
    defs, used = [], Counter()
    for top in (PACKAGE, ROOT / "tests", ROOT / "scripts", ROOT / "perfbench"):
        for path in sorted(top.rglob("*.py")):
            if path == Path(__file__).resolve():
                continue
            tree = ast.parse(path.read_text(), str(path))
            used.update(_names_used(tree))
            if top == PACKAGE:
                defs += [(path.name, node) for node in ast.walk(tree)
                         if isinstance(node, ast.FunctionDef)]
    assert defs
    unused = [(name, node.name) for name, node in defs
              if not (node.name.startswith("__") and node.name.endswith("__"))
              and used[node.name] == Counter(_names_used(node))[node.name]]
    assert unused == []
