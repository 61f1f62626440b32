"""Every module-level private name in the package is used somewhere.

A private helper (``_x``) that nothing in ``src/boolminor`` references
outside its own definition is dead code: a replaced primitive left behind.
References inside the definition (a recursive call) do not count.
"""

import ast
from collections import Counter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "boolminor"


def bound_names(node: ast.stmt) -> list[str]:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else []
    if isinstance(node, ast.AnnAssign):
        targets = [node.target]
    return [t.id for t in targets if isinstance(t, ast.Name)]


def references(tree: ast.AST) -> Counter:
    counts: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            counts[node.id] += 1
        elif isinstance(node, ast.Attribute):
            counts[node.attr] += 1
        elif isinstance(node, ast.alias):
            counts[node.name] += 1
    return counts


def test_every_private_name_is_referenced():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE.glob("*.py")}
    total = sum(map(references, trees.values()), Counter())
    dead = [
        f"{module}:{name}"
        for module, tree in trees.items()
        for stmt in tree.body
        for name in bound_names(stmt)
        if name.startswith("_")
        and not name.startswith("__")
        and total[name] == references(stmt)[name]
    ]
    assert not dead
