"""No library call reads or writes the process environment.

Every input of an operation is an argument, so a sweep's output depends on
its call alone: the worker count is the ``workers`` argument, never a
variable of whoever runs it.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "boolminor"
ENVIRONMENT = {"environ", "environb", "getenv", "getenvb", "putenv", "unsetenv"}


def environment_uses(tree: ast.AST) -> list[int]:
    """The lines that name an ``os`` environment accessor, as an attribute
    (``os.environ``) or an import (``from os import getenv``)."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT:
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            lines += [node.lineno for alias in node.names if alias.name in ENVIRONMENT]
    return sorted(lines)


def test_the_guard_sees_each_accessor():
    source = "import os\nos.environ.get('A')\nos.getenv('A')\nos.putenv('A', '1')\nfrom os import environ\n"
    assert environment_uses(ast.parse(source)) == [2, 3, 4, 5]


def test_no_module_reads_the_environment():
    found = {
        path.name: lines
        for path in sorted(PACKAGE.glob("*.py"))
        if (lines := environment_uses(ast.parse(path.read_text(encoding="utf-8"))))
    }
    assert found == {}
