"""No module of the package imports a name that it never uses, so that a
deletion cannot leave a dead import behind.  `__init__.py` imports names only
to re-export them and is exempt."""

import ast
import pathlib

SOURCES = sorted(path for path in
                 (pathlib.Path(__file__).parent.parent / "src" / "eppa").glob("*.py")
                 if path.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names that the source's imports bind, at any depth, and that no name
    expression of its syntax tree reads (`__future__` features excepted)."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {alias.asname or alias.name for alias in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - read)


def test_the_check_finds_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os.path, sys\n"
              "from math import gcd as g, pi\n"
              "def f(x: pi) -> int:\n"
              "    return os.path.sep\n")
    assert unused_imports(source) == ["g", "sys"]


def test_no_module_imports_an_unused_name():
    assert len(SOURCES) >= 11
    unused = {(path.name, name) for path in SOURCES
              for name in unused_imports(path.read_text(encoding="utf-8"))}
    assert unused == set()
