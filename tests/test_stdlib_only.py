"""The package stays stdlib-only: every absolute import in its sources names
a standard-library module."""

import ast
import pathlib
import sys

SOURCES = sorted((pathlib.Path(__file__).parent.parent / "src" / "eppa").glob("*.py"))


def absolute_imports(path: pathlib.Path) -> list[str]:
    """Top-level module of every absolute import in the file, at any depth."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            out += [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            out.append(node.module.split(".")[0])
    return out


def test_every_absolute_import_is_stdlib():
    assert len(SOURCES) >= 12
    outside = {(path.name, name) for path in SOURCES for name in absolute_imports(path)
               if name not in sys.stdlib_module_names}
    assert outside == set()
