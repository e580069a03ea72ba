"""One refusal path: every bound is a constant of `config`, every refusal a
`config.charge` call, and README's "Bounds" lists each constant with its
value."""

import ast
import pathlib
import re

import pytest

from eppa import config
from eppa.errors import BoundExceededError

ROOT = pathlib.Path(__file__).parent.parent
SOURCES = sorted((ROOT / "src" / "eppa").glob("*.py"))


def raised_names(source: str) -> set[str]:
    """Names of the exceptions that the source's `raise` statements name,
    called or not."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                names.add(exc.id)
            elif isinstance(exc, ast.Attribute):
                names.add(exc.attr)
    return names


def bound_constants() -> dict[str, int]:
    return {name: value for name, value in vars(config).items()
            if name.isupper() and type(value) is int}


def bounds_entries() -> list[str]:
    """The bullets of README's "Bounds" section, each joined into one line."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Bounds\n", 1)[1].split("\n## ", 1)[0]
    return [" ".join(entry.split()) for entry in re.split(r"\n\* ", section)[1:]]


def test_the_scan_finds_a_raise():
    source = ("from .errors import BoundExceededError\n"
              "from . import errors\n"
              "def f(x):\n"
              "    if x:\n"
              "        raise BoundExceededError('too many')\n"
              "    raise errors.EppaError\n")
    assert raised_names(source) == {"BoundExceededError", "EppaError"}


def test_only_config_raises_bound_exceeded():
    assert len(SOURCES) >= 12
    raising = {path.name for path in SOURCES
               if "BoundExceededError" in raised_names(path.read_text(encoding="utf-8"))}
    assert raising == {"config.py"}


def test_charge_refuses_only_over_the_bound():
    config.charge("a listing", 5, "points", 5)
    with pytest.raises(BoundExceededError) as refused:
        config.charge("a listing", 6, "points", 5)
    assert str(refused.value) == "a listing needs 6 points, over the bound 5"


def test_readme_lists_every_bound_with_its_value():
    constants = bound_constants()
    assert len(constants) >= 14
    entries = bounds_entries()
    missing = {name for name, value in constants.items()
               if not any(entry.startswith(f"`{name}`, {value:,} ") for entry in entries)}
    assert missing == set()
    assert len(entries) == len(constants)
