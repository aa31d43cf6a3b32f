"""The package parses under the oldest Python that ``pyproject.toml`` admits.

``requires-python = ">=3.10"``, but the tests run on one interpreter, so
newer syntax (``except*``, ``type`` aliases, PEP 695 generics) would slip in
unnoticed without this check.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "polarcomp").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_source_parses_as_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
