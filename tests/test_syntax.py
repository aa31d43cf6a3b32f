"""The package, its tests and the benchmark parse under the oldest Python
that ``pyproject.toml`` admits.

``requires-python = ">=3.10"``, but the tests and the benchmark run on one
interpreter, so newer syntax (``except*``, ``type`` aliases, PEP 695
generics) would slip in unnoticed without this check.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "polarcomp").glob("*.py"))
SCRIPTS = sorted([*(ROOT / "tests").glob("*.py"), *(ROOT / "bench").glob("*.py")])
SOURCES = [pytest.param(p, id=p.name) for p in PACKAGE] + [
    pytest.param(p, id=p.relative_to(ROOT).as_posix()) for p in SCRIPTS
]


@pytest.mark.parametrize("path", SOURCES)
def test_source_parses_as_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
