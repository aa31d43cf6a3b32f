"""The package root exports only what the CLI and the tests read.

Every name in ``polarcomp.__all__`` must appear in ``polarcomp/cli.py`` or in
a test module, as a name, an attribute or an import alias; a record class or
helper that nothing outside its own module reads belongs in that module.
"""

import ast
from pathlib import Path

import polarcomp

ROOT = Path(__file__).resolve().parents[1]
READERS = [ROOT / "src" / "polarcomp" / "cli.py"] + [
    p for p in sorted((ROOT / "tests").glob("*.py")) if p.name != Path(__file__).name
]


def _names_read(path):
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def test_every_export_is_read_by_the_cli_or_a_test():
    read = set().union(*map(_names_read, READERS))
    assert sorted(set(polarcomp.__all__) - read) == []
