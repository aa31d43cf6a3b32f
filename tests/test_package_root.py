"""The package root exports only what the CLI and the tests read.

Every name in ``polarcomp.__all__`` must appear in ``polarcomp/cli.py`` or in
a test module, as a name, an attribute or an import alias; a record class or
helper that nothing outside its own module reads belongs in that module.
The names that only the benchmark and the tests still read are named by no
other package module, so that they can leave ``src`` with nothing to rewire.
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


# Read only by ``bench/`` and the tests; each goes once the benchmark stops
# wrapping it.
BENCH_AND_TEST_ONLY = {
    "semiaffine_planes", "plane_path", "lines_at_point", "pg_line", "normalize_point"
}


def test_bench_and_test_only_names_have_no_package_reader():
    package = sorted((ROOT / "src" / "polarcomp").glob("*.py"))
    defined_in = {
        node.name: path.name
        for path in package
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.FunctionDef) and node.name in BENCH_AND_TEST_ONLY
    }
    assert set(defined_in) == BENCH_AND_TEST_ONLY
    readers = sorted(
        (name, path.name)
        for path in package
        for name in _names_read(path) & BENCH_AND_TEST_ONLY
        if defined_in[name] != path.name
    )
    assert readers == []
