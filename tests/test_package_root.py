"""Each name has one home, and the modules export only what the CLI and the tests read.

The package root binds nothing but its submodules: every name is imported
from the module that defines it.  Every name in a module's ``__all__`` must
appear in ``polarcomp/cli.py`` or in a test module, as a name, an attribute
or an import alias; a record class or helper that nothing outside its own
module reads belongs in that module alone.
The names that only the benchmark and the tests still read are named by no
other package module, so that they can leave ``src`` with nothing to rewire.
A helper has one owner: no package module imports another's private name,
so a helper that two modules need lives, public, with the data it reads.
"""

import ast
import importlib
import sys
from pathlib import Path

import polarcomp

ROOT = Path(__file__).resolve().parents[1]
MODULES = [
    importlib.import_module(f"polarcomp.{p.stem}")
    for p in sorted((ROOT / "src" / "polarcomp").glob("*.py"))
    if not p.stem.startswith("__")
]
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
    exported = {(m.__name__, name) for m in MODULES for name in getattr(m, "__all__", ())}
    unread = sorted((module, name) for module, name in exported if name not in read)
    assert unread == []


def test_the_package_root_binds_no_module_name():
    bound = sorted(
        name
        for name, value in vars(polarcomp).items()
        if not name.startswith("_") and value is not sys.modules.get(f"polarcomp.{name}")
    )
    assert bound == []


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


def test_no_module_reads_a_private_attribute_it_does_not_set():
    """A module reads ``obj._name`` only where it sets ``self._name`` or defines
    ``_name`` itself: how another module stores its state is that module's."""
    foreign = []
    for path in sorted((ROOT / "src" / "polarcomp").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owned = {
            node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
        } | {
            node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
            and isinstance(node.value, ast.Name) and node.value.id == "self"
        }
        foreign += [
            (path.name, node.lineno, ast.unparse(node))
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr.startswith("_")
            and not node.attr.startswith("__") and node.attr not in owned
        ]
    assert sorted(foreign) == []


def test_no_module_imports_a_private_name_of_another():
    """``from .mod import _name`` reaches into ``mod``: a helper another module
    needs is public in the module that owns its data."""
    imported = sorted(
        (path.name, alias.name)
        for path in sorted((ROOT / "src" / "polarcomp").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
        if alias.name.startswith("_")
    )
    assert imported == []
