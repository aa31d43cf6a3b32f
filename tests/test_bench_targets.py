"""The benchmark's tracer still finds every layer it wraps.

``bench/layers.py`` wraps package functions and methods by name and reports
a missing one only as ``absent``, which silently zeroes its per-layer
metrics.  A rename or removal in the package should fail here instead.
"""

import importlib.util
import inspect
import sys
from pathlib import Path

LAYERS = Path(__file__).resolve().parents[1] / "bench" / "layers.py"


def _load_layers():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _namespaces():
    """Every package module and class namespace the tracer may patch."""
    out = []
    for name, module in sorted(sys.modules.items()):
        if name.split(".")[0] != "polarcomp":
            continue
        out.append(module)
        out.extend(
            cls for _, cls in inspect.getmembers(module, inspect.isclass)
            if cls.__module__.startswith("polarcomp")
        )
    return out


def test_tracer_hooks_find_every_attribute(tmp_path):
    """A traced run reads every attribute its counting hooks ask for."""
    layers = _load_layers()
    tracer = layers.Tracer()
    try:
        tracer.install()
        cli = importlib.import_module("polarcomp.cli")
        argv = ["run", "--form", "q+:5:2", "--horizon", "point 0", "--out", str(tmp_path)]
        assert cli.main(argv) == 0
    finally:
        tracer.uninstall()
    assert tracer.absent == set()


def test_tracer_finds_every_target_and_restores_it():
    layers = _load_layers()
    for name in layers.MODULES:  # the tracer imports these; load them first
        importlib.import_module(f"polarcomp.{name}")
    before = {id(ns): (ns, dict(vars(ns))) for ns in _namespaces()}
    tracer = layers.Tracer()
    try:
        tracer.install()
        assert tracer.absent == set()
        patched = {(owner, attr) for owner, attr, _ in tracer._patches}
        assert len(patched) >= len(layers.TARGETS)
    finally:
        tracer.uninstall()
    for ns, saved in before.values():
        now = vars(ns)
        assert now.keys() == saved.keys(), ns
        changed = [key for key in saved if now[key] is not saved[key]]
        assert changed == [], (ns, changed)
