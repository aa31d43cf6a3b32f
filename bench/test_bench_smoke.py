"""Smoke test of the benchmark on its smallest configuration.

An untraced and a traced run of the ``smoke`` workload (``q+:5:2`` with
``point 0``) must pass their output checks and report exactly the metric
names that ``BENCHMARK.json`` declares.  Timings are not asserted.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _declared(key: str) -> set[str]:
    return {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())[key]}


def _run(trace: int) -> dict:
    res = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", "smoke", "--seconds", "1", "--trace", str(trace)],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return json.loads(res.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_run_reports_declared_metrics(trace, key):
    out = _run(trace)
    assert out["correct"] is True
    assert out["failed"] == 0 and out["attempted"] >= 1
    assert set(out["metrics"]) == _declared(key)
    assert all(isinstance(m["value"], (int, float)) and m["unit"] for m in out["metrics"].values())
