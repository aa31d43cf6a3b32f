"""polarcomp benchmark: whole ``polarcomp run`` invocations, checked and timed.

    python3 bench/run.py --workload suite|recover|survey [--seed N]
                         [--seconds S] [--trace 0|1]

Run from anywhere; the program is imported from ``src/`` next to this
directory.  Each run starts one fresh single-threaded worker process
(``bench/worker.py``) that calls ``polarcomp.cli.main`` for the workload's
invocations back to back for ``--seconds``.  The seed picks the horizons
(seed 0 gives the canonical ones) and is forwarded to the CLI as ``--seed``.

Every invocation is checked: exit code 0, every task file written, a lemma
battery with no failed check, a verified reconstruction, byte-identical
output trees across the run and, at seed 0, the output digest recorded in
``bench/baseline.json``.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced rounds and reports the per-layer metrics of
``bench/layers.py``.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``, where attempted and failed
count configurations (one horizon of one space).  Human-readable lines come
before it.  Exit code 0 when a result was printed, 1 when the worker failed,
2 when there is no program to benchmark.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
BASELINE = BENCH / "baseline.json"

FULL_TASKS = ("axioms.json", "complement.json", "lemma_battery.json", "reconstruction.json", "verification.json")
SURVEY_TASKS = ("axioms.json", "complement.json")
SUITE_CONFIGS = 9

# workload -> [(form, horizon shape)]; "suite" is the CLI's own nine configurations.
WORKLOADS = {
    "suite": [],
    "recover": [("q+:5:3", "line-perp"), ("q-:7:2", "point")],
    "survey": [("q+:7:2", "point"), ("q-:7:2", "line"), ("q+:5:3", "plane")],
    "smoke": [("q+:5:2", "point")],
}
SEED0 = {"point": "point 0", "line": "line 0", "plane": "plane 0", "line-perp": "meet perp 0 perp 3"}

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


class Invocation(NamedTuple):
    """One call of ``polarcomp.cli.main`` and what its output must hold."""

    label: str
    argv: list[str]
    files: tuple[str, ...]  # task files of each configuration
    configs: int  # configurations it writes


def _horizon(form: str, shape: str, rng: random.Random) -> str:
    """A horizon spec of the given shape; every shape is one orbit of the space's group."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from polarcomp.cli import parse_form
    from polarcomp.polar import build_polar

    ps = build_polar(parse_form(form))
    if shape == "plane":
        return f"plane {rng.randrange(len(ps.singular_planes()))}"
    st = ps.structure
    if shape == "point":
        return f"point {rng.randrange(st.n_points)}"
    if shape == "line":
        return f"line {rng.randrange(len(st.lines))}"
    a, b = rng.sample(st.lines[rng.randrange(len(st.lines))], 2)
    return f"meet perp {a} perp {b}"


def invocations(workload: str, seed: int) -> list[Invocation]:
    seed_args = ["--seed", str(seed)]
    if workload == "suite":
        return [Invocation("suite", ["run", "--suite", *seed_args], FULL_TASKS, SUITE_CONFIGS)]
    rng = random.Random(seed)
    out = []
    for form, shape in WORKLOADS[workload]:
        spec = SEED0[shape] if seed == 0 else _horizon(form, shape, rng)
        argv = ["run", "--form", form, "--horizon", spec, *seed_args]
        files = FULL_TASKS
        if workload == "survey":
            argv += ["--tasks", "axioms,complement"]
            files = SURVEY_TASKS
        out.append(Invocation(f"{form} {shape}", argv, files, 1))
    return out


# -- output checks ---------------------------------------------------------------


def tree_digest(root: Path) -> tuple[str, int, int]:
    """SHA-256 over relative paths and contents; also total bytes and file count."""
    h = hashlib.sha256()
    size = count = 0
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        data = path.read_bytes()
        h.update(path.relative_to(root).as_posix().encode() + b"\0" + data + b"\0")
        size += len(data)
        count += 1
    return h.hexdigest(), size, count


def _load(path: Path):
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None


def config_problems(cfg: Path, files: tuple[str, ...]) -> list[str]:
    """Why one configuration's output is wrong; empty when it is right."""
    bad = [f"{name} missing" for name in files if not (cfg / name).is_file()]
    if bad:
        return bad
    if (_load(cfg / "axioms.json") or {}).get("all_ok") is not True:
        bad.append("axioms not all_ok")
    if "lemma_battery.json" in files and (_load(cfg / "lemma_battery.json") or {}).get("failed") != 0:
        bad.append("lemma battery has failed checks")
    if "reconstruction.json" in files and (_load(cfg / "reconstruction.json") or {}).get("canonical_map") is None:
        bad.append("no canonical map")
    if "verification.json" in files:
        ver = _load(cfg / "verification.json") or {}
        if ver.get("canonical_isomorphism") is not True:
            bad.append("canonical map is not an isomorphism")
        if (ver.get("independent_search") or {}).get("found") is not True:
            bad.append("independent isomorphism search failed")
    return bad


def check_sample(inv: Invocation, out: Path, rc: int) -> tuple[int, list[str], dict]:
    """Failed configurations, problems, and digest/size facts of one invocation."""
    problems = [] if rc == 0 else [f"exit code {rc}"]
    if not out.is_dir():
        return inv.configs, problems + ["no output directory"], {}
    configs = sorted({p.parent for p in out.rglob("axioms.json")})
    if len(configs) != inv.configs:
        problems.append(f"{len(configs)} configurations written, expected {inv.configs}")
    bad_configs = 0
    for cfg in configs:
        bad = config_problems(cfg, inv.files)
        bad_configs += bool(bad)
        problems += [f"{cfg.relative_to(out).as_posix() or '.'}: {b}" for b in bad]
    failed = inv.configs if rc != 0 or len(configs) != inv.configs else bad_configs
    digest, size, count = tree_digest(out)
    return failed, problems, {"digest": digest, "bytes": size, "files": count}


# -- measurement ------------------------------------------------------------------


def run_worker(invs: list[Invocation], seconds: float, trace: bool, work: Path, spans: Path, timeout: float) -> dict:
    spec = {
        "src": str(SRC),
        "invocations": [{"label": inv.label, "argv": inv.argv} for inv in invs],
        "seconds": seconds,
        "trace": trace,
        "work": str(work),
        "spans": str(spans),
    }
    spec_path, result_path = work / "spec.json", work / "result.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    subprocess.run(
        [sys.executable, "-I", str(BENCH / "worker.py"), str(spec_path), str(result_path)],
        timeout=timeout,
        check=True,
    )
    return json.loads(result_path.read_text(encoding="utf-8"))


def is_time(name: str) -> bool:
    return name.endswith("_s") or "_s." in name


def _sum_of_medians(samples: list[dict], key, median=statistics.median) -> float:
    by_inv: dict[int, list[float]] = {}
    for s in samples:
        by_inv.setdefault(s["index"], []).append(key(s))
    return sum(median(v) for v in by_inv.values())


def run(workload: str, seed: int, seconds: float, trace: bool, *, check_digest: bool = True) -> dict:
    """One benchmark run; returns the report (metrics, checks, counts, digests)."""
    t_begin = time.perf_counter()
    invs = invocations(workload, seed)
    OUT.mkdir(exist_ok=True)
    tag = f"{workload}-seed{seed}"
    work = OUT / f"work-{tag}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        # A run of the default length ends within three minutes; a longer
        # --seconds gets room for its budget plus the minimum rounds.
        timeout = max(170.0 - (time.perf_counter() - t_begin), 3.0 * seconds)
        result = run_worker(invs, seconds, trace, work, OUT / f"spans-{tag}.jsonl", timeout)
        problems: list[str] = []
        attempted = failed = 0
        digests: dict[str, set[str]] = {}
        for s in result["samples"]:
            inv = invs[s["index"]]
            n_bad, bad, facts = check_sample(inv, work / f"r{s['round']}" / f"c{s['index']}", s["rc"])
            attempted += inv.configs
            failed += n_bad
            problems += [f"{inv.label} round {s['round']}: {b}" for b in bad]
            s.update(facts)
            digests.setdefault(inv.label, set()).add(facts.get("digest"))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for label, seen in digests.items():
        if len(seen) != 1:
            problems.append(f"{label}: output differs between rounds")
    recorded = (_load(BASELINE) or {}).get("digests", {}).get(workload, {})
    if seed == 0 and check_digest:
        for label, seen in digests.items():
            if recorded.get(label) not in seen:
                problems.append(f"{label}: output digest differs from the recorded seed-0 digest")

    samples = result["samples"]
    plain = [s for s in samples if not s["traced"]]
    metrics: dict[str, float] = {}
    counts: dict[str, float] = {}
    if trace:
        traced = [s for s in samples if s["traced"]]
        for inv_index, inv in enumerate(invs):
            if sum(s["index"] == inv_index for s in traced) < 2:
                problems.append(f"{inv.label}: fewer than two traced rounds, counts not compared")
        layer_names = list(traced[0]["layers"])
        for name in layer_names:
            # Counts must repeat exactly between rounds of one invocation;
            # median_low keeps them whole numbers.
            median = statistics.median if is_time(name) else statistics.median_low
            metrics[name] = _sum_of_medians(traced, lambda s: s["layers"][name], median)
            if not is_time(name):
                for inv_index in {s["index"] for s in traced}:
                    vals = {s["layers"][name] for s in traced if s["index"] == inv_index}
                    if len(vals) != 1:
                        problems.append(f"{invs[inv_index].label}: {name} differs between rounds {sorted(vals)}")
        disjoint = metrics["reconstruct.disjoint_pairs"]
        metrics["reconstruct.star_yield"] = metrics["reconstruct.star_pairs"] / disjoint if disjoint else 0.0
        metrics["cli.output_bytes"] = _sum_of_medians(traced, lambda s: s.get("bytes", 0), statistics.median_low)
        metrics["cli.output_files"] = _sum_of_medians(traced, lambda s: s.get("files", 0), statistics.median_low)
        metrics["trace.overhead_s"] = _sum_of_medians(traced, lambda s: s["wall_s"]) - _sum_of_medians(
            plain, lambda s: s["wall_s"]
        )
        counts = {k: v for k, v in metrics.items() if not is_time(k)}
    else:
        metrics["wall_s"] = _sum_of_medians(plain, lambda s: s["wall_s"])
        metrics["cpu_s"] = _sum_of_medians(plain, lambda s: s["cpu_s"])
        metrics["setup_s"] = statistics.median(result["setup"])
        metrics["peak_rss_mb"] = result["peak_rss_kb"] / 1024.0

    return {
        "workload": workload,
        "seed": seed,
        "invocations": [(inv.label, " ".join(inv.argv)) for inv in invs],
        "samples": samples,
        "setup": result["setup"],
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "metrics": metrics,
        "counts": counts,
        "digests": {label: sorted(d for d in seen if d) for label, seen in digests.items()},
        "absent": result["absent"],
    }


# -- reporting --------------------------------------------------------------------

UNITS = dict(END_TO_END)


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if is_time(name):
        return "s"
    if name == "cli.output_bytes":
        return "bytes"
    if name == "reconstruct.star_yield":
        return "ratio"
    return "count"


def print_report(rep: dict) -> None:
    print(f"workload {rep['workload']}  seed {rep['seed']}")
    for label, cmd in rep["invocations"]:
        walls = sorted(
            s["wall_s"] for s in rep["samples"] if rep["invocations"][s["index"]][0] == label and not s["traced"]
        )
        spread = f"min {walls[0]:.3f} max {walls[-1]:.3f} n={len(walls)}" if walls else "n=0"
        print(f"  polarcomp {cmd}   untraced wall: {spread}")
    if rep["setup"]:
        print(f"  setup: {len(rep['setup'])} imports, min {min(rep['setup']):.4f} max {max(rep['setup']):.4f}")
    frac = rep["failed"] / rep["attempted"] if rep["attempted"] else 1.0
    print(f"  configurations: {rep['attempted']} attempted, {rep['failed']} failed, failed_frac {frac:.4f}")
    for p in rep["problems"]:
        print(f"  PROBLEM {p}")
    for name in rep["absent"]:
        print(f"  absent: {name}")
    recorded = (_load(BASELINE) or {}).get("counts", {}).get(rep["workload"], {}).get(str(rep["seed"]))
    if rep["counts"] and recorded:
        for name, value in rep["counts"].items():
            if name in recorded and recorded[name] != value:
                print(f"  count changed from baseline: {name} {recorded[name]} -> {value}")
    for name, value in rep["metrics"].items():
        print(f"  {name:40s} {value:14.6f} {unit_of(name)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "polarcomp" / "cli.py").is_file():
        print(f"error: no polarcomp sources under {SRC}", file=sys.stderr)
        return 2
    try:
        rep = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (subprocess.SubprocessError, OSError) as exc:
        print(f"error: benchmark worker failed: {exc}", file=sys.stderr)
        return 1
    print_report(rep)
    result = {
        "correct": not rep["problems"] and rep["failed"] == 0,
        "attempted": rep["attempted"],
        "failed": rep["failed"],
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in rep["metrics"].items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
