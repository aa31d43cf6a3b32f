"""The measured process of one benchmark run.

Imports ``polarcomp.cli`` from the given source tree and calls
``polarcomp.cli.main`` for each invocation of the workload, round after round,
back to back in this one single-threaded process (a closed loop with one
caller).  It stops before an invocation that would end past the time budget,
but not before every invocation ran three times, so that no median is the
mean of two samples; a traced run alternates untraced and traced rounds and
stops after four rounds at the earliest, so that every invocation has two
traced samples whose counts can be compared.  Outputs stay on disk for the
caller to check.

Set-up time is measured here too: in an untraced run, after each
invocation and outside its timed interval, fresh processes time
``import polarcomp.cli``, twelve per round (bytecode already compiled by
this process's own import).  Spreading the probes over the whole run keeps
one slow stretch of the host from setting all of them.

Usage: python3 -I bench/worker.py SPEC.json RESULT.json
"""

from __future__ import annotations

import gc
import json
import resource
import subprocess
import sys
import time
from pathlib import Path

PROBES_PER_ROUND = 12
PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import polarcomp.cli; print(time.perf_counter() - t)"
)


def probe_setup(src: Path) -> float:
    """Seconds to import ``polarcomp.cli`` in a fresh interpreter."""
    res = subprocess.run(
        [sys.executable, "-I", "-c", PROBE, str(src)], capture_output=True, text=True, timeout=60, check=True
    )
    return float(res.stdout)


def main(spec_path: str, result_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    src = Path(spec["src"]).resolve()
    sys.path.insert(0, str(src))
    import polarcomp.cli as cli

    if Path(cli.__file__).resolve().parents[1] != src:
        print(f"polarcomp imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2

    tracer = None
    if spec["trace"]:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from layers import Tracer

        tracer = Tracer()
    min_rounds = 4 if tracer else 3
    invocations = spec["invocations"]
    work = Path(spec["work"])
    budget = spec["seconds"]
    probes = max(1, PROBES_PER_ROUND // len(invocations))

    samples = []
    setup = []
    last_wall: dict[tuple[int, bool], float] = {}
    t_start = time.perf_counter()
    rnd = 0
    done = False
    while not done:
        traced = tracer is not None and rnd % 2 == 1
        for i, inv in enumerate(invocations):
            elapsed = time.perf_counter() - t_start
            if rnd >= min_rounds and elapsed + last_wall[(i, traced)] > budget:
                done = True
                break
            out = work / f"r{rnd}" / f"c{i}"
            gc.collect()
            if traced:
                tracer.install()
            c0 = time.process_time()
            t0 = time.perf_counter()
            rc = cli.main(inv["argv"] + ["--out", str(out)])
            wall = time.perf_counter() - t0
            cpu = time.process_time() - c0
            sample = {"index": i, "round": rnd, "traced": traced, "rc": rc, "wall_s": wall, "cpu_s": cpu}
            if traced:
                tracer.uninstall()
                sample["layers"] = tracer.take_metrics()
            elif tracer is None:
                setup += [probe_setup(src) for _ in range(probes)]
            last_wall[(i, traced)] = wall
            samples.append(sample)
        rnd += 1

    result = {
        "samples": samples,
        "setup": setup,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "absent": sorted(tracer.absent) if tracer else [],
    }
    if tracer:
        spans_path = Path(spec["spans"])
        with spans_path.open("w", encoding="utf-8") as fh:
            for s in tracer.spans:
                fh.write(json.dumps(dict(zip(("id", "parent", "invocation", "name", "start", "end", "hidden"), s))))
                fh.write("\n")
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
