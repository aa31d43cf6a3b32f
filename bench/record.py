"""Record the benchmark's baseline: seed-0 output digests and work counts.

    python3 bench/record.py [LAST_SEED]

Runs every workload traced for seeds 0..LAST_SEED (default 10) and writes
``bench/baseline.json``.  ``run.py`` checks seed-0 outputs against the
digests and reports every count that differs from the recorded one, so a
change such as ``reconstruct.parallelism_calls`` going from 2 to 1 per
configuration shows as a count change.  Re-record only for a change that is
meant to alter the outputs or the counts, and say so with the change.
"""

from __future__ import annotations

import json
import sys

from run import BASELINE, WORKLOADS, run


def main(argv: list[str]) -> int:
    last_seed = int(argv[0]) if argv else 10
    data: dict = {"counts": {}, "digests": {}}
    for workload in WORKLOADS:
        for seed in range(last_seed + 1):
            rep = run(workload, seed, 1.0, True, check_digest=False)
            if rep["problems"] or rep["failed"]:
                print(f"{workload} seed {seed}: {rep['problems']}", file=sys.stderr)
                return 1
            data["counts"].setdefault(workload, {})[str(seed)] = rep["counts"]
            if seed == 0:
                data["digests"][workload] = {label: d[0] for label, d in rep["digests"].items()}
            print(f"{workload} seed {seed}: recorded", flush=True)
    BASELINE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
