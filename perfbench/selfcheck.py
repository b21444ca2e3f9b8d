"""Determinism self-check of the benchmark.

Run from the repository root:

    python3 perfbench/selfcheck.py

For every workload, two traced runs at seed 1 must print identical exact
per-layer metrics and both must be correct.  Seed 2 must give the same job
shapes: job names, job kinds, expected labels, suite lists and the multiset
of expected fiber dimensions; only the values inside each family (twists,
seed vectors, suite RNG seeds) may change.  The metric names printed must be
the ones ``BENCHMARK.json`` lists.  Exits 1 on any difference.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracing import is_exact  # noqa: E402
from workloads import WORKLOADS, make_jobs  # noqa: E402

SECONDS = 6
SEEDS = (1, 2)


def bench(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, timeout=180, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} trace {trace}: run not correct")
    return {k: v["value"] for k, v in result["metrics"].items()}


def shapes(workload: str, seed: int) -> list:
    """What must not depend on the seed; fiber dimensions as a multiset,
    because integral-twist boxes move with the twist."""
    return [(job.name, job.config["job"], job.expect.get("label"),
             sorted(job.expect.get("fiber_dims", {}).values()), job.suites)
            for job in make_jobs(workload, seed)]


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bad = 0
    listed = [sorted(m["name"] for m in spec[key]) for key in ("end_to_end", "per_layer")]
    for workload in WORKLOADS:
        plain = bench(workload, SEEDS[0], 0)
        a = bench(workload, SEEDS[0], 1)
        b = bench(workload, SEEDS[0], 1)
        diff = sorted(k for k in a if is_exact(k) and a[k] != b.get(k))
        same_shapes = shapes(workload, SEEDS[0]) == shapes(workload, SEEDS[1])
        as_listed = [sorted(plain), sorted(a)] == listed
        print(f"{workload}: {sum(map(is_exact, a))} exact metrics, {len(diff)} differ between "
              f"runs; job shapes {'equal' if same_shapes else 'DIFFER'} for seeds {SEEDS}; "
              f"metric names {'as' if as_listed else 'NOT as'} listed in BENCHMARK.json")
        for k in diff:
            print(f"  {k}: {a[k]} != {b[k]}")
        bad += bool(diff) + (not same_shapes) + (not as_listed)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
