"""Run-to-run spread of the benchmark, and the baseline record it keeps.

Run from the repository root:

    python3 perfbench/spread.py

For each workload, RUNS untraced runs with seeds 1..RUNS give the
median and quartiles of every end-to-end metric and the spread
(q3 - q1) / median, as ``statistics.quantiles(values, n=4)`` gives them,
checked against the metric's bound in ``BENCHMARK.json``; one traced run at
seed 1 gives the per-layer metrics.  It also records how the passes of one
run vary, the CPU share of pass wall time and the share of CPU time the
hypervisor stole (from ``/proc/stat`` where it exists), which tell machine
noise from scheduling.  The set is appended to the list of sets kept in
``baseline.json``, so every set ever proved stays on record.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

RUNS = 10
BASELINE = HERE / "baseline.json"
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
BOUNDS = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}


def bench(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    """The printed result of one run and its ``# passes`` line."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, timeout=180, check=True)
    lines = proc.stdout.strip().splitlines()
    passes = next(line for line in lines if line.startswith("# passes "))
    return json.loads(lines[-1]), json.loads(passes.removeprefix("# passes "))


def cpu_ticks() -> tuple[int, int] | None:
    """(steal ticks, all ticks) of the whole machine, if /proc/stat exists."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = [int(x) for x in fh.readline().split()[1:]]
    except OSError:
        return None
    return fields[7], sum(fields)


def summary(name: str, values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    spread = (q3 - q1) / med
    return {"median": med, "q1": q1, "q3": q3, "spread": spread,
            "within_bound": spread <= BOUNDS[name], "values": values}


def main() -> int:
    ticks = cpu_ticks()
    record = {
        "date": time.strftime("%Y-%m-%d %H:%M UTC", time.gmtime()),
        "machine": {"python": platform.python_version(), "nproc": os.cpu_count(),
                    "system": f"{platform.system()} {platform.machine()}"},
        "runs": RUNS,
        "run_seconds": SPEC["run_seconds"],
        "workloads": {},
    }
    for workload in WORKLOADS:
        runs = [bench(workload, seed, 0) for seed in range(1, RUNS + 1)]
        results = [r for r, _ in runs]
        end_to_end = {name: summary(name, [r["metrics"][name]["value"] for r in results])
                      for name in results[0]["metrics"]}
        entry = {
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "correct": all(r["correct"] for r in results),
            "end_to_end": end_to_end,
            # (slowest - fastest) / median pass within one run, median over
            # runs, in plain and in reference seconds
            "pass_range_in_run": {key: statistics.median(
                (max(p[key]) - min(p[key])) / statistics.median(p[key]) for _, p in runs)
                for key in ("raw_wall_s", "wall_s")},
            "cpu_over_wall": sum(sum(p["cpu_s"]) for _, p in runs)
            / sum(sum(p["raw_wall_s"]) for _, p in runs),
        }
        print(f"{workload}: {entry['attempted']} jobs, {entry['failed']} failed")
        for name, s in end_to_end.items():
            print(f"  {name:12s} median {s['median']:.4f}  q1 {s['q1']:.4f}  q3 {s['q3']:.4f}"
                  f"  spread {s['spread']:.3f}  bound {BOUNDS[name]}")
        ranges = entry["pass_range_in_run"]
        print(f"  passes in one run range over {ranges['raw_wall_s']:.3f} of their median in"
              f" plain seconds, {ranges['wall_s']:.3f} in reference seconds;"
              f" CPU / wall {entry['cpu_over_wall']:.3f}")
        traced, _ = bench(workload, 1, 1)
        entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        entry["correct"] = entry["correct"] and traced["correct"]
        sys.stdout.flush()
        record["workloads"][workload] = entry
    end = cpu_ticks()
    if ticks and end:
        record["machine"]["steal_share"] = (end[0] - ticks[0]) / max(1, end[1] - ticks[1])
    sets = json.loads(BASELINE.read_text())["sets"] if BASELINE.exists() else []
    BASELINE.write_text(json.dumps({"sets": sets + [record]}, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
