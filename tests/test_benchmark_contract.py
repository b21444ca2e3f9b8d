"""What the benchmark under ``perfbench/`` reads of the program, checked
without changing it: every function its tracer wraps resolves, and the 57
reports of its workloads keep their bytes."""

import copy
import hashlib
import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# sha256 of the 57 benchmark reports (seeds 1-3, each workload of
# ``WORKLOADS`` in turn, each job at its own rng_seed), concatenated seed by
# seed; its prefix 573e44dadc6deac9 is the one the ROADMAP quotes
REPORTS_SHA256 = "573e44dadc6deac96e2a90d75f1ec15e1a1e9aee3fe17597b58e8ce925c204d5"


def _load(name: str):
    """A module of perfbench/ by file, under a name of its own."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves():
    import divalg.cli  # noqa: F401  (the import the benchmark makes)

    tracing = _load("tracing")
    assert tracing.FUNCTIONS
    for layer, module, path, _, _ in tracing.FUNCTIONS:
        _, _, raw = tracing._resolve(module, path)
        assert callable(raw.__func__ if isinstance(raw, staticmethod) else raw), layer


def test_benchmark_reports_keep_their_bytes():
    from divalg.cli import report_json, run

    workloads = _load("workloads")
    digest, count = hashlib.sha256(), 0
    for seed in (1, 2, 3):
        for workload in workloads.WORKLOADS:
            for job in workloads.make_jobs(workload, seed):
                report, code = run(copy.deepcopy(job.config), job.rng_seed)
                assert workloads.check(job, report, code) is None, (workload, seed, job.name)
                digest.update(report_json(report).encode())
                count += 1
    assert count == 57
    assert digest.hexdigest() == REPORTS_SHA256
