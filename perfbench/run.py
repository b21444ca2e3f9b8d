"""Benchmark of divalg, end to end and layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload closure-d3 --seed 1 --seconds 40 --trace 0

Workloads are listed in ``workloads.py``.  The program is driven only
through its public API (``divalg.cli.run`` and ``report_json``), by one
client in a closed loop in this process: the next job starts when the
previous one has finished.  Whole passes over the job list run until the
next pass would overrun ``--seconds`` (at least one).  A job is timed from
the call of ``run`` to the return of ``report_json``; its report is checked
against the oracle after the pass, outside the timed region.

Times are in reference seconds.  This host's speed drifts by tens of
percent within seconds and over minutes, alike for CPU time and wall time,
so a fixed pure-Python kernel is timed just before and just after each job
and, from a timer signal, every DURING_JOB_EVERY_S seconds while it runs
(``Speed``).  The job's seconds, less those samples, are scaled to the
speed at which one run of the kernel takes REFERENCE_KERNEL_S, its median
on the machine of ``baseline.json``; fresh imports are scaled by the
samples before and after them.  The kernel runs no divalg code, so a change
to divalg moves the scaled times in full.

``--trace 0`` prints the end-to-end metrics:

* ``wall_s``       median seconds to finish the job list once (one pass,
                   the sum of its job times);
* ``job_s.p50``    median seconds of one job (``run`` plus ``report_json``);
* ``job_s.p90``    90th percentile of the same.  Both are taken over the
                   jobs of each pass, as over a whole population, and then
                   as the median over passes, so they name the same jobs
                   however many passes a run makes;
* ``setup_s``      median seconds for a fresh interpreter to import
                   ``divalg.cli``, over fresh processes started between
                   passes (never during one), so they sample the whole run;
* ``peak_rss_mb``  peak resident set of this process, which ran the passes.

``--trace 1`` alternates untraced and traced passes and prints the
per-layer metrics of ``tracing.py`` (exact counts from one traced pass,
plain seconds as medians over the traced passes; a call's seconds include
the kernel samples taken while it ran, about 2 % of the job's time) plus
``trace.overhead_s``: the median over pairs of the traced pass minus the
untraced pass just before it, in reference seconds.  Spans go to
``perfbench/out/``.

Every job is checked against its oracle; ``failed`` counts the jobs that
raised, exited non-zero or missed their expected label, fiber dimensions or
check counts, out of ``attempted``.  A comment line ``# passes {...}`` gives
the reference seconds, plain seconds and CPU seconds of every pass.  The
last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import resource
import select
import signal
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter, process_time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from tracing import PER_LAYER_UNITS, Tracer, is_exact  # noqa: E402
from workloads import WORKLOADS, check, make_jobs  # noqa: E402

# kernel samples that scale timings to reference seconds (see ``Speed``)
REFERENCE_KERNEL_S = 0.00045
BETWEEN_JOBS_REPS = 60
DURING_JOB_REPS = 10
DURING_JOB_EVERY_S = 0.2
SETUP_EVERY_S = 2.5
SETUP_MIN_SAMPLES = 5
SETUP_TIMEOUT_S = 30.0


def _kernel() -> int:
    """Fixed pure-Python work of the kind divalg does: fraction-free
    elimination on integer rows, list comprehensions and dict stores."""
    n = 14
    m = [[(i * 7 + j * 13 + i * j) % 17 - 8 for j in range(n)] for i in range(n)]
    seen = {}
    for c in range(n):
        p = next((r for r in range(c, n) if m[r][c]), None)
        if p is None:
            continue
        m[c], m[p] = m[p], m[c]
        for r in range(c + 1, n):
            f, g = m[r][c], m[c][c]
            m[r] = [g * a - f * b for a, b in zip(m[r], m[c])]
            seen[(r, c)] = m[r][-1] % 1000003
    return len(seen)


class Speed:
    """Runs of the kernel and the seconds they took.

    ``sample`` runs it now.  Inside ``with``, a timer signal runs
    DURING_JOB_REPS of it every DURING_JOB_EVERY_S seconds, between two
    bytecodes of whatever the process is doing, so long jobs are sampled
    while they run and not only at their ends.
    """

    def __init__(self):
        self.reps = 0
        self.seconds = 0.0

    def sample(self, reps: int = BETWEEN_JOBS_REPS) -> "Speed":
        t0 = perf_counter()
        for _ in range(reps):
            _kernel()
        self.seconds += perf_counter() - t0
        self.reps += reps
        return self

    def scale(self, seconds: float, *others: "Speed") -> float:
        """``seconds`` in reference seconds: the seconds at the speed at
        which one run of the kernel takes REFERENCE_KERNEL_S."""
        reps = self.reps + sum(o.reps for o in others)
        kernel_s = self.seconds + sum(o.seconds for o in others)
        return seconds * REFERENCE_KERNEL_S * reps / kernel_s

    def __enter__(self) -> "Speed":
        self._handler = signal.signal(signal.SIGALRM, lambda *_: self.sample(DURING_JOB_REPS))
        signal.setitimer(signal.ITIMER_REAL, DURING_JOB_EVERY_S, DURING_JOB_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._handler)


def time_fresh_import() -> float:
    """Reference seconds (see ``Pass``) for a fresh interpreter to import
    divalg.cli.

    ``subprocess.run(timeout=...)`` polls with sleeps of up to 50 ms, which
    would quantise a 0.1 s child; a pidfd becomes readable the moment the
    child exits.
    """
    before = Speed().sample()
    t0 = perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", "import divalg.cli"])
    fd = os.pidfd_open(proc.pid)
    try:
        exited = select.select([fd], [], [], SETUP_TIMEOUT_S)[0]
        elapsed = perf_counter() - t0
    finally:
        os.close(fd)
        if not exited:
            proc.kill()
        proc.wait()
    if not exited or proc.returncode != 0:
        raise RuntimeError("importing divalg.cli in a fresh interpreter failed")
    return before.scale(elapsed, Speed().sample())


def _job(cli, config: dict, rng_seed: int):
    report, code = cli.run(config, rng_seed)
    return report, code, cli.report_json(report)


class Pass:
    """One pass over the job list: its timings and the jobs that failed.

    ``job_s`` and ``wall`` are in reference seconds.  Each job's seconds,
    less those of the kernel samples taken during it, are scaled by the
    kernel's seconds per run over the samples just before, during and just
    after the job.  ``raw_wall`` and ``cpu`` are the plain seconds of the
    whole pass, samples included.
    """

    def __init__(self, cli, jobs, tracer: Tracer | None = None):
        configs = [copy.deepcopy(job.config) for job in jobs]
        outcomes, self.job_s = [], []
        start, cpu = perf_counter(), process_time()
        before = Speed().sample()
        for job, config in zip(jobs, configs):
            t0 = perf_counter()
            with Speed() as during:
                try:
                    if tracer is None:
                        outcome = _job(cli, config, job.rng_seed)
                    else:
                        outcome = tracer.run_job(_job, cli, config, job.rng_seed)
                except Exception:  # a job that raises is a failed job; keep going
                    outcome = traceback.format_exc(limit=3)
            elapsed = perf_counter() - t0 - during.seconds
            after = Speed().sample()
            self.job_s.append(during.scale(elapsed, before, after))
            outcomes.append(outcome)
            before = after
        self.raw_wall, self.cpu = perf_counter() - start, process_time() - cpu
        self.wall = sum(self.job_s)
        self.failures = []
        for job, outcome in zip(jobs, outcomes):
            reason = outcome if isinstance(outcome, str) else check(job, outcome[0], outcome[1])
            if reason is not None:
                self.failures.append(f"{job.name}: {reason}")


def untraced(cli, jobs, seconds: float):
    """Passes until the next one would end after ``seconds``, with one
    fresh-import sample per SETUP_EVERY_S seconds of run time taken between
    passes, so the samples spread over the whole run."""
    start = perf_counter()
    passes, setup = [], []
    while not passes or perf_counter() - start + statistics.median(
            p.raw_wall for p in passes) <= seconds:
        passes.append(Pass(cli, jobs))
        while len(setup) < (perf_counter() - start) / SETUP_EVERY_S:
            setup.append(time_fresh_import())
    while len(setup) < SETUP_MIN_SAMPLES:
        setup.append(time_fresh_import())
    metrics = {
        "wall_s": (statistics.median(p.wall for p in passes), "s"),
        "job_s.p50": (statistics.median(statistics.median(p.job_s) for p in passes), "s"),
        "job_s.p90": (statistics.median(
            statistics.quantiles(p.job_s, n=10, method="inclusive")[8] for p in passes), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return passes, metrics, []


def traced(cli, jobs, seconds: float, spans_path: Path):
    """Pairs of an untraced pass and a traced pass until the next pair would
    end after ``seconds``.  The wrappers are installed for each traced pass
    only, so every untraced pass runs the bare program."""
    start = perf_counter()
    tracer = Tracer()
    passes, layers, pairs, errors = [], [], [], []
    while not pairs or perf_counter() - start + statistics.median(
            a.raw_wall + b.raw_wall for a, b in pairs) <= seconds:
        bare = Pass(cli, jobs)
        tracer.reset()
        tracer.install()
        try:
            wrapped = Pass(cli, jobs, tracer)
        finally:
            tracer.remove()
        layers.append(tracer.metrics())
        pairs.append((bare, wrapped))
        passes += [bare, wrapped]
    tracer.write_spans(spans_path)
    exact = [{k: v for k, v in m.items() if is_exact(k)} for m in layers]
    if any(e != exact[0] for e in exact[1:]):
        errors.append("per-layer counts differ between traced passes")
    if exact[0]["closure.insert.accepted"] != exact[0]["closure.saturate.rank"]:
        errors.append("accepted inserts differ from the summed closure rank")
    metrics = {k: (v if is_exact(k) else statistics.median(m[k] for m in layers),
                   PER_LAYER_UNITS[k]) for k, v in layers[0].items()}
    metrics["trace.overhead_s"] = (statistics.median(b.wall - a.wall for a, b in pairs), "s")
    return passes, metrics, errors


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "divalg" / "cli.py").is_file():
        print(f"error: no divalg sources under {SRC}", file=sys.stderr)
        return 2
    # fresh interpreters of setup_s import divalg from the same sources
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    jobs = make_jobs(args.workload, args.seed)
    import divalg.cli  # noqa: F401  (loads every divalg module before wrapping)

    cli = sys.modules["divalg.cli"]
    if args.trace:
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        spans = out_dir / f"spans-{args.workload}-{args.seed}.jsonl"
        passes, metrics, errors = traced(cli, jobs, args.seconds, spans)
        print(f"# spans in {spans.relative_to(ROOT)}")
    else:
        passes, metrics, errors = untraced(cli, jobs, args.seconds)
    failures = [f for p in passes for f in p.failures]
    print("# passes " + json.dumps({"jobs": len(jobs), "wall_s": [p.wall for p in passes],
                                    "raw_wall_s": [p.raw_wall for p in passes],
                                    "cpu_s": [p.cpu for p in passes]}))
    for err in errors + failures[:5]:
        print(f"# error: {err}")
    result = {
        "correct": not failures and not errors,
        "attempted": len(passes) * len(jobs),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
