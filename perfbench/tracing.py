"""Per-layer tracing of divalg from outside the program.

``Tracer.install`` replaces each public function named in ``FUNCTIONS`` by a
timing and counting wrapper at every divalg module that holds it (found by
identity, so ``from .closure import saturate`` in ``qder`` is covered too),
and ``Tracer.remove`` puts every original back and checks that no wrapper is
left.  Generator applications are counted by wrapping the ``block_apply`` of
each generator that ``classical_generators`` and ``qder_generators`` return.

Coarse layers (generator construction, saturation, extraction,
classification, the verify suites, ``rad_q``, ``smith_kernel_mod``,
``report_json`` and each job) are kept as spans (name, start, end, parent,
job id) in memory and written out at the end.  Hot calls (``insert``,
``block_apply``, ``Cyc`` arithmetic, brackets, actions, linear algebra) run
hundreds of thousands of times a pass, so they are aggregated instead: call
count, inclusive time and self time, with their duration charged to the
enclosing frame so that every self time stays exact.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

# (layer, module, attribute path, kept as spans, metrics it reports).  The
# metric ``<layer>.<field>`` comes from the wrapper's statistics for the
# fields ``calls``, ``s`` (inclusive seconds) and ``self_s``, and from the
# counters of ``Tracer._after`` for the others.  Two rows may share a layer
# (a classical and a q variant of one step); they then add up.
FUNCTIONS = [
    ("closure.insert", "divalg.closure", "SpanState.insert", False,
     ("calls", "accepted", "accept_ratio", "s")),
    ("closure.saturate", "divalg.closure", "saturate", True, ("self_s", "rounds", "rank")),
    ("closure.generators", "divalg.closure", "classical_generators", True, ("count", "s")),
    ("closure.generators", "divalg.qder", "qder_generators", True, ()),
    ("closure.extract_fibers", "divalg.closure", "extract_fibers", True, ("s",)),
    ("closure.classify", "divalg.closure", "classify", True, ("s",)),
    ("closure.classify", "divalg.qder", "classify_q", True, ()),
    ("scalars.cyc_mul", "divalg.scalars", "Cyc.__mul__", False, ("calls", "s")),
    ("scalars.cyc_add", "divalg.scalars", "Cyc.__add__", False, ("calls",)),
    ("scalars.cyc_inverse", "divalg.scalars", "Cyc.inverse", False, ("calls", "s")),
    ("scalars.cyc_zeta", "divalg.scalars", "Cyc.zeta", False, ("calls",)),
    ("linalg.basis_of", "divalg.linalg", "basis_of", False, ("calls", "s")),
    ("linalg.span_contains", "divalg.linalg", "span_contains", False, ("calls", "s")),
    ("linalg.same_span", "divalg.linalg", "same_span", False, ("calls",)),
    ("reps.act_matrix", "divalg.reps", "act_matrix", False, ("calls", "s")),
    ("witt.bracket_witt", "divalg.witt", "bracket_witt", False, ("calls", "s")),
    ("modules.act", "divalg.modules", "act", False, ("calls", "s")),
    ("modules.w_fiber_basis", "divalg.modules", "w_fiber_basis", False,
     ("calls", "distinct", "s")),
    ("qtorus.sigma_exponent", "divalg.qtorus", "sigma_exponent", False, ("calls",)),
    ("qtorus.rad_q", "divalg.qtorus", "rad_q", True, ("calls", "s")),
    ("lattices.smith_kernel_mod", "divalg.lattices", "smith_kernel_mod", True, ("calls", "s")),
    ("qder.bracket_qder", "divalg.qder", "bracket_qder", False, ("calls", "s")),
    ("qder.act_q", "divalg.qder", "act_q", False, ("calls", "s")),
    ("cli.report_json", "divalg.cli", "report_json", True, ("s", "bytes")),
]

# the suites the verify-suites jobs call
SUITES = [
    "lie_suite_classical", "d_basis_span_suite", "lemma_orthg_suite", "lie_suite_q",
    "module_suite_classical", "act_crosscheck_suite", "w_invariance_suite",
    "module_suite_q", "qtorus_suite", "equivariance_suite",
]
FUNCTIONS += [(f"verify.{s}", "divalg.verify", s, True, ("s",)) for s in SUITES]

# the generators' block_apply, wrapped per generator by Tracer._after
BLOCK_APPLY = ("closure.block_apply", ("calls", "s"))

UNITS = {"s": "s", "self_s": "s", "accept_ratio": "ratio", "bytes": "bytes"}


def _units() -> dict[str, str]:
    rows = [(layer, fields) for layer, _, _, _, fields in FUNCTIONS]
    rows.insert(1, BLOCK_APPLY)
    return {f"{layer}.{field}": UNITS.get(field, "count")
            for layer, fields in rows for field in fields}


# unit of every per-layer metric the tracer reports, in report order
PER_LAYER_UNITS = _units()


def is_exact(metric: str) -> bool:
    """Whether a per-layer metric must repeat exactly (a count, not a time)."""
    return PER_LAYER_UNITS.get(metric, "s") != "s"


class Stat:
    """Calls, inclusive seconds (outermost calls only) and self seconds."""

    __slots__ = ("calls", "total", "self_s", "active")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_s = 0.0
        self.active = 0


def _resolve(module: str, path: str):
    """(owner, attribute, raw value) for a module function or a class attribute."""
    owner = sys.modules[module]
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    raw = vars(owner)[attr]
    return owner, attr, raw


class Tracer:
    """Wrappers, counters and spans for one traced pass at a time."""

    def __init__(self):
        self._patched: list[tuple[object, str, object]] = []
        self.stats = {layer: Stat() for layer, *_ in FUNCTIONS}
        self.stats[BLOCK_APPLY[0]] = Stat()
        self.counters: dict[str, int] = {}
        self.w_keys: set = set()
        self.spans: list[tuple] = []
        self.job = -1
        self._stack = [[0.0, -1]]  # frames: [child seconds, enclosing span id]

    def reset(self) -> None:
        """Start a new pass: zero every counter in place, keep the spans."""
        for stat in self.stats.values():
            stat.calls, stat.total, stat.self_s = 0, 0.0, 0.0
        self.counters.clear()
        self.w_keys.clear()

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, layer: str, fn, span: bool, after=None):
        stat = self.stats[layer]
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1]
            sid = len(tracer.spans) if span else parent[1]
            if span:
                tracer.spans.append(None)  # reserve the id; filled on exit
            frame = [0.0, sid]
            stack.append(frame)
            outermost = stat.active == 0
            stat.active += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stat.active -= 1
                stack.pop()
                dur = t1 - t0
                stat.calls += 1
                stat.self_s += dur - frame[0]
                if outermost:
                    stat.total += dur
                parent[0] += dur
                if span:
                    tracer.spans[sid] = (sid, layer, t0, t1, parent[1], tracer.job)
            if after is not None:
                after(args, result)
            return result

        wrapper.__perfbench_wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", layer)
        return wrapper

    def _count(self, metric: str, n: int = 1) -> None:
        self.counters[metric] = self.counters.get(metric, 0) + n

    def _after(self, layer: str):
        """The hook that feeds the layer's counted fields, or None."""
        if layer == "closure.insert":
            def after(args, result):
                if result is not None:
                    self._count("closure.insert.accepted")
        elif layer == "closure.saturate":
            def after(args, result):
                self._count("closure.saturate.rounds", result[0])
                self._count("closure.saturate.rank", args[0].rank())
        elif layer == "closure.generators":
            def after(args, result):
                self._count("closure.generators.count", len(result))
                for gen in result:
                    gen.block_apply = self._wrap(BLOCK_APPLY[0], gen.block_apply, False)
        elif layer == "modules.w_fiber_basis":
            def after(args, result):
                d, k, alpha, n = args
                self.w_keys.add((d, k, tuple(alpha), tuple(n)))
        elif layer == "cli.report_json":
            def after(args, result):
                self._count("cli.report_json.bytes", len(result.encode()))
        else:
            after = None
        return after

    def install(self) -> None:
        """Wrap every function in FUNCTIONS wherever divalg holds it."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in sys.modules.items()
                   if name == "divalg" or name.startswith("divalg.")]
        for layer, module, path, span, _ in FUNCTIONS:
            owner, attr, raw = _resolve(module, path)
            fn = raw.__func__ if isinstance(raw, staticmethod) else raw
            wrapper = self._wrap(layer, fn, span, self._after(layer))
            new = staticmethod(wrapper) if isinstance(raw, staticmethod) else wrapper
            if isinstance(owner, type):
                # the attribute and its aliases, such as Cyc.__rmul__ = __mul__
                holders = [(owner, a) for a, v in vars(owner).items() if v is raw]
            else:
                holders = [(m, a) for m in modules for a, v in vars(m).items() if v is fn]
            for holder, a in holders:
                self._patched.append((holder, a, raw))
                setattr(holder, a, new)

    def remove(self) -> None:
        """Put every original back and check that no wrapper is left."""
        for holder, attr, original in reversed(self._patched):
            setattr(holder, attr, original)
        self._patched.clear()
        for name, m in list(sys.modules.items()):
            if name != "divalg" and not name.startswith("divalg."):
                continue
            for owner in [m] + [v for v in vars(m).values() if isinstance(v, type)]:
                for a, v in vars(owner).items():
                    v = v.__func__ if isinstance(v, staticmethod) else v
                    if hasattr(v, "__perfbench_wrapped__"):
                        raise RuntimeError(f"wrapper left at {name}.{a}")

    # -- jobs -------------------------------------------------------------

    def run_job(self, fn, *args):
        """Call fn(*args) as the root span of a new job id."""
        self.job += 1
        job_id = self.job
        sid = len(self.spans)
        self.spans.append(None)
        self._stack = [[0.0, sid]]
        t0 = perf_counter()
        try:
            return fn(*args)
        finally:
            self.spans[sid] = (sid, "job", t0, perf_counter(), -1, job_id)

    # -- results ----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of the pass traced since the last reset."""
        counts = dict(self.counters)
        counts["modules.w_fiber_basis.distinct"] = len(self.w_keys)
        calls = self.stats["closure.insert"].calls
        counts["closure.insert.accept_ratio"] = (
            counts.get("closure.insert.accepted", 0) / calls if calls else 0.0)
        out = {}
        for metric in PER_LAYER_UNITS:
            layer, field = metric.rsplit(".", 1)
            stat = self.stats[layer]
            out[metric] = {"calls": stat.calls, "s": stat.total,
                           "self_s": stat.self_s}.get(field, counts.get(metric, 0))
        return out

    def write_spans(self, path) -> None:
        """Write the spans kept so far as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, t0, t1, parent, job in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": t0, "end": t1,
                                     "parent": parent, "job": job}) + "\n")
