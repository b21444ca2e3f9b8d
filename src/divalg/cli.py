"""Config-driven command line: verification suites, closure jobs, torus info.

Commands read a JSON config, run the job, and emit a report (JSON by
default, or a text rendering).  Reports are deterministic given the config
and the --seed value: randomized suites draw from a seeded generator and the
report carries no wall-clock data, so reruns are byte-identical.

Exit codes: 0 all checks pass, 1 a mathematical check was violated,
2 configuration or I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys
from math import prod
from random import Random

from . import verify
from .closure import Box, Label, classical_shapes, closure
from .modules import ModuleParams, _wedge_power, graded, trivial_split
from .qder import (Q_ALGEBRAS, Q_OUTER, ad_annihilation_check, class_of, closure_q,
                   congruence_classes, q_shapes)
from .qtorus import (
    QMatrix,
    block_normal_q,
    block_structure,
    f_exponent,
    rad_q,
    sigma_exponent,
)
from .reps import RepHandle
from .scalars import Cyc, format_rat, parse_rat
from .witt import ALGEBRAS, AlgElem, DegVec, bracket_witt


class ConfigError(ValueError):
    """Invalid job configuration; maps to exit code 2."""


SCHEMA_VERSION = "1"
JOBS = ("verify-algebra", "verify-module", "closure", "qtorus-info")

# Resource budget, checked before a job builds anything: the most cells (a
# degree of a box times one coordinate kept there) that a job may list.  The
# d = 5, k = 2 closure at working box 3 lists 16,807 x 10 = 168,070.
MAX_CELLS = 2_000_000


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------


def _strict(obj: dict, context: str, required: set[str], optional: set[str]) -> None:
    if not isinstance(obj, dict):
        raise ConfigError(f"{context}: expected an object")
    unknown = set(obj) - required - optional
    if unknown:
        raise ConfigError(f"{context}: unknown fields {sorted(unknown)}")
    missing = required - set(obj)
    if missing:
        raise ConfigError(f"{context}: missing fields {sorted(missing)}")


def _int(raw, context: str, minimum: int | None = None) -> int:
    """A JSON integer config field, at least ``minimum`` when one is given;
    any other value (a float, a string, a boolean) is a ConfigError naming
    the field."""
    if not isinstance(raw, int) or isinstance(raw, bool):
        raise ConfigError(f"{context}: expected an integer, got {raw!r}")
    if minimum is not None and raw < minimum:
        raise ConfigError(f"{context}: must be at least {minimum}, got {raw}")
    return raw


def _list(raw, context: str, what: str) -> list:
    """A JSON list field, not a number or a string."""
    if not isinstance(raw, list):
        raise ConfigError(f"{context}: expected a list of {what}")
    return raw


def _ints(raw, context: str) -> tuple[int, ...]:
    """A list of integers, such as a degree or a box corner."""
    raw = _list(raw, context, "integers")
    return tuple(_int(x, f"{context}[{k}]") for k, x in enumerate(raw))


def _rats(raw, context: str) -> tuple:
    """A list of rationals, each a "p/q" string or an integer."""
    out = []
    for k, s in enumerate(_list(raw, context, "rationals")):
        try:
            out.append(parse_rat(s))
        except (ValueError, ZeroDivisionError) as e:
            raise ConfigError(f"{context}[{k}]: {e}") from None
    return tuple(out)


def _parse_alpha(raw, d: int) -> tuple:
    if not isinstance(raw, list) or len(raw) != d:
        raise ConfigError(f"alpha: expected a list of {d} rationals")
    return _rats(raw, "alpha")


def _parse_q(raw) -> QMatrix:
    """A commutation matrix from its order vector l or from N and exps; its
    order N may not exceed the cap on cyclotomic orders."""
    if not isinstance(raw, dict):
        raise ConfigError("q: expected an object")
    if "l" in raw:
        _strict(raw, "q", {"l"}, set())
        field = "q.l"
        l = _ints(raw["l"], field)
        try:
            q = block_normal_q(l)
        except ValueError as e:
            raise ConfigError(f"q.l: {e}") from None
    else:
        _strict(raw, "q", {"N", "exps"}, set())
        field = "q.N"
        n = _int(raw["N"], field)
        exps = [_ints(row, f"q.exps[{k}]")
                for k, row in enumerate(_list(raw["exps"], "q.exps", "integer rows"))]
        try:
            q = QMatrix.from_exps(n, exps)
        except ValueError as e:
            raise ConfigError(f"q: {e}") from None
    if q.N > Cyc.ORDER_CAP:
        raise ConfigError(f"{field}: root-of-unity order {q.N} exceeds the cap "
                          f"{Cyc.ORDER_CAP}")
    return q


def _config_q(config: dict, d: int | None = None) -> QMatrix:
    """The q of a quantum-algebra config, of dimension d when d is given."""
    if "q" not in config:
        raise ConfigError(f"config: quantum algebra {config['algebra']!r} needs the field 'q'")
    q = _parse_q(config["q"])
    if d is not None and q.d != d:
        raise ConfigError("q: dimension does not match d")
    return q


def _reject(config: dict, fields: tuple[str, ...]) -> None:
    """A ConfigError for the first of ``fields`` that the config sets; they
    do not apply to its algebra."""
    for field in fields:
        if field in config:
            raise ConfigError(f"{field}: does not apply to algebra {config['algebra']!r}")


def _parse_box(raw, d: int, context: str) -> Box:
    if isinstance(raw, int):
        return Box.radius(d, _int(raw, context, 0))
    if isinstance(raw, dict):
        _strict(raw, context, {"lo", "hi"}, set())
        lo, hi = _ints(raw["lo"], f"{context}.lo"), _ints(raw["hi"], f"{context}.hi")
        if len(lo) != d or len(hi) != d:
            raise ConfigError(f"{context}: corners must have length {d}")
        try:
            return Box(lo, hi)
        except ValueError as e:
            raise ConfigError(f"{context}: {e}") from None
    raise ConfigError(f"{context}: expected an integer radius or lo/hi corners")


#: The fields of each rep kind besides ``kind``
REP_FIELDS = {"natural": (), "exterior": ("k",), "symmetric": ("m",), "trivial": (),
              "tensor": ("factors",), "twisted": ("l", "inner")}

#: Most levels of tensor factors and twisted inner reps that a rep config
#: may nest, so that building and acting on a rep recurse a bounded depth
MAX_REP_DEPTH = 32


def _parse_rep(raw, d: int) -> RepHandle:
    """The rep of a ``rep`` config.

    A nested rep, a tensor factor or a twisted inner rep, is read at a path,
    and its errors name their field by that path: ``rep: factors[1].k``.
    Reps may nest at most MAX_REP_DEPTH levels deep.  The whole config is
    read, and its size found from closed forms, before any basis label is
    built: a rep whose labels would hold more than MAX_CELLS cells (dim
    times the label length, over it and every rep nested in it) is an error
    naming the field that sets the size, such as ``rep: factors[1].m``.
    """
    return _rep_plan(raw, d, "rep", 1)[0]()


def _rep_plan(raw, d: int, path: str, depth: int):
    """(build, dim, cells) of the rep config ``raw`` at ``path``: ``build()``
    makes the rep, whose dim and label cells come from closed forms."""
    at = "rep: " if depth == 1 else f"{path}."  # the prefix of its fields
    if depth > MAX_REP_DEPTH:
        raise ConfigError(f"rep: reps nested more than {MAX_REP_DEPTH} levels deep")
    if not isinstance(raw, dict) or not isinstance(raw.get("kind"), str):
        raise ConfigError(f"{path}: expected an object with a string field 'kind'")
    kind = raw["kind"]
    if kind not in REP_FIELDS:
        raise ConfigError(f"{path}: unknown rep kind {kind!r}")
    _strict(raw, path, {"kind", *REP_FIELDS[kind]}, set())
    # build(nested reps) makes the rep, of dim and label length from closed
    # forms, set by field; the constructors reject k and m out of range
    field, nested = path, []
    if kind == "natural":
        build, dim, width = lambda _: RepHandle.natural(d), d, 1
    elif kind == "exterior":
        k = _int(raw["k"], f"{at}k")
        build, field = lambda _: RepHandle.exterior(d, k), f"{at}k"
        dim, width = (_binom(d, k, MAX_CELLS) if 1 <= k <= d else 0), k
    elif kind == "symmetric":
        m = _int(raw["m"], f"{at}m")
        build, field = lambda _: RepHandle.symmetric(d, m), f"{at}m"
        dim, width = (_binom(d + m - 1, m, MAX_CELLS) if m >= 1 else 0), m
    elif kind == "trivial":
        build, dim, width = lambda _: RepHandle.trivial(d), 1, 1
    elif kind == "tensor":
        factors = _list(raw["factors"], f"{at}factors", "rep configs")
        nested = [_rep_plan(f, d, f"{at}factors[{t}]", depth + 1)
                  for t, f in enumerate(factors)]
        build, field = RepHandle.tensor, f"{at}factors"
        dim, width = _within_budget(field, *(dim for _, dim, _ in nested)), len(nested)
    else:
        l = _ints(raw["l"], f"{at}l")
        nested = [_rep_plan(raw["inner"], d, f"{at}inner", depth + 1)]
        build, field = lambda built: RepHandle.twisted(built[0], l), f"{at}inner"
        dim, width = nested[0][1], 1
    cells = _within_budget(field, dim * width + sum(c for _, _, c in nested))

    def make() -> RepHandle:
        built = [plan() for plan, _, _ in nested]
        try:
            return build(built)
        except ValueError as e:
            raise ConfigError(f"{path}: {e}") from None

    return make, dim, cells


def _binom(n: int, k: int, cap: int) -> int:
    """C(n, k) for 0 <= k <= n, or, once it is over ``cap``, a number over
    ``cap``: the partial products C(n - k + t, t) grow with t."""
    k, out = min(k, n - k), 1
    for t in range(1, k + 1):
        out = out * (n - k + t) // t
        if out > cap:
            break
    return out


def _within_budget(field: str, *factors: int) -> int:
    """The product of ``factors``, the cells that a job would list; a
    ConfigError naming ``field`` as soon as the product passes MAX_CELLS, so
    no larger number is formed."""
    if 0 in factors:
        return 0
    cells = 1
    for x in factors:
        cells *= x
        if cells > MAX_CELLS:
            raise ConfigError(f"{field}: the job would list more cells than the budget "
                              f"of {MAX_CELLS:,}")
    return cells


def _deg_str(n: DegVec) -> str:
    return ",".join(str(x) for x in n)


# ---------------------------------------------------------------------------
# job runners
# ---------------------------------------------------------------------------


def _parse_elements(raw, d: int) -> list:
    """Explicit algebra elements as lists of {"u": [...], "r": [...]} terms."""
    out = []
    for k, terms in enumerate(_list(raw, "elements", "element term lists")):
        elem = AlgElem.zero(d)
        for t, term in enumerate(_list(terms, f"elements[{k}]", "terms")):
            _strict(term, f"elements[{k}][{t}]", {"u", "r"}, set())
            u = _rats(term["u"], f"elements[{k}][{t}].u")
            r = _ints(term["r"], f"elements[{k}][{t}].r")
            if len(u) != d or len(r) != d:
                raise ConfigError(f"elements[{k}][{t}]: u and r must have length {d}")
            elem = elem + AlgElem.term(u, r)
        out.append(elem)
    return out


def _min_radius(algebra: str) -> int:
    """The least ``degree_radius``: 0 for W, whose samples may sit at degree
    0, and 1 for the others, which draw nonzero degrees from the box."""
    return 0 if algebra == "W" else 1


def _verdict(suites: list[dict], extras: dict) -> tuple[str, dict]:
    """The outcome and details of a verify job: a violation when any suite
    counts one."""
    violations = sum(s["violations"] for s in suites)
    return ("pass" if violations == 0 else "violation"), {"suites": suites, **extras}


def _job_verify_algebra(config: dict, rng: Random) -> tuple[str, dict]:
    _strict(config, "config",
            {"job", "algebra"},
            {"schema_version", "d", "q", "triples", "degree_radius", "elements"})
    algebra = config["algebra"]
    triples = _int(config.get("triples", 200), "triples", 0)
    suites = []
    extras: dict = {}
    if algebra in ALGEBRAS:
        _reject(config, ("q",))
        if "d" not in config:
            raise ConfigError("config: classical algebras need the field 'd'")
        d = _int(config["d"], "d", 1)
        radius = _int(config.get("degree_radius", 3), "degree_radius", _min_radius(algebra))
        # the pair-span suite lists every degree of its box
        _within_budget("degree_radius", *Box.radius(d, min(radius, 2)).sides, d)
        suites.append(verify.lie_suite_classical(d, algebra, triples, rng, radius))
        suites.append(verify.d_basis_span_suite(d, min(radius, 2)))
        suites.append(verify.lemma_orthg_suite(d, max(20, triples // 10), rng))
        if "elements" in config:
            elems = _parse_elements(config["elements"], d)
            member = ALGEBRAS[algebra]
            info = []
            bad = 0
            for i, x in enumerate(elems):
                ok = member(x)
                closed = all(member(bracket_witt(x, y)) for y in elems if ok and member(y))
                info.append({"element": i, "in_algebra": ok, "brackets_stay": closed})
                if not ok or not closed:
                    bad += 1
            extras["elements"] = info
            suites.append({"name": "explicit-elements", "checks": len(elems),
                           "violations": bad})
    elif algebra in Q_OUTER:
        _reject(config, ("d", "elements"))
        q = _config_q(config)
        radius = _int(config.get("degree_radius", 2), "degree_radius", _min_radius(algebra))
        suites.append(verify.lie_suite_q(q, algebra, triples, rng, radius))
    else:
        raise ConfigError(f"algebra: unknown algebra {algebra!r}")
    return _verdict(suites, extras)


def _job_verify_module(config: dict, rng: Random) -> tuple[str, dict]:
    _strict(config, "config",
            {"job", "algebra", "d", "alpha", "rep"},
            {"schema_version", "q", "pairs", "degree_radius"})
    d = _int(config["d"], "d", 1)
    params = ModuleParams(d, _parse_alpha(config["alpha"], d), _parse_rep(config["rep"], d))
    algebra = config["algebra"]
    pairs = _int(config.get("pairs", 200), "pairs", 0)
    radius = _int(config.get("degree_radius", 2), "degree_radius", _min_radius(algebra))
    suites = []
    extras: dict = {}
    if algebra in ALGEBRAS:
        _reject(config, ("q",))
        # under W the trivial rep differs from Lambda^d by the trace term, so
        # the wedge-invariance suite's W generators do not apply to it;
        # trivial_split reports that module's structure instead
        wedge = _wedge_power(params.rep) is not None and params.rep.kind != "trivial"
        if wedge:
            # the wedge-invariance suite lists every generator degree of radius 2
            _within_budget("d", *Box.radius(d, 2).sides, params.rep.dim)
        suites.append(verify.module_suite_classical(params, algebra, pairs, rng, radius))
        if d >= 2:
            suites.append(verify.act_crosscheck_suite(params, max(20, pairs // 4), rng, radius))
        if wedge:
            suites.append(verify.w_invariance_suite(params))
        if params.rep.kind == "trivial":
            split = trivial_split(params)
            extras["trivial_split"] = {
                "irreducible": split is None,
                "split_at": None if split is None else list(split),
            }
    elif algebra in Q_OUTER:
        q = _config_q(config, d)
        # the ad-annihilation check lists the radius-2 box, and the sign
        # probe walks it until a probe degree turns up
        _within_budget("d", *Box.radius(d, 2).sides, params.rep.dim)
        m = verify.module_suite_q(q, params, algebra, pairs, rng, radius)
        suites.append(m)
        suites.append(verify.qtorus_suite(q, pairs, rng))
        extras["outer_bracket_sign"] = m["outer_bracket_sign"]
        if block_structure(q) is not None:
            suites.append(verify.equivariance_suite(q, params, max(20, pairs // 2), rng, radius))
            extras["ad_annihilation"] = ad_annihilation_check(q, params)
            if extras["ad_annihilation"] is False:
                suites.append({"checks": 1, "violations": 1, "name": "ad-annihilation"})
    else:
        raise ConfigError(f"algebra: unknown algebra {algebra!r}")
    return _verdict(suites, extras)


def _job_closure(config: dict, rng: Random) -> tuple[str, dict]:
    _strict(config, "config",
            {"job", "algebra", "d", "alpha", "rep", "seeds"},
            {"schema_version", "q", "gen_radius", "working_box", "target_box",
             "max_iters", "expect_label"})
    d = _int(config["d"], "d", 1)
    params = ModuleParams(d, _parse_alpha(config["alpha"], d), _parse_rep(config["rep"], d))
    # each fiber of the closure starts from a dim x dim annihilator
    _within_budget("rep", params.rep.dim, params.rep.dim)
    algebra = config["algebra"]
    gen_radius = _int(config.get("gen_radius", 2), "gen_radius", 0)
    working = _parse_box(config.get("working_box", 3), d, "working_box")
    target = _parse_box(config.get("target_box", 1), d, "target_box")
    max_iters = _int(config.get("max_iters", 50), "max_iters", 1)
    expect = config.get("expect_label")
    if expect is not None and not isinstance(expect, str):
        raise ConfigError(f"expect_label: expected a string, got {expect!r}")
    if algebra in ALGEBRAS:
        _reject(config, ("q",))
        q = None
        shapes = classical_shapes(params, target)
    elif algebra in Q_ALGEBRAS:
        q = _config_q(config, d)
        shapes = q_shapes(q, params)
    else:
        raise ConfigError(f"algebra: no closure of algebra {algebra!r}; the closure algebras "
                          f"are {', '.join([*ALGEBRAS, *Q_ALGEBRAS])}")
    if expect is not None and Label.parse(expect, shapes) is None:
        raise ConfigError(f"expect_label: no closure of algebra {algebra!r} is labelled "
                          f"{expect!r}")
    _within_budget("working_box", *working.sides, params.rep.dim)
    # each shift of the generator box carries up to d fiber maps, about 32
    # cells each, and one neighbour bit per working-box degree, 64 to a cell
    _within_budget("gen_radius", *Box.radius(d, gen_radius).sides,
                   32 * d + prod(working.sides) // 64)
    raw_seeds = config["seeds"]
    if not isinstance(raw_seeds, list) or not raw_seeds:
        raise ConfigError("seeds: expected a nonempty list")

    def parse_seed(k, raw):
        _strict(raw, f"seeds[{k}]", {"n", "coords"}, set())
        n = _ints(raw["n"], f"seeds[{k}].n")
        if len(n) != d:
            raise ConfigError(f"seeds[{k}].n: expected length {d}")
        coords = _rats(raw["coords"], f"seeds[{k}].coords")
        if len(coords) != params.rep.dim:
            raise ConfigError(f"seeds[{k}].coords: expected length {params.rep.dim}")
        return n, coords

    seeds = [graded(params, *parse_seed(k, raw)) for k, raw in enumerate(raw_seeds)]
    try:
        if q is None:
            result = closure(params, seeds, gen_radius, working, target, max_iters, algebra)
        else:
            result = closure_q(q, params, seeds, gen_radius, working, target, max_iters,
                               algebra)
    except ValueError as e:
        raise ConfigError(f"closure: {e}") from None

    keys = {n: _deg_str(n) for n in sorted(result.fiber_dims)}
    details: dict = {
        "label": None if result.label is None else str(result.label),
        "iterations": result.iterations,
        "saturated": result.saturated,
        "fiber_dims": {key: result.fiber_dims[n] for n, key in keys.items()},
        "fiber_bases": {key: [list(map(format_rat, row)) for row in result.fiber_bases[n].rows]
                        for n, key in keys.items()},
        "target_box": {"lo": list(target.lo), "hi": list(target.hi)},
    }
    if q is not None:
        l = block_structure(q)
        if l is not None:
            per_class: dict[str, dict] = {}
            for n, key in keys.items():
                per_class.setdefault(_deg_str(class_of(l, n)), {})[key] = result.fiber_dims[n]
            details["class_dims"] = per_class
    outcome = "pass" if result.saturated else "violation"
    if expect is not None:
        details["expect_label"] = expect
        if details["label"] != expect:
            outcome = "violation"
    return outcome, details


def _job_qtorus_info(config: dict, rng: Random) -> tuple[str, dict]:
    _strict(config, "config", {"job", "q"}, {"schema_version", "sample_radius"})
    q = _parse_q(config["q"])
    radius = _int(config.get("sample_radius", 1), "sample_radius", 0)
    _within_budget("sample_radius", *Box.radius(q.d, radius).sides, q.d)
    samples = []
    degs = list(Box.radius(q.d, radius).degrees())
    for m in degs[: 4]:
        for n in degs[-4:]:
            samples.append({
                "m": list(m),
                "n": list(n),
                "sigma_exp": sigma_exponent(q, m, n),
                "f_exp": f_exponent(q, m, n),
                "sigma": Cyc.zeta(q.N, sigma_exponent(q, m, n)).to_json(),
            })
    l = block_structure(q)
    details = {
        "d": q.d,
        "N": q.N,
        "exps": [list(r) for r in q.exps],
        "rad_basis": rad_q(q),
        "block_normal_l": None if l is None else list(l),
        "cocycle_samples": samples,
    }
    if l is not None:
        details["classes"] = [_deg_str(i) for i in congruence_classes(l)]
    return "pass", details


RUNNERS = {
    "verify-algebra": _job_verify_algebra,
    "verify-module": _job_verify_module,
    "closure": _job_closure,
    "qtorus-info": _job_qtorus_info,
}


def run(config: dict, rng_seed: int) -> tuple[dict, int]:
    """Execute a job config; returns (report, exit_code)."""
    if not isinstance(config, dict):
        raise ConfigError("config: expected a JSON object")
    job = config.get("job")
    if job not in JOBS:
        raise ConfigError(f"job: expected one of {list(JOBS)}, got {job!r}")
    version = config.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ConfigError(f"schema_version: unsupported version {version!r}")
    outcome, details = RUNNERS[job](config, Random(rng_seed))
    report = {
        "schema_version": SCHEMA_VERSION,
        "job": config,
        "seed": rng_seed,
        "outcome": outcome,
        "details": details,
    }
    return report, 0 if outcome == "pass" else 1


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


# the C string escaper that json.dumps uses, with ensure_ascii
_escape = json.encoder.encode_basestring_ascii


def report_json(report: dict) -> str:
    """The report as ``json.dumps(report, indent=2, sort_keys=True) + "\\n"``
    writes it, byte for byte, without the stdlib's pure-Python encoder that
    an indent selects.  Strings, ints, booleans and None are written
    directly, tuples as lists; any other scalar goes through ``json.dumps``,
    and a key that is not a str raises TypeError."""
    out: list[str] = []
    _write(report, "\n", out)
    out.append("\n")
    return "".join(out)


def _write(x, nl: str, out: list[str]) -> None:
    """Append the JSON text of ``x`` to ``out``; ``nl`` is a newline and the
    indent of the line that ``x`` starts on."""
    if isinstance(x, str):
        out.append(_escape(x))
    elif x is None:
        out.append("null")
    elif x is True:
        out.append("true")
    elif x is False:
        out.append("false")
    elif isinstance(x, int):
        out.append(int.__repr__(x))
    elif isinstance(x, (list, tuple)):
        if not x:
            out.append("[]")
            return
        inner = nl + "  "
        sep, comma = "[" + inner, "," + inner
        for v in x:
            out.append(sep)
            _write(v, inner, out)
            sep = comma
        out.append(nl + "]")
    elif isinstance(x, dict):
        if not x:
            out.append("{}")
            return
        inner = nl + "  "
        sep, comma = "{" + inner, "," + inner
        for k, v in sorted(x.items()):
            if not isinstance(k, str):
                raise TypeError(f"report keys must be str, not {type(k).__name__}")
            out.append(f"{sep}{_escape(k)}: ")
            _write(v, inner, out)
            sep = comma
        out.append(nl + "}")
    else:
        out.append(json.dumps(x))


def _dims_grid(fiber_dims: dict[str, int]) -> list[str]:
    degs = [tuple(int(x) for x in k.split(",")) for k in fiber_dims]
    if not degs:
        return ["(empty target box)"]
    d = len(degs[0])
    lines = []
    tails = sorted({n[2:] for n in degs})
    xs = sorted({n[0] for n in degs})
    ys = sorted({n[1] for n in degs}, reverse=True)
    for tail in tails:
        if d > 2:
            lines.append(f"slice n[3:] = {list(tail)}")
        lines.append("  n2\\n1 " + " ".join(f"{x:3d}" for x in xs))
        for y in ys:
            row = []
            for x in xs:
                key = ",".join(str(v) for v in (x, y) + tail)
                row.append(f"{fiber_dims.get(key, 0):3d}")
            lines.append(f"  {y:5d} " + " ".join(row))
    return lines


def report_text(report: dict) -> str:
    job = report["job"]["job"]
    lines = [f"job: {job}", f"seed: {report['seed']}", f"outcome: {report['outcome']}"]
    details = report["details"]
    if job == "closure":
        lines.append(f"label: {details['label']}")
        lines.append(f"iterations: {details['iterations']}  saturated: {details['saturated']}")
        lines.append("fiber dimensions over the target box:")
        if "class_dims" in details:
            for cls in sorted(details["class_dims"]):
                lines.append(f" class ({cls}):")
                lines.extend("  " + s for s in _dims_grid(details["class_dims"][cls]))
        else:
            lines.extend(" " + s for s in _dims_grid(details["fiber_dims"]))
    elif job in ("verify-algebra", "verify-module"):
        for s in details["suites"]:
            name = s.get("name", "suite")
            if "algebra" in s:
                name = f"{name}[{s['algebra']}]"
            lines.append(f"suite {name}: checks={s['checks']} violations={s['violations']}")
        if "outer_bracket_sign" in details:
            sign = details["outer_bracket_sign"]
            lines.append(f"outer bracket sign: {'none' if sign is None else format(sign, '+d')}")
        if "trivial_split" in details:
            lines.append(f"trivial split: {details['trivial_split']}")
    elif job == "qtorus-info":
        lines.append(f"d={details['d']} N={details['N']}")
        lines.append(f"exps: {details['exps']}")
        lines.append(f"rad basis: {details['rad_basis']}")
        lines.append(f"block-normal l: {details['block_normal_l']}")
        if "classes" in details:
            lines.append(f"classes: {details['classes']}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="divalg",
        description="exact workbench for divergence-zero algebras on (quantum) tori",
    )
    parser.add_argument("--seed", type=int, default=0, help="seed for randomized suites")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in JOBS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the JSON job config")
        p.add_argument("--out", default=None, help="write the report here instead of stdout")
        p.add_argument("--format", choices=("json", "text"), default="json")
    args = parser.parse_args(argv)

    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            config = json.load(fh)
    except OSError as e:
        print(f"error: cannot read config: {e}", file=sys.stderr)
        return 2
    except ValueError as e:
        # a JSONDecodeError, an integer literal over the interpreter's digit
        # limit, or a byte that is not UTF-8
        print(f"error: config is not valid JSON: {e}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: config is nested too deeply to read", file=sys.stderr)
        return 2

    if not isinstance(config, dict):
        print("error: config must be a JSON object", file=sys.stderr)
        return 2
    config.setdefault("job", args.command)
    if config["job"] != args.command:
        print(f"error: config job {config['job']!r} does not match command "
              f"{args.command!r}", file=sys.stderr)
        return 2

    try:
        report, code = run(config, args.seed)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    text = report_text(report) if args.format == "text" else report_json(report)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as e:
            print(f"error: cannot write report: {e}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
