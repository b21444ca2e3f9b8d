"""Job lists of the three benchmark workloads and the oracle for each job.

A workload is a fixed list of job shapes.  The benchmark seed picks only the
values inside each shape's family: the twists alpha, the seed vectors and the
RNG seeds of the randomized suites.  Job names, configs' structure and the
expected labels never depend on the seed, so two seeds run the same shapes.

The oracle is written from the mathematics, not from the program: expected
labels and fiber dimensions follow the closed forms C(d-1, k-1), C(d, k),
rep.dim off the radical and 0 on it, the radical of a block-normal q is
diag(l), and the check counts follow from the number of samples each suite
is asked for.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, product
from math import comb
from random import Random

WORKLOADS = ("closure-d3", "closure-q", "verify-suites")


@dataclass
class Job:
    """One CLI job: the config passed to ``divalg.cli.run`` and its oracle."""

    name: str
    config: dict
    rng_seed: int = 0
    # report details that must equal these values
    expect: dict = field(default_factory=dict)
    # verify jobs: (suite name, check count or (lo, hi) range), in report order
    suites: list = field(default_factory=list)


def _fmt(x) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _nonzero(rng: Random, lo: int, hi: int) -> int:
    return rng.choice([v for v in range(lo, hi + 1) if v])


def _twist(rng: Random, dens) -> tuple:
    """The twist (+-1/dens[0], +-1/dens[1], ...) with random signs; a
    denominator of 1 gives the entry 0.  Only signs vary, so every seed does
    the same arithmetic up to a reflection of coordinates and the spread
    between seeds measures the machine rather than the data."""
    return tuple(Fraction(rng.choice((-1, 1)), q) if q > 1 else Fraction(0) for q in dens)


def _box(d: int, r: int):
    return product(range(-r, r + 1), repeat=d)


def _key(n) -> str:
    return ",".join(str(x) for x in n)


def _wedge(d: int, k: int, alpha, n, y_coeffs) -> list:
    """sum_s c_s e_s ^ (alpha + n) over (k-1)-subsets s, in the basis of
    k-subsets of {1..d} in lexicographic order."""
    w = [a + b for a, b in zip(alpha, n)]
    labels = list(combinations(range(1, d + 1), k))
    out = [Fraction(0)] * len(labels)
    for c, s in zip(y_coeffs, combinations(range(1, d + 1), k - 1)):
        for j in range(1, d + 1):
            if j in s or not w[j - 1]:
                continue
            sign = -1 if sum(1 for x in s if x > j) % 2 else 1
            out[labels.index(tuple(sorted(s + (j,))))] += c * sign * w[j - 1]
    return out


def _in_wedge_fiber(d: int, k: int, alpha, v) -> bool:
    """v lies in the degree-0 wedge fiber iff v ^ alpha = 0 (k = 1: v is
    parallel to alpha; d = 3, k = 2: the single 3-form coordinate)."""
    if k == 1:
        return all(v[i] * alpha[j] == v[j] * alpha[i] for i in range(d) for j in range(d))
    if (d, k) == (3, 2):
        return v[0] * alpha[2] - v[1] * alpha[1] + v[2] * alpha[0] == 0
    raise ValueError("no wedge test for this (d, k)")


def _closure(name, algebra, d, alpha, rep, n, coords, label, dims, *, q=None,
             gen_radius=2, working=3, target=1) -> Job:
    config = {
        "schema_version": "1",
        "job": "closure",
        "algebra": algebra,
        "d": d,
        "alpha": [_fmt(a) for a in alpha],
        "rep": rep,
        "seeds": [{"n": list(n), "coords": [_fmt(c) for c in coords]}],
        "gen_radius": gen_radius,
        "working_box": working,
        "target_box": target,
        "max_iters": 60,
        "expect_label": label,
    }
    if q is not None:
        config["q"] = q
    # boxes are centred on -alpha for an integral twist (criteria 4 and 6)
    center = (0,) * d
    if all(Fraction(a).denominator == 1 for a in alpha):
        center = tuple(-int(a) for a in alpha)
        config["working_box"] = {"lo": [c - working for c in center],
                                 "hi": [c + working for c in center]}
        config["target_box"] = {"lo": [c - target for c in center],
                                "hi": [c + target for c in center]}
    degs = [tuple(c + x for c, x in zip(center, off)) for off in _box(d, target)]
    return Job(name, config, expect={"saturated": True, "label": label,
                                     "fiber_dims": {_key(m): dims(m) for m in degs}})


# ---------------------------------------------------------------------------
# d = 3 closures: acceptance criterion 3
# ---------------------------------------------------------------------------


def _closure_d3(rng: Random) -> list[Job]:
    jobs = []
    for k in (1, 2):
        d = 3
        rep = {"kind": "natural"} if k == 1 else {"kind": "exterior", "k": k}
        alpha = _twist(rng, (3, 5, 1))
        zero = (0,) * d
        # the wedge seed is c alpha (k = 1) or c e_3 ^ alpha (k = 2); the
        # outside seed +-e_3 (k = 1) or +-e_2 ^ e_3 (k = 2), as in criterion
        # 3, is off the wedge fiber because alpha_3 = 0 and alpha_1, alpha_2
        # are not
        ys = [0] * (comb(d, k - 1) - 1) + [_nonzero(rng, -3, 3)]
        w_seed = _wedge(d, k, alpha, zero, ys)
        out_seed = [0] * (comb(d, k) - 1) + [rng.choice((-1, 1))]
        if _in_wedge_fiber(d, k, alpha, out_seed):
            raise AssertionError("outside seed lies in the wedge fiber")
        jobs.append(_closure(f"d3-k{k}-W", "L", d, alpha, rep, zero, w_seed, "W",
                             lambda m, k=k: comb(d - 1, k - 1)))
        jobs.append(_closure(f"d3-k{k}-Full", "L", d, alpha, rep, zero, out_seed, "Full",
                             lambda m, k=k: comb(d, k)))
    return jobs


# ---------------------------------------------------------------------------
# q-closures: acceptance criterion 8
# ---------------------------------------------------------------------------


def _closure_q(rng: Random) -> list[Job]:
    # (algebra, l, gen_radius, working box).  At l = (3, 3) the generator
    # box needs radius 3: with radius 2 it holds no nonzero radical degree,
    # so no outer generator exists and the label is Other by construction.
    shapes = [
        ("Lq", (2, 2), 2, 3),
        ("Lqhat", (2, 2), 2, 3),
        ("Lq", (3, 3), 3, 4),
        ("Lq", (2, 2, 1), 2, 2),
    ]
    jobs = []
    for algebra, l, gen_radius, working in shapes:
        d = len(l)
        # denominators prime to every l_i keep alpha non-integral in every
        # block coordinate
        alpha = _twist(rng, (5, 7, 1)[:d])
        dim = d
        rep = {"kind": "natural"}
        q = {"l": list(l)}
        on_rad = lambda m, l=l: all(x % li == 0 for x, li in zip(m, l))
        shape = "x".join(map(str, l))
        cls = (1,) + (0,) * (d - 1)
        v = [rng.choice((-1, 1))] + [0] * (dim - 1)
        jobs.append(_closure(f"q-{algebra}-{shape}-GqFull", algebra, d, alpha, rep, cls, v,
                             "GqFull", lambda m, f=on_rad: 0 if f(m) else dim,
                             q=q, gen_radius=gen_radius, working=working))
        if l == (2, 2):
            # class 0: confined to the radical, where the outer generators
            # act as the classical L; a seed off the wedge line fills it
            zero = (0,) * d
            v0 = [0, rng.choice((-1, 1))]
            if _in_wedge_fiber(d, 1, alpha, v0):
                raise AssertionError("class-0 seed lies on the wedge line")
            jobs.append(_closure(f"q-{algebra}-{shape}-Class0", algebra, d, alpha, rep, zero,
                                 v0, "Class0", lambda m, f=on_rad: dim if f(m) else 0,
                                 q=q, gen_radius=gen_radius, working=working))
    return jobs


# ---------------------------------------------------------------------------
# verify-suites: the randomized exact suites, no closure engine
# ---------------------------------------------------------------------------

TRIPLES = 300
PAIRS = 300


def _verify_suites(rng: Random) -> list[Job]:
    def alpha_str(dens):
        return [_fmt(a) for a in _twist(rng, dens)]

    # check counts as each suite defines them from its sample count; the
    # pair-element span suite checks every nonzero degree of the radius-2
    # box, and wedge invariance checks every generator D(e_j, r), r in the
    # radius-2 box, on every wedge basis row of the radius-2 box
    def classical_algebra(d):
        return [("lie-axioms", 3 * TRIPLES), ("pair-element-span", 5 ** d - 1),
                ("orthogonal-transplant", max(20, TRIPLES // 10))]

    lie_q = [("lie-axioms", 3 * TRIPLES)]
    jobs = [
        Job("algebra-L-d3", {"job": "verify-algebra", "algebra": "L", "d": 3,
                             "triples": TRIPLES}, suites=classical_algebra(3)),
        Job("algebra-Lhat-d4", {"job": "verify-algebra", "algebra": "Lhat", "d": 4,
                                "triples": TRIPLES}, suites=classical_algebra(4)),
        Job("algebra-Lq-221", {"job": "verify-algebra", "algebra": "Lq",
                               "q": {"l": [2, 2, 1]}, "triples": TRIPLES}, suites=lie_q),
        Job("algebra-Lqhat-33", {"job": "verify-algebra", "algebra": "Lqhat",
                                 "q": {"l": [3, 3]}, "triples": TRIPLES}, suites=lie_q),
        # the natural rep is k = 1: C(2, 0) = 1 wedge row per degree
        Job("module-L-d3-natural", {"job": "verify-module", "algebra": "L", "d": 3,
                                    "alpha": alpha_str((3, 5, 1)), "rep": {"kind": "natural"},
                                    "pairs": PAIRS},
            suites=[("module-axioms", PAIRS),
                    ("basis-action-crosscheck", max(20, PAIRS // 4)),
                    ("wedge-invariance", 5 ** 3 * comb(2, 0) * 5 ** 3 * 3)]),
    ]
    equiv = max(20, PAIRS // 2)
    for algebra, l, rep in (("Lq", (2, 2), {"kind": "natural"}),
                            ("Lqhat", (3, 3), {"kind": "natural"}),
                            ("Lq", (2, 2, 1), {"kind": "exterior", "k": 2})):
        shape = "".join(map(str, l))
        jobs.append(Job(
            f"module-{algebra}-{shape}-{rep['kind']}",
            {"job": "verify-module", "algebra": algebra, "d": len(l),
             "alpha": alpha_str((5, 7, 1)[:len(l)]), "rep": rep, "q": {"l": list(l)},
             "pairs": PAIRS},
            # iso-equivariance skips samples whose element or vector is 0,
            # so its count is a range (criterion 8 asks for 3/4 kept)
            suites=[("module-axioms", PAIRS), ("torus-identities", 4 * PAIRS),
                    ("iso-equivariance", (equiv * 3 // 4, equiv))]))
    # q_12 = zeta_3^-1 is block-normal with l = (3, 3): radical 3Z x 3Z
    jobs.append(Job("qtorus-info", {"job": "qtorus-info",
                                    "q": {"N": 3, "exps": [[0, -1], [1, 0]]}},
                    expect={"rad_basis": [[3, 0], [0, 3]], "block_normal_l": [3, 3]}))
    return jobs


JOB_LISTS = {"closure-d3": _closure_d3, "closure-q": _closure_q, "verify-suites": _verify_suites}


def make_jobs(workload: str, seed: int) -> list[Job]:
    """The workload's job list for this seed; the same seed gives the same list."""
    rng = Random(f"{workload}:{seed}")
    jobs = JOB_LISTS[workload](rng)
    for job in jobs:
        job.rng_seed = rng.randrange(2**31)
    return jobs


def check(job: Job, report: dict, code: int) -> str | None:
    """None when the job's report meets its oracle, else the reason it fails."""
    details = report.get("details", {})
    if code != 0 or report.get("outcome") != "pass":
        return f"exit {code}, outcome {report.get('outcome')}"
    for key, want in job.expect.items():
        if details.get(key) != want:
            return f"{key}: {details.get(key)} != {want}"
    names = [s.get("name") for s in details.get("suites", [])]
    if names != [name for name, _ in job.suites]:
        return f"suites {names} != {[name for name, _ in job.suites]}"
    for suite, (name, count) in zip(details.get("suites", []), job.suites):
        checks = suite.get("checks")
        if suite.get("violations") != 0:
            return f"suite {name}: {suite.get('violations')} violations"
        if checks != count and not (isinstance(count, tuple) and count[0] <= checks <= count[1]):
            return f"suite {name}: {checks} checks, expected {count}"
    return None
