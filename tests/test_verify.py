"""The Lie and module suites, which check integer multiples of their
samples, against plain references written here that check the samples as
drawn: the same seed must give the same check and violation counts, with
the true brackets and with a bracket that has one term's sign flipped.  The
references draw with the rational samplers written here, which the integer
samplers must match draw for draw.  The q module suite's outer-bracket sign,
read from its own residuals, must equal the reference's, which recomputes
every residual under both signs."""

from fractions import Fraction
from random import Random

import pytest

import divalg.modules
import divalg.qder
import divalg.verify
import divalg.witt
from divalg.cli import run
from divalg.modules import ModuleParams, act, module_axiom_residual
from divalg.qder import OUTER_SIGN, QDerElem, act_q, module_axiom_residual_q
from divalg.qtorus import block_normal_q, in_rad
from divalg.reps import RepHandle
from divalg.scalars import Cyc
from divalg.verify import (
    _sign_probe,
    lie_suite_classical,
    lie_suite_q,
    module_suite_classical,
    module_suite_q,
    sample_algelem,
    sample_degree,
    sample_graded,
    sample_qder,
    sample_rad_degree,
)
from divalg.witt import AlgElem, add_term, in_L, in_Lhat, pairing
from test_qtorus import Q_ANTICOMMUTING
from test_witt import jacobi_residual

F = Fraction
TRUE_BRACKET_QDER = divalg.qder.bracket_qder
REFERENCE_MEMBER = {"W": lambda x: True, "Lhat": in_Lhat, "L": in_L}
REFERENCE_Q_MEMBER = {"Der": lambda q, x: True, "Lq": lambda q, x: in_L(x.outer),
                      "Lqhat": lambda q, x: in_Lhat(x.outer)}


def ref_sample_rat(rng):
    return F(rng.randint(-6, 6), rng.randint(1, 3))


def ref_sample_div_zero(rng, r):
    d = len(r)
    u = [F(0)] * d
    for i in range(d):
        for j in range(i + 1, d):
            c = ref_sample_rat(rng)
            if c:
                u[i] += c * r[j]
                u[j] -= c * r[i]
    return tuple(u)


def ref_sample_algelem(rng, d, algebra, radius=3):
    """The rational sampler that sample_algelem scales by 6."""
    terms = {}
    for _ in range(rng.randint(1, 2)):
        if algebra == "W":
            r = sample_degree(rng, d, radius)
            add_term(terms, r, tuple(ref_sample_rat(rng) for _ in range(d)))
            continue
        r = sample_degree(rng, d, radius, nonzero=True)
        add_term(terms, r, ref_sample_div_zero(rng, r))
    if algebra == "Lhat" and rng.random() < 0.5:
        add_term(terms, (0,) * d, tuple(ref_sample_rat(rng) for _ in range(d)))
    return AlgElem(d, terms)


def ref_sample_qder(rng, q, algebra, radius=2):
    """The rational sampler that sample_qder scales by 6."""
    d = q.d
    inner, outer = {}, {}
    for _ in range(rng.randint(1, 2)):
        if rng.random() < 0.5:
            m = sample_degree(rng, d, radius, nonzero=True)
            if in_rad(q, m):
                continue
            c = Cyc.zeta(q.N, rng.randrange(q.N)) * rng.randint(1, 3)
            inner[m] = inner[m] + c if m in inner else c
        else:
            r = sample_rad_degree(rng, q, radius, nonzero=(algebra != "Der"))
            if algebra == "Der":
                u = tuple(ref_sample_rat(rng) for _ in range(d))
            elif not any(r):
                continue
            else:
                u = ref_sample_div_zero(rng, r)
            add_term(outer, r, u)
    if algebra in ("Der", "Lqhat") and rng.random() < 0.4:
        add_term(outer, (0,) * d, tuple(ref_sample_rat(rng) for _ in range(d)))
    return QDerElem(d, inner, outer)


def naive_lie_classical(d, algebra, triples, rng, radius=3):
    bracket = divalg.witt.bracket_witt
    member = REFERENCE_MEMBER[algebra]
    violations = 0
    for _ in range(triples):
        x, y, z = (ref_sample_algelem(rng, d, algebra, radius) for _ in range(3))
        if not (member(x) and member(y) and member(z)):
            violations += 1
            continue
        violations += not (bracket(x, y) + bracket(y, x)).is_zero()
        violations += not jacobi_residual(x, y, z, bracket).is_zero()
        violations += not member(bracket(x, y))
    return 3 * triples, violations


def naive_lie_q(q, algebra, triples, rng, radius=2):
    bracket = divalg.qder.bracket_qder
    member = REFERENCE_Q_MEMBER[algebra]
    violations = 0
    for _ in range(triples):
        x, y, z = (ref_sample_qder(rng, q, algebra, radius) for _ in range(3))
        if not (member(q, x) and member(q, y) and member(q, z)):
            violations += 1
            continue
        violations += not (bracket(q, x, y) + bracket(q, y, x)).is_zero()
        jac = (bracket(q, x, bracket(q, y, z)) + bracket(q, y, bracket(q, z, x))
               + bracket(q, z, bracket(q, x, y)))
        violations += not jac.is_zero()
        violations += not member(q, bracket(q, x, y))
    return 3 * triples, violations


def naive_module_classical(params, algebra, pairs, rng, radius=2):
    violations = 0
    for _ in range(pairs):
        x = ref_sample_algelem(rng, params.d, algebra, radius)
        y = ref_sample_algelem(rng, params.d, algebra, radius)
        v = sample_graded(rng, params, radius)
        violations += not module_axiom_residual(params, x, y, v).is_zero()
    return pairs, violations


def reference_sign(q, samples):
    """The outer-bracket sign under which every (x, y, v) of ``samples`` has
    a zero module-axiom residual, each residual computed afresh under both
    signs; None when neither sign passes or both do."""
    passes = {sign: all(module_axiom_residual_q(q, x, y, v, sign).is_zero()
                        for x, y, v in samples)
              for sign in (1, -1)}
    return None if passes[1] == passes[-1] else 1 if passes[1] else -1


def naive_module_q(q, params, algebra, pairs, rng, radius=2):
    """(checks, pair violations, sign): the sign is :func:`reference_sign`
    on the sign probe and every sample with a nonzero vector."""
    violations = 0
    samples = [_sign_probe(q, params)]
    for _ in range(pairs):
        x = ref_sample_qder(rng, q, algebra, radius)
        y = ref_sample_qder(rng, q, algebra, radius)
        v = sample_graded(rng, params, radius)
        violations += not module_axiom_residual_q(q, x, y, v).is_zero()
        if not v.is_zero():
            samples.append((x, y, v))
    return pairs, violations, reference_sign(q, samples)


def flipped_bracket_witt(x, y):
    """[D(u,r), D(v,s)] with the sign of its (v|r) u term flipped: still
    bilinear, no longer antisymmetric."""
    out = AlgElem.zero(x.d)
    for r, u in x.terms.items():
        for s, v in y.terms.items():
            a, b = pairing(u, s), pairing(v, r)
            out = out + AlgElem.term(tuple(a * vi + b * ui for ui, vi in zip(u, v)),
                                     tuple(ri + si for ri, si in zip(r, s)))
    return out


def flipped_bracket_qder(q, x, y, outer_sign=divalg.qder.OUTER_SIGN):
    """bracket_qder with the sign of its outer-inner case flipped (the
    inner-outer case kept): still bilinear, no longer antisymmetric."""
    xo, yi = QDerElem(x.d, outer=x.outer), QDerElem(y.d, inner=y.inner)
    return (TRUE_BRACKET_QDER(q, x, y, outer_sign)
            - TRUE_BRACKET_QDER(q, xo, yi, outer_sign).scale(2))


def outer_sign_flipped_bracket_qder(q, x, y, outer_sign=OUTER_SIGN):
    """bracket_qder under the other outer-outer sign: the module action is a
    representation for it exactly under outer_sign = -1."""
    return TRUE_BRACKET_QDER(q, x, y, -outer_sign)


@pytest.fixture(params=["true", "flipped"])
def brackets(request, monkeypatch):
    """The true brackets, or the flipped ones patched in wherever the suites
    and residuals look them up."""
    if request.param == "flipped":
        for mod in (divalg.witt, divalg.verify):
            monkeypatch.setattr(mod, "bracket_witt", flipped_bracket_witt)
        for mod in (divalg.qder, divalg.verify):
            monkeypatch.setattr(mod, "bracket_qder", flipped_bracket_qder)
    return request.param


def suite_counts(out):
    return out["checks"], out["violations"]


@pytest.mark.parametrize("d, algebra", [(2, "W"), (3, "Lhat"), (3, "L")])
def test_lie_suite_classical_matches_naive(brackets, d, algebra):
    got = suite_counts(lie_suite_classical(d, algebra, 60, Random(11)))
    want = naive_lie_classical(d, algebra, 60, Random(11))
    assert got == want
    assert (want[1] > 0) == (brackets == "flipped")


@pytest.mark.parametrize("l, algebra", [((2, 2), "Der"), ((3, 3), "Lqhat"), ((2, 2, 1), "Lq")])
def test_lie_suite_q_matches_naive(brackets, l, algebra):
    q = block_normal_q(l)
    got = suite_counts(lie_suite_q(q, algebra, 40, Random(12)))
    want = naive_lie_q(q, algebra, 40, Random(12))
    assert got == want
    assert (want[1] > 0) == (brackets == "flipped")


@pytest.mark.parametrize("rep, algebra", [(RepHandle.natural(2), "W"),
                                          (RepHandle.symmetric(2, 2), "Lhat"),
                                          (RepHandle.natural(2), "L")])
def test_module_suite_classical_matches_naive(brackets, rep, algebra):
    params = ModuleParams(2, (F(1, 2), F(-2, 3)), rep)
    got = suite_counts(module_suite_classical(params, algebra, 40, Random(13)))
    want = naive_module_classical(params, algebra, 40, Random(13))
    assert got == want
    assert (want[1] > 0) == (brackets == "flipped")


@pytest.mark.parametrize("algebra", ["Der", "Lq", "Lqhat"])
def test_module_suite_q_matches_naive(brackets, algebra):
    q, params = block_normal_q((2, 2)), ModuleParams(2, (F(1, 5), F(2, 7)), RepHandle.natural(2))
    got = module_suite_q(q, params, algebra, 30, Random(14))
    checks, violations, sign = naive_module_q(q, params, algebra, 30, Random(14))
    # a sign the reference cannot decide counts one more violation
    assert suite_counts(got) == (checks, violations + (sign is None))
    assert got["outer_bracket_sign"] == sign == (1 if brackets == "true" else None)
    assert (violations > 0) == (brackets == "flipped")


SIGN_CASES = [
    (block_normal_q((2, 2)), RepHandle.natural(2), "Lq"),
    (block_normal_q((3, 3)), RepHandle.natural(2), "Lqhat"),
    (block_normal_q((2, 2, 1)), RepHandle.exterior(3, 2), "Lq"),
    (Q_ANTICOMMUTING, RepHandle.natural(3), "Der"),
]
SIGN_PROGRAMS = {
    "true": (TRUE_BRACKET_QDER, 1),
    "outer-sign-flipped": (outer_sign_flipped_bracket_qder, -1),
    "outer-inner-flipped": (flipped_bracket_qder, None),
    # the probe passes under -1 here, so the kept samples rerun under -1 and fail
    "both-flipped": (lambda q, x, y, outer_sign=OUTER_SIGN:
                     flipped_bracket_qder(q, x, y, -outer_sign), None),
}


@pytest.mark.parametrize("program", list(SIGN_PROGRAMS))
@pytest.mark.parametrize("q, rep, algebra", SIGN_CASES, ids=["22", "33", "221", "anticommuting"])
def test_module_suite_q_sign_matches_the_reference(monkeypatch, program, q, rep, algebra):
    """The sign read from the suite's own residuals equals the reference's,
    which reruns the probe and the kept samples under both signs; a sign
    that neither passes is None and one more violation."""
    bracket, want_sign = SIGN_PROGRAMS[program]
    monkeypatch.setattr(divalg.qder, "bracket_qder", bracket)
    params = ModuleParams(q.d, (F(1, 5), F(-2, 7), F(1, 2))[:q.d], rep)
    got = module_suite_q(q, params, algebra, 40, Random(f"sign-{program}"))
    checks, violations, sign = naive_module_q(q, params, algebra, 40, Random(f"sign-{program}"))
    assert got["outer_bracket_sign"] == sign == want_sign
    assert got["checks"] == checks
    assert got["violations"] == violations + (want_sign is None)
    assert (violations == 0) == (program == "true")


def test_module_suite_q_sign_reads_every_sample(monkeypatch):
    """A bracket whose failing samples all come after the 24th nonzero one
    gets no sign: with the outer-inner sign flipped, the Lq module at
    l = (2, 2), alpha = (1/2, 1/3), natural rep, 40 pairs, seed 0 has four
    failing pairs and no sign, one more violation, and the job exits 1."""
    monkeypatch.setattr(divalg.qder, "bracket_qder", flipped_bracket_qder)
    q, params = block_normal_q((2, 2)), ModuleParams(2, (F(1, 2), F(1, 3)), RepHandle.natural(2))
    got = module_suite_q(q, params, "Lq", 40, Random(0))
    checks, violations, sign = naive_module_q(q, params, "Lq", 40, Random(0))
    assert (got["outer_bracket_sign"], got["violations"]) == (sign, violations + 1) == (None, 5)
    report, code = run({"job": "verify-module", "algebra": "Lq", "d": 2,
                        "alpha": ["1/2", "1/3"], "rep": {"kind": "natural"},
                        "q": {"l": [2, 2]}, "pairs": 40}, 0)
    assert code == 1
    assert report["details"]["outer_bracket_sign"] is None
    assert report["details"]["suites"][0]["violations"] == 5


def test_sample_degree_at_radius_0_raises_before_drawing():
    rng = Random(19)
    state = rng.getstate()
    with pytest.raises(ValueError, match="no nonzero degree"):
        sample_degree(rng, 3, 0, nonzero=True)
    assert rng.getstate() == state
    assert sample_degree(rng, 3, 0) == (0, 0, 0)


def test_suites_at_radius_0_raise_outside_w():
    """Every suite that needs a nonzero degree raises at radius 0 instead of
    redrawing forever; W samples degree 0 and still runs."""
    q = block_normal_q((2, 2))
    params = ModuleParams(2, (F(1, 5), F(2, 7)), RepHandle.natural(2))
    calls = [
        lambda rng: lie_suite_classical(2, "L", 5, rng, radius=0),
        lambda rng: lie_suite_q(q, "Lq", 5, rng, radius=0),
        lambda rng: module_suite_classical(params, "L", 5, rng, radius=0),
        lambda rng: module_suite_q(q, params, "Lq", 5, rng, radius=0),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="no nonzero degree"):
            call(Random(20))
    assert lie_suite_classical(2, "W", 5, Random(20), radius=0)["violations"] == 0
    assert module_suite_classical(params, "W", 5, Random(20), radius=0)["violations"] == 0


def int_coords(x: AlgElem) -> bool:
    return all(type(c) is int for u in x.terms.values() for c in u)


@pytest.mark.parametrize("algebra", ["W", "Lhat", "L"])
def test_sample_algelem_is_six_times_the_rational_sample(algebra):
    rng, ref = Random(15), Random(15)
    for _ in range(200):
        x = sample_algelem(rng, 3, algebra)
        assert x == ref_sample_algelem(ref, 3, algebra).scale(6)
        assert int_coords(x)
        assert rng.getstate() == ref.getstate()


@pytest.mark.parametrize("algebra", ["Der", "Lq", "Lqhat"])
def test_sample_qder_is_six_times_the_rational_sample(algebra):
    q = block_normal_q((2, 2, 1))
    rng, ref = Random(16), Random(16)
    for _ in range(200):
        x = sample_qder(rng, q, algebra)
        assert x == ref_sample_qder(ref, q, algebra).scale(6)
        # at N = 2 every root is the int 1 or -1, so the inner coefficients are ints
        assert int_coords(x.outer) and all(type(c) is int for c in x.inner.values())
        assert rng.getstate() == ref.getstate()


# ---------------------------------------------------------------------------
# residuals from reused operators against the plain action, and the counts
# ---------------------------------------------------------------------------


def plain_residual(params, x, y, v):
    """The module-axiom residual assembled from plain act calls."""
    xy = divalg.witt.bracket_witt(x, y)
    return (act(params, xy, v) - act(params, x, act(params, y, v))
            + act(params, y, act(params, x, v)))


def plain_residual_q(q, x, y, v):
    """The q residual assembled from plain act_q calls."""
    xy = divalg.qder.bracket_qder(q, x, y)
    return act_q(q, xy, v) - act_q(q, x, act_q(q, y, v)) + act_q(q, y, act_q(q, x, v))


CLASSICAL_CASES = [
    (2, RepHandle.natural(2), "W"),
    (2, RepHandle.twisted(RepHandle.natural(2), (3, 3)), "L"),
    (3, RepHandle.natural(3), "Lhat"),
    (3, RepHandle.exterior(3, 2), "L"),
    (3, RepHandle.twisted(RepHandle.exterior(3, 2), (2, 2, 1)), "W"),
]


@pytest.mark.parametrize("d, rep, algebra", CLASSICAL_CASES,
                         ids=lambda c: getattr(c, "kind", str(c)))
def test_residual_from_operators_matches_plain_act(brackets, d, rep, algebra):
    """With the true bracket both residuals vanish; with the flipped one
    they must agree term for term while not vanishing."""
    params = ModuleParams(d, (F(1, 2), F(-2, 3), F(0))[:d], rep)
    rng = Random(f"reuse-{d}-{rep.kind}-{algebra}")
    nonzero = 0
    for _ in range(30):
        x, y = (ref_sample_algelem(rng, d, algebra, 2) for _ in range(2))
        v = sample_graded(rng, params)
        got = module_axiom_residual(params, x, y, v)
        assert got.fibers == plain_residual(params, x, y, v).fibers
        nonzero += not got.is_zero()
    assert (nonzero > 0) == (brackets == "flipped")


Q_CASES = [
    ((2, 2), RepHandle.natural(2), "Der"),
    ((3, 3), RepHandle.natural(2), "Lqhat"),
    ((3, 3), RepHandle.twisted(RepHandle.natural(2), (3, 3)), "Lq"),
    ((2, 2, 1), RepHandle.exterior(3, 2), "Lq"),
    ((2, 2, 1), RepHandle.twisted(RepHandle.exterior(3, 2), (2, 2, 1)), "Lqhat"),
]


@pytest.mark.parametrize("l, rep, algebra", Q_CASES, ids=lambda c: getattr(c, "kind", str(c)))
def test_residual_q_from_operators_matches_plain_act_q(brackets, l, rep, algebra):
    q = block_normal_q(l)
    params = ModuleParams(len(l), (F(1, 5), F(-2, 7), F(1, 2))[:len(l)], rep)
    rng = Random(f"reuse-q-{l}-{rep.kind}-{algebra}")
    nonzero = 0
    for _ in range(30):
        x, y = (ref_sample_qder(rng, q, algebra) for _ in range(2))
        v = sample_graded(rng, params)
        got = module_axiom_residual_q(q, x, y, v)
        assert got.fibers == plain_residual_q(q, x, y, v).fibers
        nonzero += not got.is_zero()
    assert (nonzero > 0) == (brackets == "flipped")


def counting(monkeypatch, module, name):
    """Patch ``module.name`` with a wrapper that counts its calls."""
    calls = []
    true = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: calls.append(1) or true(*args))
    return calls


@pytest.mark.parametrize("l, rep, algebra", Q_CASES[2:], ids=lambda c: getattr(c, "kind", str(c)))
def test_residual_q_builds_one_term_map_per_outer_term(monkeypatch, l, rep, algebra):
    q = block_normal_q(l)
    params = ModuleParams(len(l), (F(1, 5), F(-2, 7), F(1, 2))[:len(l)], rep)
    rng = Random(f"count-q-{l}-{algebra}")
    built = counting(monkeypatch, divalg.modules, "term_map")
    for _ in range(20):
        x, y = (sample_qder(rng, q, algebra).scale(70) for _ in range(2))
        v = sample_graded(rng, params)
        xy = divalg.qder.bracket_qder(q, x, y)
        del built[:]
        assert module_axiom_residual_q(q, x, y, v).is_zero()
        assert len(built) == len(x.outer.terms) + len(y.outer.terms) + len(xy.outer.terms)


@pytest.mark.parametrize("d, algebra", [(2, "W"), (3, "Lhat"), (3, "L")])
def test_lie_triple_makes_seven_brackets(monkeypatch, d, algebra):
    calls = counting(monkeypatch, divalg.verify, "bracket_witt")
    out = lie_suite_classical(d, algebra, 25, Random(17))
    assert out["violations"] == 0 and len(calls) == 7 * 25


@pytest.mark.parametrize("l, algebra", [((2, 2), "Der"), ((3, 3), "Lqhat"), ((2, 2, 1), "Lq")])
def test_lie_triple_q_makes_seven_brackets(monkeypatch, l, algebra):
    calls = counting(monkeypatch, divalg.verify, "bracket_qder")
    out = lie_suite_q(block_normal_q(l), algebra, 25, Random(18))
    assert out["violations"] == 0 and len(calls) == 7 * 25
