"""The Lie and module suites, which check integral multiples of their
samples, against plain references written here that check the samples as
drawn: the same seed must give the same check and violation counts, with
the true brackets and with a bracket that has one term's sign flipped."""

from fractions import Fraction
from random import Random

import pytest

import divalg.qder
import divalg.verify
import divalg.witt
from divalg.modules import ModuleParams, module_axiom_residual
from divalg.qder import QDerElem, in_Lq, in_Lqhat, module_axiom_residual_q
from divalg.qtorus import block_normal_q
from divalg.reps import RepHandle
from divalg.verify import (
    integral_sample,
    lie_suite_classical,
    lie_suite_q,
    module_suite_classical,
    module_suite_q,
    sample_algelem,
    sample_graded,
    sample_qder,
)
from divalg.witt import AlgElem, in_L, in_Lhat, jacobi_residual, pairing

F = Fraction
TRUE_BRACKET_QDER = divalg.qder.bracket_qder
CLASSICAL_MEMBER = {"W": lambda x: True, "Lhat": in_Lhat, "L": in_L}
Q_MEMBER = {"Der": lambda q, x: True, "Lq": in_Lq, "Lqhat": in_Lqhat}


def naive_lie_classical(d, algebra, triples, rng, radius=3):
    bracket = divalg.witt.bracket_witt
    member = CLASSICAL_MEMBER[algebra]
    violations = 0
    for _ in range(triples):
        x, y, z = (sample_algelem(rng, d, algebra, radius) for _ in range(3))
        if not (member(x) and member(y) and member(z)):
            violations += 1
            continue
        violations += not (bracket(x, y) + bracket(y, x)).is_zero()
        violations += not jacobi_residual(x, y, z).is_zero()
        violations += not member(bracket(x, y))
    return 3 * triples, violations


def naive_lie_q(q, algebra, triples, rng, radius=2):
    bracket = divalg.qder.bracket_qder
    member = Q_MEMBER[algebra]
    violations = 0
    for _ in range(triples):
        x, y, z = (sample_qder(rng, q, algebra, radius) for _ in range(3))
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
        x = sample_algelem(rng, params.d, algebra, radius)
        y = sample_algelem(rng, params.d, algebra, radius)
        v = sample_graded(rng, params, radius)
        violations += not module_axiom_residual(params, x, y, v).is_zero()
    return pairs, violations


def naive_module_q(q, params, algebra, pairs, rng, radius=2):
    violations = 0
    for _ in range(pairs):
        x = sample_qder(rng, q, algebra, radius)
        y = sample_qder(rng, q, algebra, radius)
        v = sample_graded(rng, params, radius)
        violations += not module_axiom_residual_q(q, x, y, v).is_zero()
    return pairs, violations


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


@pytest.fixture(params=["true", "flipped"])
def brackets(request, monkeypatch):
    """The true brackets, or the flipped ones patched in wherever the suites
    and residuals look them up.  The outer-bracket sign oracle rejects a
    broken bracket by raising, so it is stubbed out with them."""
    if request.param == "flipped":
        monkeypatch.setattr(divalg.verify, "outer_bracket_sign_oracle", lambda *args: 1)
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
    got = suite_counts(module_suite_q(q, params, algebra, 30, Random(14)))
    want = naive_module_q(q, params, algebra, 30, Random(14))
    assert got == want
    assert (want[1] > 0) == (brackets == "flipped")


def test_integral_sample_is_a_positive_integer_multiple():
    rng = Random(15)
    q = block_normal_q((2, 2))
    for _ in range(50):
        x = sample_algelem(rng, 3, "Lhat")
        ix = integral_sample(x)
        assert all(type(c) is int for u in ix.terms.values() for c in u)
        if not x.is_zero():
            r, u = next(iter(x.terms.items()))
            k = next(F(a) / b for a, b in zip(ix.terms[r], u) if b)
            assert k > 0 and k.denominator == 1 and ix == x.scale(k)
        y = sample_qder(rng, q, "Der")
        iy = integral_sample(y)
        assert all(type(c) is int for u in iy.outer.terms.values() for c in u)
        assert all(c.den == 1 for c in iy.inner.values())
