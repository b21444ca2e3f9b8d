"""q-derivation brackets, the tensor module, congruence classes, the
block-normal isomorphisms, and the q-closure: its generators, the radical
bound and the off-radical route against the engine."""

import json
from dataclasses import replace
from fractions import Fraction
from random import Random

import pytest

from divalg.closure import Box, pair_basis
from divalg.modules import GradedVec, ModuleParams, act, graded
from divalg.qder import (
    Q_ALGEBRAS,
    QDerElem,
    _DegreeSets,
    _inner_generator,
    act_q,
    ad_annihilation_check,
    bracket_qder,
    class_of,
    classify_q,
    closure_q,
    congruence_classes,
    equivariance_residual,
    in_q_algebra,
    iso_algebra,
    iso_module,
    iso_params,
    module_axiom_residual_q,
    off_radical_closure,
    qder_generators,
    radical_bound,
)
import divalg.cli
import divalg.qder
from divalg.cli import run
from divalg.linalg import basis_of, same_span, span_contains
from divalg.qtorus import (QMatrix, ad_form, block_normal_q, commutator_coeff, f_exponent, in_rad,
                           sigma, sigma_exponent)
from divalg.reps import RepHandle
from divalg.scalars import Cyc
from divalg.verify import (
    _sign_probe,
    equivariance_suite,
    lie_suite_q,
    module_suite_q,
    sample_algelem,
    sample_graded,
    sample_qder,
)
from divalg.witt import AlgElem, bracket_witt, pairing
from test_qtorus import Q_ANTICOMMUTING, Q_MIXED, Q_ZERO_COLUMN

F = Fraction
Q22 = block_normal_q((2, 2))
ALPHA = (F(1, 2), F(1, 3))
NAT2 = RepHandle.natural(2)
P22 = ModuleParams(2, ALPHA, NAT2)


def rational_algelem(rng, d, algebra):
    """The rational sample that sample_algelem scales by 6, on Fraction coordinates."""
    return sample_algelem(rng, d, algebra).scale(F(1, 6))


def rational_qder(rng, q, algebra):
    """The rational sample that sample_qder scales by 6, on Fraction coordinates."""
    return sample_qder(rng, q, algebra).scale(F(1, 6))


def test_inner_inner_bracket():
    x = QDerElem.ad((1, 0))
    y = QDerElem.ad((0, 1))
    out = bracket_qder(Q22, x, y)
    # [ad t^m, ad t^n] = (sigma(m,n) - sigma(n,m)) ad t^{m+n}; here
    # sigma((1,0),(0,1)) = 1 and sigma((0,1),(1,0)) = zeta_2 = -1, so 2
    assert out.outer.is_zero()
    from divalg.qtorus import sigma

    expect = sigma(Q22, (1, 0), (0, 1)) - sigma(Q22, (0, 1), (1, 0))
    assert expect == 2
    assert out.inner == {(1, 1): expect}


def test_bracket_self_vanishes():
    x = QDerElem.ad((1, 0), Cyc.zeta(2, 1)) + QDerElem.douter((1, -1), (2, 2))
    assert bracket_qder(Q22, x, x).is_zero()


def test_mixed_bracket_formula():
    # [D(u, r), ad t^s] = (u|s) sigma(r, s) ad t^{r+s}
    u, r, s = (1, -1), (2, 2), (1, 0)
    out = bracket_qder(Q22, QDerElem.douter(u, r), QDerElem.ad(s))
    assert out.inner == {(3, 2): 1}  # (u|s) = 1, sigma = 1
    back = bracket_qder(Q22, QDerElem.ad(s), QDerElem.douter(u, r))
    assert back.inner == {(3, 2): -1}


def test_bracket_key_constraints():
    with pytest.raises(ValueError):
        bracket_qder(Q22, QDerElem.ad((2, 0)), QDerElem.ad((1, 0)))  # (2,0) in rad
    with pytest.raises(ValueError):
        bracket_qder(Q22, QDerElem.douter((1, 0), (1, 0)), QDerElem.ad((0, 1)))


def test_bracket_jacobi_random():
    rng = Random(13)
    for l in ((2, 2), (3, 3), (2, 2, 1)):
        q = block_normal_q(l)
        for _ in range(40):
            x = rational_qder(rng, q, "Lqhat")
            y = rational_qder(rng, q, "Lqhat")
            z = rational_qder(rng, q, "Der")
            jac = (
                bracket_qder(q, x, bracket_qder(q, y, z))
                + bracket_qder(q, y, bracket_qder(q, z, x))
                + bracket_qder(q, z, bracket_qder(q, x, y))
            )
            assert jac.is_zero()


def _plus(m, n):
    return tuple(a + b for a, b in zip(m, n))


def fold_bracket_witt(x, y):
    """bracket_witt summed one term pair at a time with AlgElem addition."""
    out = AlgElem.zero(x.d)
    for r, u in x.terms.items():
        for s, v in y.terms.items():
            a, b = pairing(u, s), pairing(v, r)
            out = out + AlgElem.term(tuple(a * vi - b * ui for ui, vi in zip(u, v)),
                                     _plus(r, s))
    return out


def fold_bracket_qder(q, x, y):
    """The three bracket cases of bracket_qder summed one term pair at a time
    with QDerElem addition."""
    out = QDerElem.zero(q.d)
    for m, cm in x.inner.items():
        for n, cn in y.inner.items():
            c = (sigma(q, m, n) - sigma(q, n, m)) * cm * cn
            out = out + QDerElem.ad(_plus(m, n), c)
    for r, u in x.outer.terms.items():
        for s, cs in y.inner.items():
            out = out + QDerElem.ad(_plus(r, s), cs * pairing(u, s) * sigma(q, r, s))
    for s, cs in x.inner.items():
        for r, u in y.outer.terms.items():
            out = out - QDerElem.ad(_plus(r, s), cs * pairing(u, s) * sigma(q, r, s))
    for r, u in x.outer.terms.items():
        for s, v in y.outer.terms.items():
            a, b = pairing(u, s), pairing(v, r)
            w = tuple(sigma(q, r, s) * (a * vi - b * ui) for ui, vi in zip(u, v))
            out = out + QDerElem.douter(w, _plus(r, s))
    return out


def test_brackets_equal_term_by_term_fold():
    # (x, x) and (x, x + y) make the terms of [x, x] cancel inside one call
    rng = Random(17)
    cancelling = 0
    for d in (2, 3):
        for _ in range(40):
            x, y = rational_algelem(rng, d, "W"), rational_algelem(rng, d, "Lhat")
            for a, b in ((x, y), (x, x), (x, x + y)):
                assert bracket_witt(a, b) == fold_bracket_witt(a, b)
            cancelling += len(x.terms) > 1 and any(
                not fold_bracket_witt(AlgElem.term(u, r), x).is_zero()
                for r, u in x.terms.items())
    for l in ((2, 2), (3, 3), (2, 2, 1)):
        q = block_normal_q(l)
        for _ in range(40):
            x, y = rational_qder(rng, q, "Der"), rational_qder(rng, q, "Lqhat")
            for a, b in ((x, y), (x, x), (x, x + y)):
                assert bracket_qder(q, a, b) == fold_bracket_qder(q, a, b)
            cancelling += len(x.inner) + len(x.outer.terms) > 1 and any(
                not fold_bracket_qder(q, QDerElem(q.d, {m: c}), x).is_zero()
                for m, c in x.inner.items())
    assert cancelling > 20


def test_trusted_results_equal_validated_construction(monkeypatch):
    """bracket_qder, +, - and scale build their results unvalidated; each
    equals the validating constructor's element on the same dicts."""
    built = []
    trusted = QDerElem._trusted.__func__

    def recording(cls, d, inner, outer):
        x = trusted(cls, d, inner, outer)
        built.append((x, QDerElem(d, inner, outer), any(not c for c in inner.values())))
        return x

    monkeypatch.setattr(QDerElem, "_trusted", classmethod(recording))
    rng = Random(23)
    for l in ((2, 2), (3, 3), (2, 2, 1)):
        q = block_normal_q(l)
        for _ in range(20):
            x, y = sample_qder(rng, q, "Der"), sample_qder(rng, q, "Lqhat")
            for z in (x + y, x - x, -y, x.scale(3), bracket_qder(q, x, y),
                      bracket_qder(q, x, x + y)):
                assert z.d == q.d
    for got, want, _ in built:
        assert got.d == want.d and got.inner == want.inner
        assert got.outer.terms == want.outer.terms
    assert len(built) > 300 and sum(zero for _, _, zero in built) > 20


def test_bracket_rejects_each_inner_term_at_a_radical_degree(monkeypatch):
    # no valid pair of elements brackets onto one (the commutator vanishes
    # there), so the check is exercised by declaring (1, 1) radical
    true_in_rad = divalg.qder.in_rad
    monkeypatch.setattr(divalg.qder, "in_rad",
                        lambda q, m: tuple(m) == (1, 1) or true_in_rad(q, m))
    with pytest.raises(ValueError, match="radical degree"):
        bracket_qder(Q22, QDerElem.ad((1, 0)), QDerElem.ad((0, 1)))
    # a cancelling pair of terms is checked too
    x = QDerElem.ad((1, 0)) + QDerElem.ad((0, 1))
    with pytest.raises(ValueError, match="radical degree"):
        bracket_qder(Q22, x, x)


@pytest.mark.parametrize("algebra", ("Der", "Lq", "Lqhat"))
def test_lie_suites_q(algebra):
    assert lie_suite_q(Q22, algebra, 40, Random(3))["violations"] == 0


def test_membership_examples():
    def member(x):
        return {a for a in ("Der", "Lq", "Lqhat") if in_q_algebra(Q22, a, x)}

    assert member(QDerElem.ad((1, 0))) == {"Der", "Lq", "Lqhat"}
    assert member(QDerElem.douter((1, 0), (0, 0))) == {"Der", "Lqhat"}  # cartan
    assert member(QDerElem.douter((2, 0), (2, 0))) == {"Der"}  # (u|r) = 4 != 0
    # membership validates: an inner term at a radical degree is no element
    for algebra in ("Der", "Lq", "Lqhat"):
        with pytest.raises(ValueError, match="radical"):
            in_q_algebra(Q22, algebra, QDerElem.ad((2, 0)))


# -- module action ----------------------------------------------------------------

def test_act_q_inner():
    v = graded(P22, (1, 0), (1, 0))
    out = act_q(Q22, QDerElem.ad((0, 1)), v)
    # [t^(0,1), t^(1,0)] = (z2 - 1) t^(1,1) = -2 t^(1,1) at order 2
    assert out.fibers == {(1, 1): (-2, 0)}


def test_act_q_inner_kills_radical_degrees():
    v = graded(P22, (2, -2), (1, 1))
    for m in ((1, 0), (0, 1), (1, 1), (-1, 2)):
        if in_rad(Q22, m):
            continue
        assert act_q(Q22, QDerElem.ad(m), v).is_zero()


def test_act_q_cartan():
    v = graded(P22, (1, 2), (0, 1))
    out = act_q(Q22, QDerElem.douter((1, 0), (0, 0)), v)
    assert out.fibers == {(1, 2): (0, F(3, 2))}


def test_module_axioms_q_and_sign():
    rng = Random(21)
    out = module_suite_q(Q22, P22, "Lq", 60, rng)
    assert out["violations"] == 0
    assert out["outer_bracket_sign"] == 1


def test_sign_oracle_rejects_negative():
    # the module suite's sign verdict selects +1, and the probe alone rules out -1
    out = module_suite_q(Q22, P22, "Lqhat", 20, Random(2))
    assert out["outer_bracket_sign"] == 1 and out["violations"] == 0
    x, y, v = _sign_probe(Q22, P22)
    assert module_axiom_residual_q(Q22, x, y, v).is_zero()
    assert not module_axiom_residual_q(Q22, x, y, v, outer_sign=-1).is_zero()


# -- classes and isomorphisms -------------------------------------------------------

def test_classes_shift_predictably():
    # outer terms with radical degrees preserve each class; ad t^m shifts
    # class i to i + m mod the lattice
    rng = Random(8)
    for _ in range(25):
        n = (rng.randint(-3, 3), rng.randint(-3, 3))
        v = graded(P22, n, (rng.randint(-2, 2), rng.randint(1, 2)))
        out = act_q(Q22, QDerElem.douter((1, -1), (2, 2)), v)
        for m in out.fibers:
            assert class_of((2, 2), m) == class_of((2, 2), n)
        inner_deg = (1, 0) if rng.random() < 0.5 else (1, 1)
        out2 = act_q(Q22, QDerElem.ad(inner_deg), v)
        expect = class_of((2, 2), tuple(a + b for a, b in zip(n, inner_deg)))
        for m in out2.fibers:
            assert class_of((2, 2), m) == expect


def test_decompose_requires_block_normal():
    nb = QMatrix.from_exps(4, (
        (0, 0, 0, 1), (0, 0, 0, 0), (0, 0, 0, 0), (-1, 0, 0, 0)))
    v = GradedVec(ModuleParams(4, (0, 0, 0, 0), RepHandle.natural(4)),
                  {(0, 0, 0, 0): (1, 0, 0, 0)})
    for call in (lambda: iso_module(nb, (0, 0, 0, 0), v),
                 lambda: iso_params(nb, v.params, (0, 0, 0, 0)),
                 lambda: ad_annihilation_check(nb, v.params)):
        with pytest.raises(ValueError, match="block-normal"):
            call()


def test_congruence_classes():
    assert congruence_classes((2, 2)) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert class_of((2, 2), (3, -2)) == (1, 0)


def test_iso_algebra_examples():
    out = iso_algebra(Q22, QDerElem.douter((1, -1), (2, 2)))
    assert out == AlgElem.term((2, -2), (1, 1))
    cartan = iso_algebra(Q22, QDerElem.douter((3, 5), (0, 0)))
    assert cartan == AlgElem.term((6, 10), (0, 0))
    ones = block_normal_q((1, 1))
    assert iso_algebra(ones, QDerElem.douter((2, 3), (1, -4))) == AlgElem.term((2, 3), (1, -4))
    with pytest.raises(ValueError):
        iso_algebra(Q22, QDerElem.ad((1, 0)))
    with pytest.raises(ValueError):
        iso_algebra(Q22, QDerElem.douter((1, 0), (1, 0)))


def test_iso_module_example():
    # l=(2,2), class i=(1,0): fiber at (3,-2) -> (1,-1), alpha_i as stated
    v = graded(P22, (3, -2), (2, 5))
    out = iso_module(Q22, (1, 0), v)
    assert out.fibers == {(1, -1): (2, 5)}
    assert out.params.alpha == (F(3, 4), F(1, 6))
    assert out.params.rep.kind == "twisted"
    with pytest.raises(ValueError):
        iso_module(Q22, (0, 0), v)


def test_iso_params_built_once_per_class():
    """Every call for one (q, params, i) returns the same params, equal to a
    fresh build: the same alpha_i, a twist of the same rep by l, acting alike."""
    rng = Random(19)
    for i in congruence_classes((2, 2)):
        got = iso_params(Q22, P22, i)
        assert iso_params(Q22, P22, list(i)) is got
        fresh = divalg.qder._iso_params.__wrapped__(Q22, P22, i)
        assert got is not fresh and got.alpha == fresh.alpha
        assert (got.alpha_den, got.alpha_num) == (fresh.alpha_den, fresh.alpha_num)
        assert got.rep.kind == fresh.rep.kind == "twisted"
        assert got.rep.params == fresh.rep.params == {"parent": NAT2, "l": (2, 2)}
        for _ in range(10):
            x = sample_algelem(rng, 2, "Lhat", 2)
            v = sample_graded(rng, got)
            assert act(got, x, v).fibers == act(fresh, x, GradedVec(fresh, v.fibers)).fibers


def test_iso_params_entries_are_per_alpha():
    other = ModuleParams(2, (F(1, 5), F(1, 3)), NAT2)
    a, b = iso_params(Q22, P22, (1, 0)), iso_params(Q22, other, (1, 0))
    assert a is not b
    assert a.alpha == (F(3, 4), F(1, 6)) and b.alpha == (F(3, 5), F(1, 6))
    # the same alpha on another rep object is another module too
    c = iso_params(Q22, ModuleParams(2, ALPHA, RepHandle.natural(2)), (1, 0))
    assert c is not a and c.rep.params["parent"] is not NAT2


def test_equivariance():
    assert equivariance_suite(Q22, P22, 60, Random(4))["violations"] == 0
    # Cartan case explicitly
    v = graded(P22, (1, 0), (2, 3))
    x = QDerElem.douter((4, 7), (0, 0))
    assert equivariance_residual(Q22, (1, 0), x, v).is_zero()


def test_ad_annihilation():
    assert ad_annihilation_check(Q22, P22)
    ones = block_normal_q((1, 1))
    assert ad_annihilation_check(ones, ModuleParams(2, (0, 0), NAT2))  # vacuous: no inner terms
    # complement: some ad t^m moves a nonzero-class vector
    v = graded(P22, (1, 0), (1, 0))
    moved = any(
        not act_q(Q22, QDerElem.ad(m), v).is_zero()
        for m in Box.radius(2, 2).degrees()
        if any(m) and not in_rad(Q22, m)
    )
    assert moved


def quadratic_ad_annihilation(q, params, radius=2):
    """The pairwise form of :func:`ad_annihilation_check`: sigma(m, n) against
    sigma(n, m) for every off-radical m and radical n of the box, with the
    same spot check through the module action."""
    in_rad_q = divalg.qder.in_rad
    box = Box.radius(q.d, radius)
    rad_degrees = [n for n in box.degrees() if in_rad_q(q, n)]
    for m in box.degrees():
        if in_rad_q(q, m):
            continue
        for n in rad_degrees:
            if sigma_exponent(q, m, n) != sigma_exponent(q, n, m):
                return False
        w = graded(params, rad_degrees[0], (1,) * params.rep.dim)
        if not act_q(q, QDerElem.ad(m), w).is_zero():
            return False
    return True


def _block_params(l):
    d = len(l)
    return ModuleParams(d, (F(1, 5), F(-2, 7), F(1, 3), 0)[:d], RepHandle.natural(d))


@pytest.mark.parametrize("l", [(2, 2), (3, 3), (2, 2, 1), (4, 4)])
def test_ad_annihilation_matches_the_pairwise_check(l):
    q, params = block_normal_q(l), _block_params(l)
    assert ad_annihilation_check(q, params) is quadratic_ad_annihilation(q, params) is True


@pytest.mark.parametrize("l", [(2, 2), (3, 3), (2, 2, 1)])
def test_ad_annihilation_fails_on_a_non_radical_degree(monkeypatch, l):
    # an in_rad that also admits the off-radical degree (1, 1, ...): ad t^e_i
    # does not commute with t^(1, 1, ...), so both forms must say False
    q, params = block_normal_q(l), _block_params(l)
    extra = (1,) * q.d
    assert not in_rad(q, extra)
    real = divalg.qder.in_rad
    monkeypatch.setattr(divalg.qder, "in_rad", lambda q, n: tuple(n) == extra or real(q, n))
    assert ad_annihilation_check(q, params) is quadratic_ad_annihilation(q, params) is False


def test_ad_annihilation_walks_the_box_once(monkeypatch):
    # one in_rad per degree of the radius-2 box, and no act_q, which would
    # validate each off-radical ad t^m again
    l = (2, 2, 1)
    q, params = block_normal_q(l), _block_params(l)
    real, seen = divalg.qder.in_rad, []
    monkeypatch.setattr(divalg.qder, "in_rad", lambda q, n: seen.append(tuple(n)) or real(q, n))
    monkeypatch.setattr(divalg.qder, "act_q", lambda *args: pytest.fail("act_q ran"))
    assert ad_annihilation_check(q, params)
    assert seen == list(Box.radius(3, 2).degrees())


# -- q-closure -----------------------------------------------------------------------

def test_closure_q_gq_full():
    for cls in ((1, 0), (0, 1), (1, 1)):
        seed = graded(P22, cls, (1, 0))
        res = closure_q(Q22, P22, [seed], 2, Box.radius(2, 3),
                        Box.radius(2, 1), 60, "Lq")
        assert res.saturated
        assert res.label.kind == "GqFull"
        for n, dim in res.fiber_dims.items():
            assert dim == (0 if in_rad(Q22, n) else 2)


def test_closure_q_class0_confined():
    seed = graded(P22, (0, 0), (1, 0))
    res = closure_q(Q22, P22, [seed], 2, Box.radius(2, 3),
                    Box.radius(2, 1), 60, "Lq")
    assert res.label.kind == "Class0"
    for n, dim in res.fiber_dims.items():
        if class_of((2, 2), n) != (0, 0):
            assert dim == 0


@pytest.mark.parametrize("q", [block_normal_q((2, 2)), block_normal_q((2, 2, 1)),
                               block_normal_q((3, 3)), Q_MIXED, Q_ANTICOMMUTING, Q_ZERO_COLUMN],
                         ids=["22", "221", "33", "mixed", "anticommuting", "zero-column"])
def test_inner_generator_is_zero_exactly_where_the_commutator_is(q):
    # the generator's form decides [t^m, t^n] = 0 without building the
    # coefficient; it must agree with commutator_coeff on every pair
    box = list(Box.radius(q.d, 2).degrees())
    w = [1, 2]
    for m in box:
        apply = _inner_generator(q, m).block_apply
        for n in box:
            image = apply(n, w)
            assert (image is w) == (commutator_coeff(q, m, n) is not None), (m, n)
            assert image is w or image is None


def test_closure_q_errors():
    with pytest.raises(ValueError):
        closure_q(Q22, P22, [], 2, Box.radius(2, 3), Box.radius(2, 1), 50, "Lq")
    empty = GradedVec(P22, {})
    with pytest.raises(ValueError):
        closure_q(Q22, P22, [empty], 2, Box.radius(2, 3), Box.radius(2, 1), 50, "Lq")
    # an algebra without a q closure is refused on both routes
    for n in ((1, 0), (0, 0)):
        with pytest.raises(ValueError, match="algebra must be one of"):
            closure_q(Q22, P22, [graded(P22, n, (1, 0))], 2, Box.radius(2, 3),
                      Box.radius(2, 1), 50, "Lhat")


# -- the radical bound ----------------------------------------------------------------

RADICAL_QS = [block_normal_q((2, 2)), block_normal_q((3, 3)), block_normal_q((2, 2, 1)),
              Q_ANTICOMMUTING, Q_ZERO_COLUMN]
RADICAL_Q_IDS = ["22", "33", "221", "anticommuting", "zero-column"]


def _radical_params(q):
    return ModuleParams(q.d, (F(1, 5), F(1, 7), F(1, 3))[:q.d], RepHandle.natural(q.d))


@pytest.mark.parametrize("q", RADICAL_QS, ids=RADICAL_Q_IDS)
def test_no_generator_crosses_the_radical(q):
    # ad t^m kills the fiber at n whenever n or n + m is radical, and every
    # generator off the radical is an ad t^m (it returns its input or None),
    # so every outer shift is radical and keeps a degree's side
    box = list(Box.radius(q.d, 2).degrees())
    w = list(range(1, q.d + 1))
    for m in box:
        if in_rad(q, m):
            continue
        apply = _inner_generator(q, m).block_apply
        for n in box:
            if in_rad(q, n) or in_rad(q, tuple(a + b for a, b in zip(m, n))):
                assert apply(n, w) is None, (m, n)
    params = _radical_params(q)
    for algebra in Q_ALGEBRAS:
        for gen in qder_generators(q, params, 2, algebra):
            if not in_rad(q, gen.shift):
                for n in box:
                    image = gen.block_apply(n, w)
                    assert image is w or image is None, (algebra, gen.shift, n)


@pytest.mark.parametrize("seeds", ["off", "two-off", "radical", "mixed"])
@pytest.mark.parametrize("algebra", Q_ALGEBRAS)
@pytest.mark.parametrize("q", RADICAL_QS, ids=RADICAL_Q_IDS)
def test_radical_bound_matches_unbounded_closure(q, algebra, seeds, monkeypatch,
                                                plain_extraction, q_engine):
    # the bound only skips generators whose images stay in the span: the
    # engine's closure with it is the closure without it, iterations and
    # label included; every fiber basis is checked against plain elimination
    params = _radical_params(q)
    units = [tuple(int(i == j) for j in range(q.d)) for i in range(q.d)]
    off = [e for e in units if not in_rad(q, e)]
    zero = (0,) * q.d
    degrees = {"off": off[:1], "two-off": off[:2], "radical": [zero],
               "mixed": [zero, off[0]]}[seeds]
    seed_list = [graded(params, n, range(1, q.d + 1)) for n in degrees]
    assert (radical_bound(q, params, seed_list) is None) == (seeds == "mixed")
    args = (q, params, seed_list, 2, Box.radius(q.d, 2), Box.radius(q.d, 1), 50, algebra)
    bounded = q_engine(*args)
    assert bounded.saturated
    monkeypatch.setattr(divalg.qder, "radical_bound", lambda q, params, seeds: None)
    assert q_engine(*args) == bounded
    assert plain_extraction["fibers"]


# -- the off-radical route ----------------------------------------------------------

ROUTE_QS = {"22": block_normal_q((2, 2)), "33": block_normal_q((3, 3)),
            "221": block_normal_q((2, 2, 1)), "331": block_normal_q((3, 3, 1)),
            "2211": block_normal_q((2, 2, 1, 1)), "3311": block_normal_q((3, 3, 1, 1)),
            "anticommuting": Q_ANTICOMMUTING, "zero-column": Q_ZERO_COLUMN, "mixed": Q_MIXED}
ALPHAS = (F(1, 2), F(1, 3), F(1, 5), F(1, 7), F(1, 11))


def _route_case(q, kind, seeds, gen_radius, algebra, working):
    """The closure_q arguments of one case: alpha (1/2, 1/3, ...), the
    natural rep, Lambda^2 or the natural rep twisted by (1, 2, ..., d), and
    seeds given as (degree, basis index) pairs (-1 for the last basis
    vector), with the target box the working box."""
    rep = {"natural": lambda: RepHandle.natural(q.d),
           "exterior": lambda: RepHandle.exterior(q.d, 2),
           "twisted": lambda: RepHandle.twisted(RepHandle.natural(q.d), range(1, q.d + 1))}[kind]()
    params = ModuleParams(q.d, ALPHAS[:q.d], rep)
    seed_list = [graded(params, n, [int(t == b % rep.dim) for t in range(rep.dim)])
                 for n, b in seeds]
    return (q, params, seed_list, gen_radius, working, working, 60, algebra)


def _spied_closure_q(monkeypatch, args):
    """closure_q on args, and whether it ran ``_close``, the engine."""
    calls = []
    real = divalg.qder._close
    monkeypatch.setattr(divalg.qder, "_close", lambda *a: calls.append(1) or real(*a))
    result = closure_q(*args)
    monkeypatch.setattr(divalg.qder, "_close", real)
    return result, bool(calls)


def _route_grid():
    """Every q of ROUTE_QS with each rep and each seed set: one seed at e1,
    one at e2 (radical for the zero-column q, so the engine runs), and one at
    each of two off-radical unit degrees; gen_radius cycles through 1-3 and
    the algebra through Lq and Lqhat.  The working box has radius 2, or 1 at
    d = 4."""
    cases, turn = [], 0
    for name, q in ROUTE_QS.items():
        units = [tuple(int(i == j) for j in range(q.d)) for i in range(q.d)]
        off = [e for e in units if not in_rad(q, e)]
        for seeds in ("e1", "e2", "two-off"):
            for kind in ("natural", "exterior"):
                degrees = {"e1": units[:1], "e2": units[1:2], "two-off": off[:2]}[seeds]
                seed_pairs = [(n, -k) for k, n in enumerate(degrees)]
                cases.append(pytest.param(
                    q, kind, seed_pairs, 1 + turn % 3, Q_ALGEBRAS[turn % 2],
                    Box.radius(q.d, 1 if q.d == 4 else 2), id=f"{name}-{seeds}-{kind}"))
                turn += 1
    return cases


ROUTE_CASES = _route_grid() + [
    pytest.param(ROUTE_QS["3311"], "exterior", [((1, 0, 0, 0), 0)], 1, "Lq", Box.radius(4, 2),
                 id="3311-ci-d4"),
    # fractional rep entries
    pytest.param(ROUTE_QS["221"], "twisted", [((1, 0, 0), 0)], 2, "Lqhat", Box.radius(3, 2),
                 id="221-twisted")]


@pytest.mark.parametrize("q, kind, seeds, gen_radius, algebra, working", ROUTE_CASES)
def test_off_radical_route_matches_the_engine(q, kind, seeds, gen_radius, algebra, working,
                                              monkeypatch, q_engine):
    # fiber bases, dims, label and saturation agree with the engine's; the
    # route runs exactly when every seed lies off the radical (every box
    # here is one off-radical component)
    args = _route_case(q, kind, seeds, gen_radius, algebra, working)
    got, ran_engine = _spied_closure_q(monkeypatch, args)
    assert ran_engine == any(in_rad(q, n) for n, _ in seeds)
    want = q_engine(*args)
    assert want.saturated
    assert replace(got, iterations=want.iterations) == want


def _engine_with_family(args, radical_only, bound):
    """``_close`` on closure_q's arguments with the radical-only generator
    family or the full one, and the given fiber bound."""
    q, params, seeds, gen_radius, working, target, max_iters, algebra = args
    return divalg.qder._close(
        params, seeds, working, target, max_iters,
        lambda: qder_generators(q, params, gen_radius, algebra, radical_only),
        lambda result: classify_q(result, q, params), bound)


RADICAL_SEED_CASES = [c for c in ROUTE_CASES if all(in_rad(c.values[0], n) for n, _ in c.values[2])]
RADICAL_SEED_CASES.append(pytest.param(
    ROUTE_QS["2211"], "exterior", [((0, 0, 0, 0), 0)], 2, "Lqhat", Box.radius(4, 2),
    id="2211-ci-d4-class0"))


@pytest.mark.parametrize("q, kind, seeds, gen_radius, algebra, working", RADICAL_SEED_CASES)
def test_radical_seeds_close_under_the_outer_generators(q, kind, seeds, gen_radius, algebra,
                                                        working):
    # ad t^m is 0 on radical rows, so leaving it out changes no result,
    # with the radical bound or without it; closure_q leaves it out
    args = _route_case(q, kind, seeds, gen_radius, algebra, working)
    outer = qder_generators(q, args[1], gen_radius, algebra, True)
    assert all(in_rad(q, g.shift) for g in outer)
    assert len(outer) < len(qder_generators(q, args[1], gen_radius, algebra))
    for bound in (radical_bound(q, args[1], args[2]), None):
        want = _engine_with_family(args, False, bound)
        assert want.saturated
        assert _engine_with_family(args, True, bound) == want
    assert closure_q(*args) == _engine_with_family(args, False, radical_bound(q, args[1], args[2]))


def test_golden_radical_seed_closures_close_under_the_outer_generators(monkeypatch):
    # the q closures of the golden reports whose seeds are all radical give
    # the full family's ClosureResult
    from test_cli import GOLDEN
    seen = []
    real = divalg.cli.closure_q
    monkeypatch.setattr(divalg.cli, "closure_q", lambda *a: seen.append((a, real(*a))) or seen[-1][1])
    for _, config, _ in GOLDEN:
        if config["job"] == "closure" and "q" in config:
            assert run(json.loads(json.dumps(config)), 0)[1] == 0
    radical = [(a, got) for a, got in seen if all(in_rad(a[0], n) for v in a[2] for n in v.fibers)]
    assert radical
    for args, got in radical:
        assert got == _engine_with_family(args, False, radical_bound(*args[:3]))


@pytest.mark.parametrize("q, kind, seeds, gen_radius, algebra, working", ROUTE_CASES)
def test_outer_maps_span_every_r_u(q, kind, seeds, gen_radius, algebra, working, monkeypatch):
    # the maps the route applies are independent and span what every r u^T
    # of its shifts spans, u in pair_basis(r), as before the shifts were
    # ordered, taken one per line and cut at p d - 1
    calls = []
    real = divalg.qder._outer_maps
    monkeypatch.setattr(divalg.qder, "_outer_maps",
                        lambda shifts, d: calls.append((shifts, d, real(shifts, d))) or calls[-1][2])
    closure_q(*_route_case(q, kind, seeds, gen_radius, algebra, working))
    assert len(calls) == (not any(in_rad(q, n) for n, _ in seeds))
    for shifts, d, maps in calls:
        got = basis_of([[x for row in b for x in row] for b in maps], d * d)
        every = [[x * y for x in r for y in u] for r in shifts for _, _, u in pair_basis(r)]
        assert got.rank == len(maps)
        assert same_span(got, basis_of(every, d * d))


def test_outer_maps_reduce_few_matrices(monkeypatch):
    # Lambda^2 at l = (2, 2, 1, 1, 1), gen_radius 2, box 2: 562 radical
    # shifts; reducing every r u^T until sl_5 filled made 866 _reduce_into
    # calls in the closure, the first shift per line up to the bound 207
    calls = []
    real = divalg.qder._reduce_into
    monkeypatch.setattr(divalg.qder, "_reduce_into", lambda *a: calls.append(1) or real(*a))
    args = _route_case(block_normal_q((2, 2, 1, 1, 1)), "exterior", [((1, 0, 0, 0, 0), 0)], 2,
                       "Lq", Box.radius(5, 2))
    got = closure_q(*args)
    assert (got.label.kind, got.iterations, len(calls)) == ("GqFull", 3, 207)


@pytest.mark.parametrize("l, lo, hi, seed", [
    # no ad t^m edge stays inside: each degree is its own component
    ((2, 2, 1), (1, 0, -2), (1, 0, 2), (1, 0, 0)),
    # f((1, 0), n) = 1 on the box: the two off-radical degrees are not joined
    ((3, 3), (1, 0), (2, 0), (1, 0)),
], ids=["thin-box", "two-degrees"])
def test_split_boxes_fall_back_to_the_engine(l, lo, hi, seed, monkeypatch, q_engine):
    q = block_normal_q(l)
    args = _route_case(q, "natural", [(seed, 0)], 2, "Lq", Box(lo, hi))
    got, ran_engine = _spied_closure_q(monkeypatch, args)
    assert ran_engine
    assert got == q_engine(*args)


def _component_count(q, working, gen_radius):
    """The components of the off-radical degrees of the box under the edges
    n -> n + m, m in the generator box, with f(m, n) != 1, by a plain walk
    over degrees."""
    shifts = list(Box.radius(q.d, gen_radius).degrees())
    seen, count = set(), 0
    for start in working.degrees():
        if in_rad(q, start) or start in seen:
            continue
        count += 1
        seen.add(start)
        stack = [start]
        while stack:
            n = stack.pop()
            for m in shifts:
                t = tuple(a + b for a, b in zip(n, m))
                if working.contains(t) and t not in seen and f_exponent(q, m, n):
                    seen.add(t)
                    stack.append(t)
    return count


@pytest.mark.parametrize("name", ["22", "33", "221", "anticommuting", "zero-column", "mixed"])
def test_component_walk_matches_a_walk_over_degrees(name):
    # the route runs exactly on the boxes whose off-radical degrees form one
    # component, among lines, slabs and boxes at gen_radius 0-2
    q = ROUTE_QS[name]
    d = q.d
    boxes = [Box.radius(d, 1), Box.radius(d, 2), Box((1,) * d, (1,) * d),
             Box((1,) + (0,) * (d - 1), (2,) + (0,) * (d - 1)),
             Box((1,) + (0,) * (d - 1), (1,) + (0,) * (d - 2) + (3,)),
             Box((0,) * d, (1,) + (3,) * (d - 1)), Box((-1,) * d, (0,) + (1,) * (d - 1))]
    params = ModuleParams(d, ALPHAS[:d], RepHandle.natural(d))
    split = joined = 0
    for working in boxes:
        off = [n for n in working.degrees() if not in_rad(q, n)]
        if not off:
            continue
        seed = [(off[0], (1,) + (0,) * (d - 1))]
        for gen_radius in (0, 1, 2):
            one = _component_count(q, working, gen_radius) == 1
            got = off_radical_closure(q, params, seed, gen_radius, working, working, 60)
            assert (got is not None) == one, (working, gen_radius)
            split += not one
            joined += one
    assert split and joined


def test_component_walk_follows_a_long_line():
    # 3,000 off-radical degrees joined in a line by (0, +-1) alone, which
    # the walk follows by doubling jumps
    q = ROUTE_QS["22"]
    working = Box((1, 0), (1, 2999))
    assert _component_count(q, working, 1) == 1
    params = ModuleParams(2, ALPHAS[:2], RepHandle.natural(2))
    got = off_radical_closure(q, params, [((1, 0), (1, 0))], 1, working, Box((1, 0), (1, 2)), 60)
    assert got is not None and got.saturated


@pytest.mark.parametrize("name", ["22", "221", "zero-column"])
def test_degree_sets_match_their_degrees(name):
    q = ROUTE_QS[name]
    d = q.d
    for working in (Box.radius(d, 2), Box((-1,) + (0,) * (d - 1), (2,) + (1,) * (d - 1))):
        sets = _DegreeSets(working)
        degrees = list(working.degrees())

        def members(bits):
            return [n for i, n in enumerate(degrees) if bits >> i & 1]

        for s in Box.radius(d, 2).degrees():
            shifted = [n for n in degrees if working.contains(tuple(map(sum, zip(n, s))))]
            assert members(sets.inside(s)) == shifted, s
            form = ad_form(q, s)
            assert members(sets.nonzero(form, q.N)) == [n for n in degrees
                                                       if f_exponent(q, s, n)], s


def test_route_rounds_stop_at_the_cap():
    # Lambda^2 at l = (2, 2, 1, 1) fills V in round 2, so iterations is 3; a
    # cap below that leaves rows queued: unsaturated, unlabelled, and each
    # fiber a subspace of the saturated one, a proper one after round 1
    q = ROUTE_QS["2211"]
    args = _route_case(q, "exterior", [((1, 0, 0, 0), 0)], 1, "Lq", Box.radius(4, 1))
    full = closure_q(*args)
    assert (full.iterations, full.saturated, full.label.kind) == (3, True, "GqFull")
    for cap in (1, 2):
        got = closure_q(*args[:6], cap, args[7])
        assert (got.iterations, got.saturated, got.label) == (cap, False, None)
        for n, b in got.fiber_bases.items():
            assert all(span_contains(full.fiber_bases[n], row) for row in b.rows)
        assert (sum(got.fiber_dims.values()) < sum(full.fiber_dims.values())) == (cap == 1)
    assert closure_q(*args[:6], 3, args[7]) == full


def test_route_takes_the_d5_closure(monkeypatch):
    # Lambda^2 at l = (3, 3, 1, 1, 1), gen_radius 2, box 2: 3,125 degrees, on
    # which the engine spends seconds
    args = _route_case(block_normal_q((3, 3, 1, 1, 1)), "exterior", [((1, 0, 0, 0, 0), 0)], 2,
                       "Lq", Box.radius(5, 2))
    args = args[:5] + (Box.radius(5, 1),) + args[6:]
    got, ran_engine = _spied_closure_q(monkeypatch, args)
    assert not ran_engine and got.saturated and got.label.kind == "GqFull"


@pytest.mark.parametrize("l", [(2, 2), (3, 3), (2, 2, 1), (3, 3, 1, 1)])
@pytest.mark.parametrize("kind", ["natural", "exterior"])
def test_route_fills_v_when_the_radical_shifts_span(l, kind):
    # at gen_radius max(l) and box radius 2 the radical shifts that keep a
    # degree inside the box span Q^d, and S is the sl_d-submodule the seed
    # generates: all of V for the irreducible natural rep and Lambda^2.  At
    # box radius 1 the shift (3, 0, 0, 0) keeps no degree inside, and the
    # natural rep at l = (3, 3, 1, 1) reaches 3 of 4
    q = block_normal_q(l)
    args = _route_case(q, kind, [((1,) + (0,) * (len(l) - 1), 0)], max(l), "Lq",
                       Box.radius(len(l), 2))
    assert closure_q(*args).label.kind == "GqFull"
