"""q-derivation brackets, the tensor module, congruence classes, and the
block-normal isomorphisms."""

from fractions import Fraction
from random import Random

import pytest

from divalg.closure import Box
from divalg.modules import GradedVec, ModuleParams, act, graded
from divalg.qder import (
    QDerElem,
    act_q,
    ad_annihilation_check,
    bracket_qder,
    class_of,
    closure_q,
    congruence_classes,
    equivariance_residual,
    g_q_component,
    in_Lq,
    in_Lqhat,
    iso_algebra,
    iso_module,
    iso_params,
    module_axiom_residual_q,
    outer_bracket_sign_oracle,
)
import divalg.qder
from divalg.qtorus import QMatrix, block_normal_q, in_rad, sigma, sigma_exponent
from divalg.reps import RepHandle
from divalg.scalars import Cyc
from divalg.verify import (
    equivariance_suite,
    lie_suite_q,
    module_suite_q,
    sample_algelem,
    sample_graded,
    sample_qder,
)
from divalg.witt import AlgElem, bracket_witt, pairing

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
    ad = QDerElem.ad((1, 0))
    assert in_Lq(Q22, ad) and in_Lqhat(Q22, ad)
    cartan = QDerElem.douter((1, 0), (0, 0))
    assert in_Lqhat(Q22, cartan) and not in_Lq(Q22, cartan)
    bad = QDerElem.douter((2, 0), (2, 0))  # (u|r) = 4 != 0
    assert not in_Lq(Q22, bad) and not in_Lqhat(Q22, bad)


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
    rng = Random(2)
    samples = []
    for _ in range(20):
        x = rational_qder(rng, Q22, "Lqhat")
        y = rational_qder(rng, Q22, "Lqhat")
        v = sample_graded(rng, P22)
        if not v.is_zero():
            samples.append((x, y, v))
    from divalg.verify import _sign_probe

    samples.append(_sign_probe(Q22, P22))
    assert outer_bracket_sign_oracle(Q22, samples) == 1
    x, y, v = samples[-1]
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


def test_g_q_component():
    on_rad = graded(P22, (2, 0), (1, 1))
    off_rad = graded(P22, (1, 0), (1, 1))
    assert g_q_component(Q22, on_rad).is_zero()
    assert g_q_component(Q22, off_rad) == off_rad
    mixed = on_rad + off_rad
    assert g_q_component(Q22, mixed) == off_rad


def test_decompose_requires_block_normal():
    nb = QMatrix.from_exps(4, (
        (0, 0, 0, 1), (0, 0, 0, 0), (0, 0, 0, 0), (-1, 0, 0, 0)))
    v = GradedVec(ModuleParams(4, (0, 0, 0, 0), RepHandle.natural(4)),
                  {(0, 0, 0, 0): (1, 0, 0, 0)})
    with pytest.raises(ValueError):
        g_q_component(nb, v)


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


def test_closure_q_errors():
    with pytest.raises(ValueError):
        closure_q(Q22, P22, [], 2, Box.radius(2, 3), Box.radius(2, 1), 50, "Lq")
    empty = GradedVec(P22, {})
    with pytest.raises(ValueError):
        closure_q(Q22, P22, [empty], 2, Box.radius(2, 3), Box.radius(2, 1), 50, "Lq")
