"""Graded module action, the wedge submodule fibers, and the rank-one split."""

from fractions import Fraction
from math import comb, lcm
from random import Random

import pytest

import divalg.modules
import divalg.verify
from divalg.cli import run
from divalg.closure import Box, pair_basis, pair_generators, unit_generators
from divalg.linalg import span_contains
from divalg.modules import (
    GradedVec,
    ModuleParams,
    act,
    act_d_basis,
    graded,
    module_axiom_residual,
    term_map,
    trivial_split,
    w_fiber_basis,
    w_membership,
)
from divalg.qtorus import QMatrix, block_normal_q, block_structure, cocycle, in_rad, sigma
from divalg.reps import RepHandle, act_matrix
from divalg.scalars import Cyc
from divalg.verify import (
    act_crosscheck_suite,
    module_suite_classical,
    sample_graded,
    w_invariance_suite,
)
from divalg.witt import AlgElem, bracket_witt, pairing


F = Fraction


def natural_params(alpha=(0, 0)):
    return ModuleParams(2, alpha, RepHandle.natural(2))


def test_act_rank_one_example():
    p = natural_params()
    v = graded(p, (0, 0), (1, 0))
    out = act(p, AlgElem.term((1, -1), (1, 1)), v)
    assert out == graded(p, (1, 1), (1, 1))  # (e1 + e2) at degree (1,1)


def test_act_cartan_weight():
    p = ModuleParams(2, (F(1, 2), 0), RepHandle.natural(2))
    v = graded(p, (3, 5), (0, 1))
    out = act(p, AlgElem.term((1, 0), (0, 0)), v)
    assert out == graded(p, (3, 5), (0, F(7, 2)))


def test_act_zero():
    p = natural_params()
    z = GradedVec(p, {})
    assert act(p, AlgElem.term((1, 0), (1, 0)), z).is_zero()


def test_act_d_basis_trivial_example():
    p = ModuleParams(2, (F(1, 2), 0), RepHandle.trivial(2))
    v = graded(p, (0, 0), (1,))
    out = act_d_basis(p, (1, 2), 1, v)
    assert out == graded(p, (1, 2), (1,))


def test_act_d_basis_zero_degree():
    p = natural_params()
    v = graded(p, (0, 0), (1, 0))
    assert act_d_basis(p, (0, 0), 1, v).is_zero()


def test_act_matches_act_d_basis():
    p = ModuleParams(3, (F(1, 3), F(1, 5), 0), RepHandle.exterior(3, 2))
    assert act_crosscheck_suite(p, 100, Random(3))["violations"] == 0


@pytest.mark.parametrize("rep,d", [
    (RepHandle.natural(2), 2),
    (RepHandle.exterior(3, 2), 3),
    (RepHandle.symmetric(2, 2), 2),
    (RepHandle.trivial(2), 2),
])
def test_module_axiom_residual_random(rep, d):
    alpha = (F(1, 2),) + (0,) * (d - 1)
    p = ModuleParams(d, alpha, rep)
    rng = Random(d)
    for algebra in ("W", "Lhat", "L"):
        assert module_suite_classical(p, algebra, 30, rng)["violations"] == 0


def test_trusted_matches_validating_constructor():
    p = ModuleParams(3, (F(1, 2), 0, F(-1, 3)), RepHandle.exterior(3, 2))
    fibers = {(0, 0, 0): [1, 0, F(1, 2)], (1, -1, 2): (0, 0, 0), (2, 0, 0): [0, 0, 0],
              (0, 1, 0): (0, -3, 0)}
    trusted = GradedVec._trusted(p, fibers)
    plain = GradedVec(p, fibers)
    assert trusted.fibers == plain.fibers
    assert set(trusted.fibers) == {(0, 0, 0), (0, 1, 0)}
    assert all(type(c) is tuple for c in trusted.fibers.values())
    assert trusted == plain and trusted.params is p


def test_sub_is_adding_the_negative():
    # integer, Fraction and Cyc coordinates; fibers on both sides, on one
    # side only, and fibers that cancel
    rng = Random(14)
    for rep in (RepHandle.natural(2), RepHandle.exterior(3, 2)):
        p = ModuleParams(rep.d, (F(1, 2),) * rep.d, rep)
        for _ in range(100):
            v, w = sample_graded(rng, p, 1), sample_graded(rng, p, 1)
            w = w.scale(F(1, 3)) + GradedVec(p, {n: c for n, c in v.fibers.items()
                                                 if rng.random() < 0.5})
            if rep.d == 2:
                w = w.scale(Cyc.zeta(3, 1)) + w
            zero = GradedVec(p, {})
            for a, b in ((v, w), (w, v), (v, v), (v, zero), (zero, w)):
                got = a - b
                assert got.fibers == (a + (-b)).fibers
                assert all(any(c) for c in got.fibers.values())


@pytest.mark.parametrize("algebra", ["W", "Lhat", "L"])
def test_residual_builds_one_term_map_per_term(monkeypatch, algebra):
    """One residual builds |x| + |y| + |[x, y]| term maps: the operators of
    x and y are each applied twice but built once."""
    p = ModuleParams(3, (F(1, 2), F(-2, 3), 0), RepHandle.exterior(3, 2))
    rng = Random(f"count-{algebra}")
    built = []
    true_term_map = divalg.modules.term_map
    monkeypatch.setattr(divalg.modules, "term_map",
                        lambda *args: built.append(1) or true_term_map(*args))
    for _ in range(20):
        x, y = (divalg.verify.sample_algelem(rng, 3, algebra, 2).scale(6) for _ in range(2))
        v = divalg.verify.sample_graded(rng, p)
        del built[:]
        assert module_axiom_residual(p, x, y, v).is_zero()
        assert len(built) == len(x.terms) + len(y.terms) + len(bracket_witt(x, y).terms)


def test_module_axiom_x_equals_y():
    p = natural_params()
    x = AlgElem.term((1, 2), (1, 0))
    v = graded(p, (0, 0), (1, 1))
    assert module_axiom_residual(p, x, x, v).is_zero()


# -- wedge submodule fibers ----------------------------------------------------

def test_w_fiber_k1():
    b = w_fiber_basis(2, 1, (F(1, 2), 0), (0, 0))
    assert b.rank == 1
    assert span_contains(b, (F(1, 2), 0))


def test_w_fiber_vanishes_at_minus_alpha():
    assert w_fiber_basis(2, 1, (1, -2), (-1, 2)).rank == 0


def test_w_fiber_k2_d3():
    # alpha + n = e1: image is span{e1^e2, e1^e3}, dim C(2,1) = 2
    b = w_fiber_basis(3, 2, (1, 0, 0), (0, 0, 0))
    assert b.rank == 2
    assert span_contains(b, (1, 0, 0))   # e1^e2
    assert span_contains(b, (0, 1, 0))   # e1^e3
    assert not span_contains(b, (0, 0, 1))


@pytest.mark.parametrize("d,k", [(2, 1), (3, 1), (3, 2), (3, 3), (4, 2)])
def test_w_fiber_dimension_formula(d, k):
    from math import comb

    alpha = tuple(F(1, p) for p in range(2, d + 2))
    for n in ((0,) * d, (1,) + (0,) * (d - 1), (-2,) * d):
        assert w_fiber_basis(d, k, alpha, n).rank == comb(d - 1, k - 1)


def test_w_membership_examples():
    p = ModuleParams(2, (F(1, 2), 0), RepHandle.natural(2))
    assert w_membership(graded(p, (0, 0), (F(1, 2), 0)))
    assert not w_membership(graded(p, (0, 0), (0, 1)))
    assert w_membership(GradedVec(p, {}))
    sym = ModuleParams(2, (0, 0), RepHandle.symmetric(2, 2))
    with pytest.raises(ValueError):
        w_membership(graded(sym, (0, 0), (1, 0, 0)))


@pytest.mark.parametrize("d,k,alpha", [
    (2, 1, (F(1, 2), 0)),
    (3, 1, (F(1, 3), F(1, 5), 0)),
    (3, 2, (F(1, 3), F(1, 5), 0)),
    (2, 1, (1, -2)),
])
def test_w_invariance_exact(d, k, alpha):
    rep = RepHandle.natural(d) if k == 1 else RepHandle.exterior(d, k)
    p = ModuleParams(d, alpha, rep)
    out = w_invariance_suite(p, gen_radius=2, box_radius=1)
    assert out["violations"] == 0


def _unit(d, j):
    return tuple(1 if t == j else 0 for t in range(1, d + 1))


def wedge_images(params: ModuleParams, gen_radius: int, box_radius: int):
    """Every image the wedge-invariance suite checks, in its order, on integers.

    For each wedge basis row of the rep's exterior power k at degree n in the
    box and each D(e_j, r) with r in the generator box and j = 1..d, yields
    (n, row, r, j, img, w).  img is the fiber at m = n + r of
    D(e_j, r).(row x t^n), scaled by D lcm(row denominators), with D =
    lcm(alpha denominators), and w = D (alpha + m), so both are integer.
    """
    gens = list(Box.radius(params.d, gen_radius).degrees())
    for n, row, wn, src, cols in divalg.verify._wedge_rows(params, box_radius):
        for r, j, img, w in divalg.verify._row_images(wn, src, cols, params.alpha_den, gens):
            yield n, row, r, j, img, w


@pytest.mark.parametrize("d,k,alpha", [
    (2, 1, (F(1, 2), F(-2, 3))),
    (2, 2, (1, -1)),
    (3, 1, (F(1, 3), F(-1, 5), 0)),
    (3, 2, (1, 0, F(-1, 2))),
])
def test_wedge_images_match_act(d, k, alpha):
    rep = RepHandle.natural(d) if k == 1 else RepHandle.exterior(d, k)
    p = ModuleParams(d, alpha, rep)
    D = lcm(*(a.denominator for a in p.alpha))
    seen = 0
    for n, row, r, j, img, w in wedge_images(p, gen_radius=1, box_radius=1):
        m = tuple(a + b for a, b in zip(n, r))
        scale = D * lcm(*(x.denominator for x in row))
        fiber = act(p, AlgElem.term(_unit(d, j), r), graded(p, n, row)).fibers
        assert set(fiber) <= {m}
        assert img == tuple(scale * x for x in fiber.get(m, (0,) * rep.dim))
        assert w == tuple(D * (a + mi) for a, mi in zip(p.alpha, m))
        seen += 1
    rows = sum(w_fiber_basis(d, k, p.alpha, n).rank for n in Box.radius(d, 1).degrees())
    assert seen == rows * 3 ** d * d


@pytest.mark.parametrize("d", [2, 3, 4])
def test_w_membership_matches_fiber_span(d):
    rng = Random(d)
    zero_deg = (-1,) + (0,) * (d - 1)
    members = non_members = 0
    for alpha in ((1,) + (0,) * (d - 1), (F(1, 2), F(-2, 3)) + (0,) * (d - 2)):
        # zero_deg is the degree -alpha for the first alpha
        degrees = [zero_deg, (0,) * d, (1, -2) + (1,) * (d - 2)]
        for k in range(1, d + 1):
            p = ModuleParams(d, alpha, RepHandle.exterior(d, k))
            dim = comb(d, k)
            for _ in range(30):
                n = rng.choice(degrees + [tuple(rng.randint(-2, 2) for _ in range(d))])
                basis = w_fiber_basis(d, k, alpha, n)
                v = [F(0)] * dim
                for row in basis.rows:
                    c = F(rng.randint(-3, 3), rng.randint(1, 3))
                    v = [a + c * b for a, b in zip(v, row)]
                if rng.random() < 0.5:
                    v[rng.randrange(dim)] += rng.randint(1, 2)
                expect = span_contains(basis, v)
                assert w_membership(graded(p, n, v)) == expect
                members += expect
                non_members += not expect
    assert members > 30 and non_members > 30


def _naive_w_invariance(p, k, gen_radius, box_radius):
    """The suite written out with the generic action and the fiber spans of
    the k-th exterior power."""
    d = p.d
    checks = violations = 0
    first = None
    for n in Box.radius(d, box_radius).degrees():
        for row in w_fiber_basis(d, k, p.alpha, n).rows:
            for r in Box.radius(d, gen_radius).degrees():
                for j in range(1, d + 1):
                    img = act(p, AlgElem.term(_unit(d, j), r), graded(p, n, row))
                    checks += 1
                    if not all(span_contains(w_fiber_basis(d, k, p.alpha, m), c)
                               for m, c in img.fibers.items()):
                        violations += 1
                        first = first or (n, row, r, j)
    return checks, violations, first


@pytest.mark.parametrize("d,alpha", [
    (3, (1, -1, 0)),
    (2, (1, -2)),
    (3, (1, 0, 0)),
])
def test_w_invariance_suite_matches_naive_on_violations(d, alpha):
    # under W the trivial rep (power d) is not Lambda^d: at an integral twist
    # the images that land on the empty fiber at -alpha fail
    p = ModuleParams(d, alpha, RepHandle.trivial(d))
    out = w_invariance_suite(p, gen_radius=1, box_radius=1)
    checks, violations, (n, row, r, j) = _naive_w_invariance(p, d, 1, 1)
    assert (out["checks"], out["violations"]) == (checks, violations)
    assert 0 < violations < checks
    assert out["first_violation"] == {
        "n": list(n), "row": [str(F(x)) for x in row], "r": list(r), "j": j}


def test_w_invariance_first_violation_replays():
    # W generators move a trivial-rep vector onto the empty fiber at -alpha
    p = ModuleParams(2, (1, -2), RepHandle.trivial(2))
    out = w_invariance_suite(p, gen_radius=1, box_radius=1)
    assert out["violations"] > 0
    f = out["first_violation"]
    img = act(p, AlgElem.term(_unit(2, f["j"]), f["r"]),
              graded(p, f["n"], [F(x) for x in f["row"]]))
    assert not img.is_zero() and not w_membership(img)
    clean = w_invariance_suite(ModuleParams(2, (F(1, 2), 0), RepHandle.trivial(2)))
    assert "first_violation" not in clean


# -- rank-one split --------------------------------------------------------------

def test_trivial_split_examples():
    t = RepHandle.trivial(2)
    assert trivial_split(ModuleParams(2, (F(1, 2), 0), t)) is None
    assert trivial_split(ModuleParams(2, (1, -2), t)) == (-1, 2)
    assert trivial_split(ModuleParams(2, (0, 0), t)) == (0, 0)
    with pytest.raises(ValueError):
        trivial_split(ModuleParams(2, (0, 0), RepHandle.natural(2)))


# ---------------------------------------------------------------------------
# differential check of the fiber map against the module formula
# ---------------------------------------------------------------------------


def term_map_reps():
    nat = RepHandle.natural(3)
    tensor = RepHandle.tensor([nat, RepHandle.exterior(3, 2)])
    return [
        nat,
        RepHandle.exterior(3, 2),
        RepHandle.symmetric(3, 2),
        tensor,
        RepHandle.twisted(RepHandle.exterior(3, 2), (2, 3, 1)),
    ]


def module_formula(params, u, r, n, w):
    """(u | n + alpha) w + (r u^T) w, with r u^T applied by act_matrix."""
    rep = params.rep
    mat = [[ri * uj for uj in u] for ri in r]
    rw = act_matrix(rep, mat, tuple(w))
    s = sum(ua * (na + aa) for ua, na, aa in zip(u, n, params.alpha))
    return [s * x + y for x, y in zip(w, rw)]


def integer_matrix(rep, u, r) -> bool:
    """Whether u is integral and r u^T acts on the rep by an integer matrix."""
    mat = [[ri * uj for uj in u] for ri in r]
    return all(isinstance(x, int) for x in u) and all(
        isinstance(x, int) for b in range(rep.dim)
        for x in act_matrix(rep, mat, tuple(int(t == b) for t in range(rep.dim))))


# alphas with negative entries, zero entries and mixed denominators
FIXED_ALPHAS = [
    (F(-1, 2), 0, F(2, 3)),
    (0, 0, 0),
    (F(-5, 6), F(-3, 4), F(7, 10)),
    (F(-1, 3), F(-1, 3), -2),
    (0, F(-7, 9), F(1, 6)),
]


@pytest.mark.parametrize("alpha", FIXED_ALPHAS)
def test_alpha_numerators_over_lcm(alpha):
    params = ModuleParams(3, alpha, RepHandle.natural(3))
    D = lcm(*(F(a).denominator for a in alpha))
    assert params.alpha_den == D
    assert all(type(x) is int for x in params.alpha_num)
    assert tuple(F(x, D) for x in params.alpha_num) == params.alpha
    # the derived fields take no part in equality
    assert params == ModuleParams(3, tuple(F(a) for a in alpha), params.rep)


# every pair of coordinates anticommutes: the radical is n1 = n2 = n3 mod 2,
# and sigma((1, 1, 1), e_2) = -1, so sigma is not 1 on the radical
ANTICOMMUTING = QMatrix.from_exps(2, [[0, 1, 1], [1, 0, 1], [1, 1, 0]])


@pytest.mark.parametrize("rep", term_map_reps(), ids=lambda rep: rep.kind)
def test_term_map_matches_module_formula(rep):
    """term_map pairs u with alpha's integer numerators over D; the images
    must equal the module formula, which pairs u with alpha as Fractions,
    on random alphas and on the fixed ones."""
    rng = Random(f"term-map-{rep.kind}")
    sig = cocycle(ANTICOMMUTING)
    seen = {"zero": 0, "integer": 0, "int": 0}
    for trial in range(40 + len(FIXED_ALPHAS)):
        if trial < 40:
            alpha = tuple(F(rng.randint(-5, 5), rng.randint(1, 6)) for _ in range(3))
        else:
            alpha = tuple(F(a) for a in FIXED_ALPHAS[trial - 40])
        params = ModuleParams(3, alpha, rep)
        n = tuple(rng.randint(-3, 3) for _ in range(3))
        w = [rng.randint(-3, 3) for _ in range(rep.dim)]
        if trial % 4 == 0:
            # degree 0 with u orthogonal to n + alpha: the image vanishes
            r, x = (0, 0, 0), [ni + ai for ni, ai in zip(n, alpha)]
            u = (x[1], -x[0], 0)
        else:
            r = tuple(rng.randint(-2, 2) for _ in range(3))
            if trial % 4 == 3:
                # (u | alpha) integral
                D = lcm(*(a.denominator for a in alpha))
                u = tuple(D * rng.randint(-3, 3) for _ in range(3))
            elif trial % 2:
                u = tuple(rng.randint(-3, 3) for _ in range(3))
            else:
                u = tuple(F(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(3))
        exact = module_formula(params, u, r, n, w)
        zero = not any(exact)
        seen["zero"] += zero

        got = term_map(params, u, r)(n, w)
        assert got is None if zero else got == exact
        if not zero and integer_matrix(rep, u, r):
            seen["integer"] += 1
            if F(pairing(u, alpha)).denominator == 1:
                # integer u and w with an integral (u | alpha): the images are ints
                seen["int"] += 1
                assert all(type(x) is int for x in got)

        twisted = term_map(params, u, r, sig)(n, w)
        assert twisted is None if zero else twisted == [sig(r, n) * x for x in exact]

        # a cyclotomic u, as an outer bracket with an irrational cocycle gives
        z = Cyc.zeta(3, trial % 2 + 1)
        cyc = term_map(params, tuple(z * x for x in u), r)(n, w)
        assert cyc is None if zero else cyc == [z * x for x in exact]
    assert seen["zero"]
    assert seen["int"] or not seen["integer"]


@pytest.mark.parametrize("q", [
    block_normal_q((2, 2)),
    block_normal_q((3, 3)),
    block_normal_q((2, 2, 1)),
    ANTICOMMUTING,
    # the closure-q workload's matrix, the (3, 3) block at the other root
    QMatrix.from_exps(3, [[0, -1], [1, 0]]),
], ids=["l22", "l33", "l221", "not-block-normal", "workload-n3"])
def test_term_map_drops_a_trivial_cocycle(q):
    """cocycle(q) is None when sigma is 1 on Rad_q x Z^d, as for every
    block-normal q, so the maps of the outer terms are the plain ones;
    otherwise it is sigma on every radical r and box degree n, as the int
    1 or -1 at N = 2, and a twisted map is sigma(r, n) times the plain map."""
    d = q.d
    sig = cocycle(q)
    params = ModuleParams(d, (F(1, 2), F(-1, 3)) + (0,) * (d - 2), RepHandle.natural(d))
    box = list(Box.radius(d, 2).degrees())
    radical = [r for r in box if in_rad(q, r)]
    if block_structure(q) is not None:
        assert sig is None
        assert all(sigma(q, r, n) == 1 for r in radical for n in box)
        return
    values = {sig(r, n) for r in radical for n in box}
    assert values == {1, -1} and all(type(c) is int for c in values)
    for r in radical:
        for u in (_unit(d, 1), tuple(range(1, d + 1))):
            plain, twisted = term_map(params, u, r), term_map(params, u, r, sig)
            for n in box:
                assert sig(r, n) == sigma(q, r, n)
                w = [n[0] + 2, 1 - n[-1]] + [1] * (d - 2)
                img = plain(n, w)
                assert twisted(n, w) == (None if img is None else [sig(r, n) * x for x in img])


def test_term_map_keeps_its_own_u():
    # a map built from a list u does not change when the caller reuses it
    params = ModuleParams(3, (F(1, 2), F(-2, 3), F(1, 5)), RepHandle.exterior(3, 2))
    u, r, n, w = [0, 30, -30], (2, 1, 1), (1, -1, 2), [1, -2, 3]
    apply = term_map(params, u, r)
    want = apply(n, w)
    assert want is not None
    u[1], u[2] = 7, 0
    assert apply(n, w) == want == term_map(params, (0, 30, -30), r)(n, w)


@pytest.mark.parametrize("rep", term_map_reps(), ids=lambda rep: rep.kind)
def test_closure_generators_are_D_times_act(rep):
    """Every unit and pair generator maps (n, w) to D times the fiber at
    n + r of the exact act image, D the lcm of alpha's denominators."""
    rng = Random(f"generators-{rep.kind}")
    params = ModuleParams(3, (F(1, 2), F(-2, 3), F(1, 5)), rep)
    D = params.alpha_den
    assert D == 30
    for r in Box.radius(3, 1).degrees():
        terms, gens = [_unit(3, j) for j in (1, 2, 3)], unit_generators(params, r)
        if any(r):
            terms += [u for _, _, u in pair_basis(r)]
            gens += pair_generators(params, r)
        assert len(terms) == len(gens)
        for u, gen in zip(terms, gens):
            assert gen.shift == r
            for _ in range(3):
                n = tuple(rng.randint(-2, 2) for _ in range(3))
                w = [rng.randint(-3, 3) for _ in range(rep.dim)]
                exact = act(params, AlgElem.term(u, r), graded(params, n, w)).fibers.get(
                    tuple(a + b for a, b in zip(n, r)))
                img = gen.block_apply(n, w)
                assert img is None if exact is None else img == [D * x for x in exact]


@pytest.mark.parametrize("rep", [RepHandle.natural(3), RepHandle.exterior(3, 2)],
                         ids=["natural", "exterior2"])
def test_module_suite_classical_acts_on_integers(monkeypatch, rep):
    """The suite scales its samples by the lcm of alpha's denominators, so
    every action in each module-axiom residual has int coordinates."""
    params = ModuleParams(3, (F(1, 3), F(-1, 5), 0), rep)
    true_residual = divalg.verify.module_axiom_residual
    coords = []

    def checked(params, x, y, v):
        res = true_residual(params, x, y, v)
        for part in (act(params, bracket_witt(x, y), v), act(params, x, act(params, y, v)),
                     act(params, y, act(params, x, v)), res):
            coords.extend(c for f in part.fibers.values() for c in f)
        return res

    monkeypatch.setattr(divalg.verify, "module_axiom_residual", checked)
    for algebra in ("W", "Lhat", "L"):
        assert module_suite_classical(params, algebra, 20, Random(algebra))["violations"] == 0
    assert coords and all(type(c) is int for c in coords)


# ---------------------------------------------------------------------------
# the per-row wedge certificate against the check-by-check suite
# ---------------------------------------------------------------------------


def _wedge_rep_cases():
    """Natural and exterior reps for d = 2, 3, 4 and every k < d, each at
    an integral alpha, where the generator box holds the r with
    alpha + n + r = 0 for some n, and at a non-integral one."""
    for d in (2, 3, 4):
        for k in range(1, d):
            reps = [RepHandle.exterior(d, k)] + [RepHandle.natural(d)] * (k == 1)
            for rep in reps:
                for name, alpha in (("integral", (1, -1) + (0,) * (d - 2)),
                                    ("rational", (F(1, 2), F(-2, 3)) + (0,) * (d - 2))):
                    yield pytest.param(rep, k, alpha, id=f"{rep.kind}-d{d}-k{k}-{name}")


@pytest.mark.parametrize("rep, k, alpha", _wedge_rep_cases())
def test_w_invariance_certificate_matches_naive(rep, k, alpha):
    d = rep.d
    p = ModuleParams(d, alpha, rep)
    box_radius = 1 if d < 4 else 0
    out = w_invariance_suite(p, gen_radius=1, box_radius=box_radius)
    checks, violations, first = _naive_w_invariance(p, k, 1, box_radius)
    assert (out["checks"], out["violations"], first) == (checks, 0, None)
    assert "first_violation" not in out


def test_w_invariance_falls_back_on_a_perturbed_rep():
    # E_12 e_2 = 2 e_1: no longer a representation, so wedge rows fail their
    # certificate and the check-by-check loop reports the violations
    rep = RepHandle.natural(3)
    rep._e_cache[1, 2] = ((0, 1, 2),)
    p = ModuleParams(3, (F(1, 3), F(-1, 5), 0), rep)
    out = w_invariance_suite(p, gen_radius=1, box_radius=1)
    checks, violations, (n, row, r, j) = _naive_w_invariance(p, 1, 1, 1)
    assert (out["checks"], out["violations"]) == (checks, violations)
    assert 0 < violations < checks
    assert out["first_violation"] == {
        "n": list(n), "row": [str(F(x)) for x in row], "r": list(r), "j": j}


def test_module_job_certifies_every_wedge_row(monkeypatch):
    def refuse(*args):
        raise AssertionError("the check-by-check loop ran")

    monkeypatch.setattr(divalg.verify, "in_wedge_fiber", refuse)
    report, code = run({"job": "verify-module", "algebra": "L", "d": 3,
                        "alpha": ["1/3", "-1/5", "0"], "rep": {"kind": "natural"},
                        "pairs": 20}, 1)
    assert code == 0
    assert report["details"]["suites"][-1] == {
        "name": "wedge-invariance", "checks": 5 ** 3 * 5 ** 3 * 3, "violations": 0}
