"""Acceptance suite: one test per criterion, each at its stated tolerance
(exact zero / exact dimensions throughout).

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.
"""

from fractions import Fraction
from math import comb
from random import Random

from divalg.cli import report_json, run
from divalg.closure import Box, closure
from divalg.linalg import basis_of, same_span, span_contains
from divalg.modules import ModuleParams, act, graded, trivial_split, w_fiber_basis
from divalg.qder import (QDerElem, act_q, ad_annihilation_check, bracket_qder, closure_q,
                         iso_algebra, iso_module)
from divalg.qtorus import QMatrix, block_normal_q, in_rad, rad_q, sigma
from divalg.reps import RepHandle
from divalg.verify import (
    equivariance_suite,
    lie_suite_classical,
    lie_suite_q,
    module_suite_classical,
    module_suite_q,
    qtorus_suite,
    sample_degree,
    sample_graded,
    sample_qder,
    sample_rat6,
    w_invariance_suite,
)
from divalg.witt import AlgElem, bracket_witt
from test_closure import around

F = Fraction
SEED = 20260809


def _announce(num, text):
    print(f"ACCEPTANCE {num}: {text}: PASS")


def test_criterion_01_lie_axioms():
    rng = Random(SEED)
    for d in (2, 3, 4):
        for algebra in ("W", "Lhat", "L"):
            out = lie_suite_classical(d, algebra, 200, rng, radius=3)
            assert out["violations"] == 0, (d, algebra, out)
    for l in ((2, 2), (3, 3), (2, 2, 1)):
        q = block_normal_q(l)
        for algebra in ("Der", "Lq", "Lqhat"):
            out = lie_suite_q(q, algebra, 200, rng)
            assert out["violations"] == 0, (l, algebra, out)
    _announce(1, "antisymmetry/Jacobi exact for 200 triples per algebra, "
                 "classical d=2,3,4 and q-side l=(2,2),(3,3),(2,2,1)")


def _rep_configs():
    return [
        ("natural", 2, RepHandle.natural(2), (2, 2)),
        ("exterior2", 3, RepHandle.exterior(3, 2), (2, 2, 1)),
        ("symmetric2", 2, RepHandle.symmetric(2, 2), (2, 2)),
        ("trivial", 2, RepHandle.trivial(2), (2, 2)),
    ]


def test_criterion_02_representation_property():
    rng = Random(SEED + 1)
    signs = []
    for name, d, rep, l in _rep_configs():
        alpha = (F(1, 2), F(1, 3), F(1, 5))[:d]
        params = ModuleParams(d, alpha, rep)
        for algebra, pairs in (("W", 67), ("Lhat", 67), ("L", 66)):
            out = module_suite_classical(params, algebra, pairs, rng)
            assert out["violations"] == 0, (name, algebra, out)
        q = block_normal_q(l)
        for algebra, pairs in (("Der", 67), ("Lq", 67), ("Lqhat", 66)):
            out = module_suite_q(q, params, algebra, pairs, rng)
            assert out["violations"] == 0, (name, algebra, out)
            assert out["outer_bracket_sign"] == 1
            signs.append(out["outer_bracket_sign"])
    assert set(signs) == {1}
    _announce(2, "module axiom residual exactly zero, 200 pairs per rep for "
                 "classical and q actions; outer bracket sign read from the residuals = +1")


def _omega_cases():
    return [
        (2, 1, (F(1, 2), F(0))),
        (3, 1, (F(1, 3), F(1, 5), F(0))),
        (3, 2, (F(1, 3), F(1, 5), F(0))),
    ]


def test_criterion_03_unique_submodule_nonintegral():
    for d, k, alpha in _omega_cases():
        rep = RepHandle.natural(d) if k == 1 else RepHandle.exterior(d, k)
        params = ModuleParams(d, alpha, rep)
        # (a) exact invariance of the wedge fibers under all radius-2 generators
        inv = w_invariance_suite(params, gen_radius=2, box_radius=2 if d == 2 else 1)
        assert inv["violations"] == 0, (d, k)
        # (b) closure from a wedge seed saturates onto the wedge fibers
        wseed_basis = w_fiber_basis(d, k, alpha, (0,) * d)
        seed = graded(params, (0,) * d, wseed_basis.rows[0])
        res = closure(params, [seed], 2, Box.radius(d, 3), Box.radius(d, 1), 60, "L")
        assert res.saturated and res.label.kind == "W", (d, k, res.label)
        assert all(dim == comb(d - 1, k - 1) for dim in res.fiber_dims.values())
        # (c) closure from any seed outside the wedge fibers fills everything
        out_coords = tuple(1 if t == rep.dim - 1 else 0 for t in range(rep.dim))
        assert not span_contains(wseed_basis, out_coords)
        seed2 = graded(params, (0,) * d, out_coords)
        res2 = closure(params, [seed2], 2, Box.radius(d, 3), Box.radius(d, 1), 60, "L")
        assert res2.saturated and res2.label.kind == "Full", (d, k, res2.label)
        assert all(dim == comb(d, k) for dim in res2.fiber_dims.values())
    _announce(3, "wedge submodule invariant, wedge seeds close onto C(d-1,k-1) "
                 "fibers, outside seeds fill C(d,k), for (d,k)=(2,1),(3,1),(3,2)")


def test_criterion_04_integral_alpha_wprime():
    for alpha, v in (((0, 0), (1, 0)), ((1, -2), (2, 3))):
        params = ModuleParams(2, alpha, RepHandle.natural(2))
        center = tuple(-a for a in alpha)
        seed = graded(params, center, v)
        res = closure(params, [seed], 2, around(center, 3), around(center, 1),
                      60, "L")
        assert res.saturated
        assert res.label.kind == "WPrime" and res.label.vprime_dim == 1, res.label
        assert same_span(res.fiber_bases[center], basis_of([v], 2))
        for n, b in res.fiber_bases.items():
            if n != center:
                assert same_span(b, w_fiber_basis(2, 1, alpha, n))
    _announce(4, "integral alpha: closure of v@t^{-alpha} is WPrime with the "
                 "-alpha fiber exactly span{v} and wedge fibers elsewhere")


def test_criterion_05_nonfundamental_weight_full():
    params = ModuleParams(2, (F(1, 2), F(1, 3)), RepHandle.symmetric(2, 2))
    for b in range(3):
        coords = tuple(1 if t == b else 0 for t in range(3))
        res = closure(params, [graded(params, (0, 0), coords)], 2,
                      Box.radius(2, 3), Box.radius(2, 1), 60, "L")
        assert res.saturated and res.label.kind == "Full", (b, res.label)
        assert all(dim == 3 for dim in res.fiber_dims.values())
    # Sym^2 is the non-fundamental weight here: no rep kind builds an
    # irreducible component of a tensor product, such as V(w1 + w2) in
    # Lambda^2 C^3 (x) C^3
    _announce(5, "symmetric square (highest weight 2w1): every basis seed "
                 "saturates to full dim-3 fibers")


def test_criterion_06_rank_one_split():
    rng = Random(SEED + 2)
    t = RepHandle.trivial(2)
    for _ in range(5):
        alpha = (F(rng.randint(-3, 3), rng.choice((2, 3, 5))), F(rng.randint(-3, 3)))
        while alpha[0].denominator == 1:
            alpha = (F(rng.randint(-3, 3), rng.choice((2, 3, 5))), alpha[1])
        assert trivial_split(ModuleParams(2, alpha, t)) is None
    for _ in range(5):
        alpha = (rng.randint(-3, 3), rng.randint(-3, 3))
        assert trivial_split(ModuleParams(2, alpha, t)) == tuple(-a for a in alpha)
    # closure from t^n with alpha + n != 0 never reaches the -alpha line
    for alpha in ((1, -2), (0, 0)):
        params = ModuleParams(2, alpha, t)
        center = tuple(-a for a in alpha)
        n0 = (center[0] + 1, center[1])  # alpha + n0 = e1 != 0
        res = closure(params, [graded(params, n0, (1,))], 2,
                      around(center, 3), around(center, 1), 60, "L")
        assert res.saturated
        assert res.fiber_dims[center] == 0
        assert all(dim == 1 for n, dim in res.fiber_dims.items() if n != center)
    _announce(6, "rank-one module: irreducible for 5 non-integral alpha, split "
                 "for 5 integral alpha, -alpha fiber never reached from outside")


def test_criterion_07_quantum_torus_identities():
    rng = Random(SEED + 3)
    qs = [block_normal_q((2, 2)), block_normal_q((3, 3)),
          QMatrix.from_exps(3, [[0, -1], [1, 0]])]
    for q in qs:
        out = qtorus_suite(q, 500, rng)
        assert out["violations"] == 0, out
    for l in ((2, 2), (3, 3), (2, 2, 1), (6, 6)):
        assert rad_q(block_normal_q(l)) == [[li if i == j else 0 for j in range(len(l))]
                                            for i, li in enumerate(l)], l
    _announce(7, "cocycle identities and associativity exact on 500 triples per "
                 "q; rad_q(block_normal_q(l)) = diag(l) for all four l")


def test_criterion_08_block_normal_decomposition():
    rng = Random(SEED + 4)
    q = block_normal_q((2, 2))
    params = ModuleParams(2, (F(1, 2), F(1, 3)), RepHandle.natural(2))
    assert ad_annihilation_check(q, params)                           # (a)
    eq = equivariance_suite(q, params, 100, rng)                      # (b)
    assert eq["checks"] >= 100 * 3 // 4 and eq["violations"] == 0
    for cls in ((1, 0), (0, 1), (1, 1)):                              # (c)
        seed = graded(params, cls, (1, 0))
        res = closure_q(q, params, [seed], 2, Box.radius(2, 3),
                        Box.radius(2, 1), 60, "Lq")
        assert res.saturated and res.label.kind == "GqFull"
        for n, dim in res.fiber_dims.items():
            assert dim == (0 if in_rad(q, n) else 2)
    seed0 = graded(params, (0, 0), (1, 0))                            # (d)
    res0 = closure_q(q, params, [seed0], 2, Box.radius(2, 3),
                     Box.radius(2, 1), 60, "Lq")
    assert res0.saturated and res0.label.kind == "Class0"
    _announce(8, "block-normal l=(2,2): inner terms kill class 0, isomorphisms "
                 "intertwine on 100 samples, nonzero-class seeds fill the "
                 "off-radical fibers, class-0 seeds stay confined")


def degeneration_suite(d, count, rng, radius=2):
    """With the trivial commutation matrix every q-side operation collapses
    to its classical counterpart, exactly."""
    q = block_normal_q((1,) * d)
    alpha = tuple(F(sample_rat6(rng), 6) for _ in range(d))
    params = ModuleParams(d, alpha, RepHandle.natural(d))
    violations = 0
    checks = 0
    for _ in range(count):
        x = sample_qder(rng, q, "Lqhat", radius)
        y = sample_qder(rng, q, "Lqhat", radius)
        assert not x.inner and not y.inner  # no inner degrees exist at l = 1
        checks += 1
        if bracket_qder(q, x, y).outer != bracket_witt(x.outer, y.outer):
            violations += 1
        v = sample_graded(rng, params, radius)
        checks += 1
        if act_q(q, x, v) != act(params, x.outer, v):
            violations += 1
        m = sample_degree(rng, d, radius)
        n = sample_degree(rng, d, radius)
        checks += 1
        if sigma(q, m, n) != 1:
            violations += 1
        if x.outer.terms:
            r0, u0 = next(iter(x.outer.terms.items()))
            checks += 1
            if iso_algebra(q, QDerElem.douter(u0, r0)) != AlgElem.term(u0, r0):
                violations += 1
            checks += 1
            if iso_module(q, (0,) * d, v).fibers != v.fibers:
                violations += 1
    identity = [[1 if i == j else 0 for j in range(d)] for i in range(d)]
    checks += 1
    if rad_q(q) != identity:
        violations += 1
    return checks, violations


def test_criterion_09_degeneration():
    checks, violations = degeneration_suite(2, 100, Random(SEED + 5))
    assert violations == 0 and checks >= 300
    # matched closure runs: trivial q vs classical, identical reports
    ones = block_normal_q((1, 1))
    alpha = (F(1, 2), F(1, 3))
    rep = RepHandle.natural(2)
    params = ModuleParams(2, alpha, rep)
    res_c = closure(params, [graded(params, (0, 0), (0, 1))], 2,
                    Box.radius(2, 2), Box.radius(2, 1), 60, "L")
    res_q = closure_q(ones, params, [graded(params, (0, 0), (0, 1))],
                      2, Box.radius(2, 2), Box.radius(2, 1), 60, "Lq")
    assert res_c.fiber_dims == res_q.fiber_dims
    assert all(same_span(res_c.fiber_bases[n], res_q.fiber_bases[n])
               for n in res_c.fiber_bases)
    _announce(9, "l=(1,...,1): q-side operations equal classical counterparts "
                 "exactly on 100 matched inputs, including a matched closure run")


def test_criterion_10_deterministic_reports():
    closure_cfg = {
        "job": "closure", "algebra": "Lq", "d": 2,
        "alpha": ["1/2", "1/3"], "rep": {"kind": "natural"}, "q": {"l": [2, 2]},
        "seeds": [{"n": [1, 0], "coords": ["1", "0"]}],
        "gen_radius": 2, "working_box": 3, "target_box": 1, "max_iters": 60,
    }
    verify_cfg = {
        "job": "verify-module", "algebra": "Lq", "d": 2,
        "alpha": ["1/2", "1/3"], "rep": {"kind": "natural"}, "q": {"l": [2, 2]},
        "pairs": 60,
    }
    for cfg in (closure_cfg, verify_cfg):
        r1, c1 = run(dict(cfg), 11)
        r2, c2 = run(dict(cfg), 11)
        assert c1 == c2 == 0
        assert report_json(r1) == report_json(r2)
    _announce(10, "reports byte-identical across reruns at a fixed seed")
