"""The saturation engine: spec'd closure runs, classification, determinism,
the refusal of seeds on several degrees, the pair basis, and differential
checks against a naive dense fixed point and plain elimination."""

import types
from fractions import Fraction
from itertools import combinations, product
from random import Random

import pytest

import divalg

import divalg.closure as closure_mod
import divalg.qder as qder_mod
from divalg.cli import run
from divalg.closure import (Box, ClosureResult, Label, Neighbours, Shape, SpanState,
                            _annihilate, classical_generators, classify, closure, pair_basis,
                            pair_generators)
from divalg.linalg import _reduce_into, basis_of, same_span, span_contains
from divalg.modules import (GradedVec, ModuleParams, _wedge_power, act, graded, w_fiber_basis,
                            w_membership)
from divalg.qder import QDerElem, act_q, class_of, classify_q, closure_q, qder_generators
from divalg.qtorus import QMatrix, block_normal_q, block_structure, in_rad
from divalg.reps import RepHandle
from divalg.witt import ALGEBRAS, AlgElem, pair_term
from test_linalg import awkward_vector, gauss_jordan

F = Fraction


def around(center, r):
    """The box of radius r around a degree."""
    return Box(tuple(c - r for c in center), tuple(c + r for c in center))


def boxes(d, work=3, tgt=1):
    return Box.radius(d, work), Box.radius(d, tgt)


def test_box_basics():
    b = Box.radius(2, 1)
    assert b.contains((1, -1)) and not b.contains((2, 0))
    assert len(list(b.degrees())) == 9
    assert Box.radius(2, 3).contains_box(b)
    with pytest.raises(ValueError):
        Box((1, 0), (0, 0))


@pytest.mark.parametrize("a, b", [
    (Box.radius(2, 1), Box((-1, -1), (1, 1))),
    (Label("W"), Label("W", None)),
    (Label.parse("WPrime(1)", [Shape("WPrime", None, counted=True)]), Label("WPrime", 1)),
])
def test_closure_values_compare_and_hash_alike(a, b):
    assert a is not b and a == b and hash(a) == hash(b)


@pytest.mark.parametrize("a, b", [
    (Box.radius(2, 1), Box.radius(2, 2)),
    (Label("W"), Label("Full")),
    (Label("WPrime", 1), Label("WPrime", 2)),
])
def test_closure_values_differ(a, b):
    assert a != b


@pytest.mark.parametrize("value, name", [
    pytest.param(value, name, id=f"{type(value).__name__}.{name}") for value, names in [
        (Box.radius(2, 1), ("lo", "hi")),
        (Label("WPrime", 1), ("kind", "vprime_dim")),
        (ClosureResult(Box.radius(2, 0), {}, {}, None, 0, False),
         ("target_box", "fiber_bases", "fiber_dims", "label", "iterations", "saturated")),
    ] for name in names])
def test_closure_values_are_immutable(value, name):
    with pytest.raises(AttributeError):
        setattr(value, name, getattr(value, name))


@pytest.mark.parametrize("lo, hi, message", [
    ((0, 0), (1,), "box corner dimension mismatch"),
    ((1, 0), (0, 0), "empty box"),
])
def test_box_refusals_keep_their_messages(lo, hi, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        Box(lo, hi)


def test_closure_w_seed_natural():
    p = ModuleParams(2, (F(1, 2), 0), RepHandle.natural(2))
    work, tgt = boxes(2)
    res = closure(p, [graded(p, (0, 0), (F(1, 2), 0))], 2, work, tgt, 50, "L")
    assert res.saturated
    assert res.label.kind == "W"
    assert set(res.fiber_dims.values()) == {1}
    # every target fiber is exactly the wedge fiber
    for n, b in res.fiber_bases.items():
        assert same_span(b, w_fiber_basis(2, 1, p.alpha, n))


def test_closure_full_from_outside_w():
    p = ModuleParams(2, (F(1, 2), 0), RepHandle.natural(2))
    work, tgt = boxes(2)
    res = closure(p, [graded(p, (0, 0), (0, 1))], 2, work, tgt, 50, "L")
    assert res.label.kind == "Full"
    assert set(res.fiber_dims.values()) == {2}


def test_closure_symmetric_square_full():
    p = ModuleParams(2, (F(1, 2), F(1, 3)), RepHandle.symmetric(2, 2))
    work, tgt = boxes(2)
    for b in range(3):
        seed_coords = tuple(1 if t == b else 0 for t in range(3))
        res = closure(p, [graded(p, (0, 0), seed_coords)], 2, work, tgt, 50, "L")
        assert res.label.kind == "Full"
        assert set(res.fiber_dims.values()) == {3}


def test_closure_wprime_integral_alpha():
    p = ModuleParams(2, (0, 0), RepHandle.natural(2))
    work, tgt = boxes(2)
    res = closure(p, [graded(p, (0, 0), (1, 0))], 2, work, tgt, 50, "L")
    assert res.label.kind == "WPrime" and res.label.vprime_dim == 1
    assert res.fiber_bases[(0, 0)].rows == ((1, 0),)


def test_closure_wprime_offcenter_alpha():
    alpha = (1, -2)
    p = ModuleParams(2, alpha, RepHandle.natural(2))
    center = (-1, 2)
    work = around(center, 3)
    tgt = around(center, 1)
    res = closure(p, [graded(p, center, (1, 1))], 2, work, tgt, 50, "L")
    assert res.label.kind == "WPrime" and res.label.vprime_dim == 1
    assert res.fiber_bases[center].rows == ((1, 1),)


def test_closure_monotone_and_deterministic():
    p = ModuleParams(2, (F(1, 2), 0), RepHandle.natural(2))
    work, tgt = boxes(2)
    seed = graded(p, (0, 0), (0, 1))
    r1 = closure(p, [seed], 2, work, tgt, 50, "L")
    r2 = closure(p, [seed], 2, work, tgt, 50, "L")
    assert r1.fiber_bases == r2.fiber_bases
    assert r1.iterations == r2.iterations
    # truncated run is a subspace of the saturated one
    r3 = closure(p, [seed], 2, work, tgt, 1, "L")
    assert not r3.saturated
    for n in r3.fiber_dims:
        assert r3.fiber_dims[n] <= r1.fiber_dims[n]
    with pytest.raises(ValueError):
        classify(r3, p)


def test_closure_algebra_variants():
    p = ModuleParams(2, (F(1, 2), 0), RepHandle.natural(2))
    work, tgt = boxes(2)
    seed = graded(p, (0, 0), (F(1, 2), 0))
    for algebra in ("L", "Lhat", "W"):
        res = closure(p, [seed], 2, work, tgt, 50, algebra)
        assert res.saturated
        assert res.label.kind == "W", algebra  # W is invariant under all three


def test_closure_input_validation():
    p = ModuleParams(2, (0, 0), RepHandle.natural(2))
    work, tgt = boxes(2)
    with pytest.raises(ValueError):
        closure(p, [], 2, work, tgt, 50, "L")
    with pytest.raises(ValueError):
        closure(p, [GradedVec(p, {})], 2, work, tgt, 50, "L")
    with pytest.raises(ValueError):
        closure(p, [graded(p, (5, 5), (1, 0))], 2, work, tgt, 50, "L")
    with pytest.raises(ValueError):
        closure(p, [graded(p, (0, 0), (1, 0))], 2, tgt, work, 50, "L")  # target > working
    with pytest.raises(ValueError):
        closure(p, [graded(p, (0, 0), (1, 0))], 2, work, tgt, 50, "nope")


def test_package_attribute_closure_is_the_submodule():
    # the package does not shadow its submodule with the driver function
    assert isinstance(divalg.closure, types.ModuleType)
    assert divalg.closure.closure is closure


def _no_generators(*args):
    raise AssertionError("a generator was built")


def test_closure_refuses_a_nongraded_seed(monkeypatch):
    # seed = e2 x t^0 + e1 x t^(1,0) lies on two degrees; both drivers refuse
    # it before building a generator
    monkeypatch.setattr(closure_mod, "classical_generators", _no_generators)
    monkeypatch.setattr(qder_mod, "qder_generators", _no_generators)
    p = ModuleParams(2, (F(1, 2), F(1, 7)), RepHandle.natural(2))
    work, tgt = boxes(2, work=2, tgt=1)
    seed = GradedVec(p, {(0, 0): (0, 1), (1, 0): (1, 0)})
    with pytest.raises(ValueError, match="seed on 2 degrees"):
        closure(p, [graded(p, (0, 0), (1, 0)), seed], 1, work, tgt, 60, "L")
    with pytest.raises(ValueError, match="seed on 2 degrees"):
        closure_q(block_normal_q((2, 2)), p, [seed], 1, work, tgt, 60, "Lq")


# ---------------------------------------------------------------------------
# the pair basis of a degree component
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("d", [3, 4])
def test_pair_basis_spans_every_pair_term(d):
    for r in Box.radius(d, 2).degrees():
        if not any(r):
            continue
        kept = pair_basis(r)
        assert len(kept) == d - 1
        assert [(i, j) for i, j, _ in kept] == sorted((i, j) for i, j, _ in kept)
        span = basis_of([u for _, _, u in kept], d)
        assert span.rank == d - 1
        for i, j in combinations(range(1, d + 1), 2):
            assert span_contains(span, pair_term(r, i, j))


def greedy_pair_basis(r):
    """The greedy pass over the pair terms in i < j order, keeping each term
    independent of those kept before it."""
    echelon: dict = {}
    out = []
    for i in range(1, len(r) + 1):
        for j in range(i + 1, len(r) + 1):
            u = pair_term(r, i, j)
            if any(u) and _reduce_into(echelon, list(u)) is not None:
                out.append((i, j, u))
    return out


def test_pair_basis_is_the_greedy_basis():
    # every nonzero degree of the radius-3 box for d = 1..4 and of the
    # radius-2 box at d = 5: 5,920 degrees
    checked = 0
    for d, radius in ((1, 3), (2, 3), (3, 3), (4, 3), (5, 2)):
        for r in Box.radius(d, radius).degrees():
            if any(r):
                assert pair_basis(r) == greedy_pair_basis(r), r
                checked += 1
    assert checked == 5920
    assert pair_basis((0, 0, 0)) == greedy_pair_basis((0, 0, 0)) == []


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_pair_generators_apply_D_times_the_pair_basis(d, monkeypatch):
    # the vectors pair_generators writes from its closed form are D times
    # those of pair_basis, in its order, at every nonzero degree of the
    # radius-3 box
    p = ModuleParams(d, (F(1, 2), F(-1, 3), F(1, 5), 0, F(2, 7))[:d], RepHandle.natural(d))
    D = p.alpha_den
    built = []
    monkeypatch.setattr(closure_mod, "term_map", lambda params, u, r: built.append((list(u), r)))
    checked = 0
    for r in Box.radius(d, 3).degrees():
        if any(r):
            built.clear()
            gens = pair_generators(p, r)
            assert [g.shift for g in gens] == [r] * (d - 1)
            assert built == [([D * x for x in u], r) for _, _, u in pair_basis(r)], r
            checked += 1
    assert checked == 7 ** d - 1


def test_classical_generator_count_d3():
    p = ModuleParams(3, (F(1, 3), F(1, 5), 0), RepHandle.natural(3))
    assert len(classical_generators(p, 2, "L")) == 248  # 2 per nonzero degree of 5^3
    # the degree derivations act on each fiber by a scalar and are left out
    assert len(classical_generators(p, 2, "Lhat")) == 248


# ---------------------------------------------------------------------------
# differential check: the engine against a naive dense fixed point
# ---------------------------------------------------------------------------


def naive_closure(working, target, dim, seed_fibers, family, max_iters):
    """Fiber bases, rounds and saturation of the plain fixed point
    S_{j+1} = S_j + sum_g g(S_j) on flattened vectors over the working box.

    Every round applies every (shift, apply) of ``family`` to every RREF row
    of S_j whose support stays inside the box after the shift, and takes
    ``basis_of`` of the lot; there is no worklist and no skipping.
    """
    degs = sorted(working.degrees())
    pos = {n: k for k, n in enumerate(degs)}
    width = len(degs) * dim

    def flat(fibers):
        v = [0] * width
        for n, coords in fibers.items():
            v[pos[n] * dim:(pos[n] + 1) * dim] = coords
        return v

    def unflat(v):
        blocks = {n: tuple(v[k * dim:(k + 1) * dim]) for k, n in enumerate(degs)}
        return {n: c for n, c in blocks.items() if any(c)}

    span = basis_of([flat(f) for f in seed_fibers], width)
    rounds, grew = 0, span.rank > 0
    while grew and rounds < max_iters:
        rounds += 1
        images = []
        for row in span.rows:
            fibers = unflat(row)
            for shift, apply in family:
                if all(working.contains(tuple(a + b for a, b in zip(n, shift))) for n in fibers):
                    images.append(flat(apply(fibers)))
        new = basis_of(list(span.rows) + images, width)
        grew = new.rank > span.rank
        span = new

    def fiber(n):
        # eliminate with the degree-n columns last: rows led there live only there
        lo = pos[n] * dim
        order = [c for c in range(width) if not lo <= c < lo + dim] + list(range(lo, lo + dim))
        b = basis_of([[row[c] for c in order] for row in span.rows], width)
        return basis_of([r[-dim:] for r, p in zip(b.rows, b.pivot_cols) if p >= width - dim], dim)

    return {n: fiber(n) for n in target.degrees()}, rounds, not grew


def unit(d, i):
    return tuple(1 if t == i else 0 for t in range(d))


def classical_family(p, gen_radius, algebra):
    """Every pair term at every nonzero degree (L, Lhat), the degree
    derivations (Lhat), or every D(e_j, r) (W), applied through ``act``."""
    d = p.d
    family = []
    for r in Box.radius(d, gen_radius).degrees():
        if algebra == "W":
            us = [unit(d, j) for j in range(d)]
        elif not any(r):
            us = [unit(d, j) for j in range(d)] if algebra == "Lhat" else []
        else:
            us = [pair_term(r, i, j) for i, j in combinations(range(1, d + 1), 2)]
        for u in us:
            x = AlgElem.term(u, r)
            family.append((r, lambda fib, x=x: act(p, x, GradedVec(p, fib)).fibers))
    return family


def assert_same_closure(res, ref, label):
    bases, rounds, saturated = ref
    assert res.iterations == rounds
    assert res.saturated == saturated
    assert set(res.fiber_bases) == set(bases)
    for n, b in bases.items():
        assert res.fiber_bases[n].rank == b.rank and same_span(res.fiber_bases[n], b), n
    assert res.label == label


NAT2 = RepHandle.natural(2)
SYM2 = RepHandle.symmetric(2, 2)
NONINT = (F(1, 2), F(1, 3))


@pytest.mark.parametrize("algebra, rep, alpha, fibers, gen_radius, max_iters", [
    ("L", NAT2, (F(1, 2), 0), {(0, 0): (F(1, 2), 0)}, 2, 50),  # W
    ("L", NAT2, (F(1, 2), 0), {(0, 0): (0, 1)}, 2, 50),  # Full
    ("L", NAT2, (F(1, 2), 0), {(0, 0): (0, 1)}, 2, 1),  # cut before the fixed point
    ("L", NAT2, (0, 0), {(0, 0): (1, 0)}, 2, 50),  # WPrime(1)
    ("Lhat", NAT2, NONINT, {(1, 0): (1, 0)}, 1, 50),
    ("Lhat", NAT2, (F(1, 2), 0), {(0, 0): (F(1, 2), 0)}, 1, 2),
    ("Lhat", SYM2, (0, 0), {(0, 0): (1, 0, 0)}, 1, 50),
    ("W", NAT2, (F(1, 2), 0), {(0, 0): (0, 1)}, 1, 50),
    ("W", SYM2, (0, 0), {(0, 0): (0, 1, 0)}, 1, 50),
    ("L", SYM2, NONINT, {(0, 0): (0, 1, 0)}, 1, 50),
    ("L", SYM2, (0, 0), {(1, -1): (1, 0, 0)}, 1, 50),
    # the components of the two-degree seed of test_closure_refuses_a_nongraded_seed
    ("L", NAT2, (F(1, 2), F(1, 7)), {(0, 0): (0, 1)}, 2, 60),
    ("L", NAT2, (F(1, 2), F(1, 7)), {(1, 0): (1, 0)}, 1, 60),
    # inside W, on the edge of the working box
    ("L", NAT2, (F(1, 2), 0), {(2, 0): (F(5, 2), 0)}, 1, 60),
])
def test_engine_matches_naive_fixed_point(algebra, rep, alpha, fibers, gen_radius, max_iters):
    p = ModuleParams(2, alpha, rep)
    work, tgt = boxes(2, work=2, tgt=1)
    res = closure(p, [GradedVec(p, fibers)], gen_radius, work, tgt, max_iters, algebra)
    ref = naive_closure(work, tgt, rep.dim, [fibers],
                        classical_family(p, gen_radius, algebra), max_iters)
    label = None
    if ref[2]:
        label = classify(ClosureResult(tgt, ref[0], {}, None, ref[1], True), p)
    assert_same_closure(res, ref, label)


@pytest.mark.parametrize("coords, max_iters", [
    ((0, 0, 1), 50),  # Full
    ((5, 3, 0), 50),  # the wedge line through alpha: W
    ((0, 0, 1), 1),
])
def test_engine_matches_naive_fixed_point_d3(coords, max_iters):
    # at d = 3 the pair basis leaves one of the three pair terms out of
    # every degree component; the reference keeps all three
    p = ModuleParams(3, (F(1, 3), F(1, 5), 0), RepHandle.natural(3))
    work, tgt = boxes(3, work=1, tgt=1)
    fibers = {(0, 0, 0): coords}
    res = closure(p, [GradedVec(p, fibers)], 1, work, tgt, max_iters, "L")
    ref = naive_closure(work, tgt, 3, [fibers], classical_family(p, 1, "L"), max_iters)
    label = None
    if ref[2]:
        label = classify(ClosureResult(tgt, ref[0], {}, None, ref[1], True), p)
    assert_same_closure(res, ref, label)


def q_family(q, params, gen_radius, algebra):
    """Every ad t^m off the radical, every pair term at every nonzero radical
    degree and, for Lqhat, the degree derivations, applied through
    ``act_q``; the q of these tests have N = 2, where every root of unity
    is the int +-1, so the images are rational rows for ``basis_of``."""
    d = q.d
    family = []
    for m in Box.radius(d, gen_radius).degrees():
        if not any(m):
            xs = [QDerElem.douter(unit(d, j), m) for j in range(d)] if algebra == "Lqhat" else []
        elif in_rad(q, m):
            xs = [QDerElem.douter(pair_term(m, i, j), m)
                  for i, j in combinations(range(1, d + 1), 2)]
        else:
            xs = [QDerElem.ad(m)]
        for x in xs:
            family.append((m, lambda fib, x=x: act_q(q, x, GradedVec(params, fib)).fibers))
    return family


@pytest.mark.parametrize("algebra, n, coords", [
    ("Lq", (1, 0), (1, 0)),
    ("Lq", (0, 0), (0, 1)),
    ("Lqhat", (1, 1), (1, 1)),
])
def test_q_engine_matches_naive_fixed_point(algebra, n, coords, q_engine):
    # the engine gives the reference's rounds too; closure_q gives all the
    # rest, whether it takes the off-radical route or the engine
    q = block_normal_q((2, 2))
    params = ModuleParams(2, (F(1, 5), F(1, 7)), NAT2)
    work, tgt = boxes(2, work=2, tgt=1)
    args = (q, params, [graded(params, n, coords)], 2, work, tgt, 50, algebra)
    res = q_engine(*args)
    ref = naive_closure(work, tgt, 2, [{n: coords}], q_family(q, params, 2, algebra), 50)
    label = classify_q(ClosureResult(tgt, ref[0], {}, None, ref[1], True), q, params)
    assert_same_closure(res, ref, label)
    assert closure_q(*args)._replace(iterations=res.iterations) == res


ANTICOMMUTING = QMatrix.from_exps(2, [[0, 1, 1], [1, 0, 1], [1, 1, 0]])
ANTI_PARAMS = ModuleParams(3, (F(1, 2), F(1, 3), 0), RepHandle.natural(3))


@pytest.mark.parametrize("n, coords", [
    ((1, 0, 0), (1, 0, 0)),
    ((1, 0, 1), (1, 2, 3)),
    ((0, 1, 1), (0, 1, 0)),
    ((0, 0, 0), (1, 1, 0)),
])
def test_q_engine_matches_naive_fixed_point_sigma_twisted(n, coords, q_engine):
    # sigma(r, n) = (-1)^(n_2) at every radical degree r of radius 1, so the
    # twisted outer generators scale fibers differently; the engine applies
    # the plain maps, and act_q the twisted ones
    work, tgt = boxes(3, work=1, tgt=1)
    args = (ANTICOMMUTING, ANTI_PARAMS, [graded(ANTI_PARAMS, n, coords)], 1, work, tgt, 50, "Lq")
    res = q_engine(*args)
    assert closure_q(*args)._replace(iterations=res.iterations) == res
    ref = naive_closure(work, tgt, 3, [{n: coords}],
                        q_family(ANTICOMMUTING, ANTI_PARAMS, 1, "Lq"), 50)
    label = classify_q(ClosureResult(tgt, ref[0], {}, None, ref[1], True),
                       ANTICOMMUTING, ANTI_PARAMS)
    assert_same_closure(res, ref, label)


# ---------------------------------------------------------------------------
# the shape-table matcher against the hand-written classifiers it replaced
# ---------------------------------------------------------------------------


def ref_classify(result, params):
    """The classical classifier as written by hand: Full, W, WPrime, Other."""
    if not result.saturated:
        raise ValueError("cannot classify an unsaturated closure")
    dim = params.rep.dim
    if all(b.rank == dim for b in result.fiber_bases.values()):
        return Label("Full")
    k = _wedge_power(params.rep)
    if k is None:
        return Label("Other")
    w_bases = {n: w_fiber_basis(params.d, k, params.alpha, n) for n in result.fiber_bases}
    if all(same_span(result.fiber_bases[n], w_bases[n]) for n in w_bases):
        return Label("W")
    if params.alpha_integral():
        neg_alpha = tuple(-int(a) for a in params.alpha)
        if result.target_box.contains(neg_alpha):
            others_ok = all(same_span(result.fiber_bases[n], w_bases[n])
                            for n in w_bases if n != neg_alpha)
            extra = result.fiber_bases[neg_alpha].rank
            if others_ok and extra > 0:
                return Label("WPrime", extra)
    return Label("Other")


def ref_classify_q(result, q, params):
    """The q classifier as written by hand: Full, GqFull, Class0 through the
    congruence class of each degree, Other."""
    if not result.saturated:
        raise ValueError("cannot classify an unsaturated closure")
    dim = params.rep.dim
    dims_rad = {n: b.rank for n, b in result.fiber_bases.items() if in_rad(q, n)}
    dims_off = {n: b.rank for n, b in result.fiber_bases.items() if not in_rad(q, n)}
    if all(r == dim for r in dims_rad.values()) and all(r == dim for r in dims_off.values()):
        return Label("Full")
    if all(r == 0 for r in dims_rad.values()) and all(r == dim for r in dims_off.values()):
        return Label("GqFull")
    l = block_structure(q)
    if l is not None:
        zero = (0,) * q.d
        if all(b.rank == 0 for n, b in result.fiber_bases.items()
               if class_of(l, n) != zero) and any(r for r in dims_rad.values()):
            return Label("Class0")
    return Label("Other")


def identity(dim):
    return [[int(a == b) for b in range(dim)] for a in range(dim)]


def synthetic_fibers(rng, params, target, region):
    """Saturated fiber assignments over the target box: each degree gets the
    zero fiber, the full fiber, the W fiber (for a rep with one) or a random
    proper subspace.  Every pair of kinds is laid on the two sides of
    ``region`` (the radical, or -alpha), alone and with one degree changed,
    and some assignments are random throughout."""
    dim, k = params.rep.dim, _wedge_power(params.rep)
    kinds = ["zero", "full"] + ["w"] * (k is not None) + ["proper"] * (dim > 1)

    def fiber(kind, n):
        if kind == "w":
            return w_fiber_basis(params.d, k, params.alpha, n)
        if kind == "zero":
            return basis_of([], dim)
        if kind == "full":
            return basis_of(identity(dim), dim)
        while True:  # a nonzero proper subspace
            b = basis_of([[rng.randint(-2, 2) for _ in range(dim)]
                          for _ in range(rng.randrange(1, dim))], dim)
            if b.rank:
                return b

    degrees = sorted(target.degrees())
    for inside, outside in product(kinds, repeat=2):
        for changed in (None, rng.choice(degrees), rng.choice(degrees)):
            yield {n: fiber(rng.choice(kinds) if n == changed
                            else inside if region(n) else outside, n) for n in degrees}
    for _ in range(10):
        yield {n: fiber(rng.choice(kinds), n) for n in degrees}


EXT = RepHandle.exterior
CLASSICAL_MATCH_CASES = {
    # name: (params, target box, the label kinds the assignments must reach)
    "d2-natural-nonintegral": (ModuleParams(2, NONINT, NAT2), Box.radius(2, 1),
                               {"Full", "W", "Other"}),
    "d2-natural-integral-in": (ModuleParams(2, (1, -2), NAT2), around((-1, 2), 1),
                               {"Full", "W", "WPrime", "Other"}),
    "d2-natural-integral-out": (ModuleParams(2, (1, -2), NAT2), Box.radius(2, 1),
                                {"Full", "W", "Other"}),
    # on a rep of dim 1 the W fiber off -alpha is the whole fiber, so no
    # closure is WPrime: Full comes first
    "d2-exterior2-integral-in": (ModuleParams(2, (0, 0), EXT(2, 2)), Box.radius(2, 1),
                                 {"Full", "W", "Other"}),
    "d2-trivial-integral-in": (ModuleParams(2, (0, 1), RepHandle.trivial(2)),
                               Box.radius(2, 1), {"Full", "W", "Other"}),
    "d2-symmetric": (ModuleParams(2, (F(1, 2), 0), SYM2), Box.radius(2, 1),
                     {"Full", "Other"}),
    "d3-natural-integral-in": (ModuleParams(3, (1, 0, -1), RepHandle.natural(3)),
                               Box.radius(3, 1), {"Full", "W", "WPrime", "Other"}),
    "d3-natural-integral-out": (ModuleParams(3, (1, 0, -1), RepHandle.natural(3)),
                                Box((0, 0, 0), (1, 1, 1)), {"Full", "W", "Other"}),
    "d3-exterior2-nonintegral": (ModuleParams(3, (F(1, 2), F(1, 3), F(1, 5)), EXT(3, 2)),
                                 Box.radius(3, 1), {"Full", "W", "Other"}),
    "d3-exterior2-integral-in": (ModuleParams(3, (0, 0, 0), EXT(3, 2)), Box.radius(3, 1),
                                 {"Full", "W", "WPrime", "Other"}),
    "d3-trivial-integral-in": (ModuleParams(3, (0, 0, 0), RepHandle.trivial(3)),
                               Box.radius(3, 1), {"Full", "W", "Other"}),
    "d3-symmetric": (ModuleParams(3, (0, 0, 0), RepHandle.symmetric(3, 2)), Box.radius(3, 1),
                     {"Full", "Other"}),
}


@pytest.mark.parametrize("name", list(CLASSICAL_MATCH_CASES))
def test_classify_matches_the_hand_written_classifier(name):
    params, target, kinds = CLASSICAL_MATCH_CASES[name]
    neg_alpha = tuple(-a for a in params.alpha)
    seen = set()
    for fibers in synthetic_fibers(Random(name), params, target, lambda n: n == neg_alpha):
        result = ClosureResult(target, fibers, {}, None, 1, True)
        ref = ref_classify(result, params)
        label = classify(result, params)
        assert (label.kind, label.vprime_dim) == (ref.kind, ref.vprime_dim), fibers
        seen.add(ref.kind)
    assert seen == kinds


Q22, Q331 = block_normal_q((2, 2)), block_normal_q((3, 3, 1))
Q_MATCH_CASES = {
    # name: (q, params, target box, the label kinds the assignments must reach)
    "l22-natural": (Q22, ModuleParams(2, NONINT, NAT2), Box.radius(2, 1),
                    {"Full", "GqFull", "Class0", "Other"}),
    "l22-natural-no-radical": (Q22, ModuleParams(2, NONINT, NAT2), Box((1, 1), (1, 1)),
                               {"Full", "Other"}),
    "l22-natural-radical-only": (Q22, ModuleParams(2, NONINT, NAT2), Box((0, 0), (0, 0)),
                                 {"Full", "GqFull", "Class0"}),
    "l22-exterior2": (Q22, ModuleParams(2, NONINT, EXT(2, 2)), Box.radius(2, 1),
                      {"Full", "GqFull", "Class0", "Other"}),
    "l331-natural": (Q331, ModuleParams(3, (F(1, 2), F(1, 3), F(1, 5)), RepHandle.natural(3)),
                     Box.radius(3, 1), {"Full", "GqFull", "Class0", "Other"}),
    "l331-exterior2-no-radical": (Q331, ModuleParams(3, (F(1, 2), F(1, 3), 0), EXT(3, 2)),
                                  Box((1, 1, 0), (2, 2, 1)), {"Full", "Other"}),
    "anticommuting-natural": (ANTICOMMUTING, ANTI_PARAMS, Box.radius(3, 1),
                              {"Full", "GqFull", "Other"}),
    "anticommuting-no-radical": (ANTICOMMUTING, ANTI_PARAMS, Box((1, 0, 0), (1, 0, 0)),
                                 {"Full", "Other"}),
}


@pytest.mark.parametrize("name", list(Q_MATCH_CASES))
def test_classify_q_matches_the_hand_written_classifier(name):
    q, params, target, kinds = Q_MATCH_CASES[name]
    seen = set()
    for fibers in synthetic_fibers(Random(name), params, target, lambda n: in_rad(q, n)):
        result = ClosureResult(target, fibers, {}, None, 1, True)
        ref = ref_classify_q(result, q, params)
        label = classify_q(result, q, params)
        assert (label.kind, label.vprime_dim) == (ref.kind, ref.vprime_dim), fibers
        seen.add(ref.kind)
    assert seen == kinds


def test_class0_needs_a_radical_degree_in_the_target_box():
    # a target box with no radical degree holds no class-0 fiber, so a
    # closure that is 0 there is not shown to be confined to class 0: the
    # Class0 shape's free part belongs to the shape, not to the box
    config = {"job": "closure", "algebra": "Lq", "d": 2, "alpha": ["1/2", "1/3"],
              "rep": {"kind": "natural"}, "q": {"l": [2, 2]},
              "seeds": [{"n": [0, 0], "coords": ["1", "0"]}], "gen_radius": 1,
              "working_box": 2, "target_box": {"lo": [1, 1], "hi": [1, 1]}}
    report, code = run(config, 0)
    assert code == 0
    assert report["details"]["fiber_dims"] == {"1,1": 0}
    assert report["details"]["label"] == "Other"


# ---------------------------------------------------------------------------
# in-box neighbours: stride arithmetic against tuple sums
# ---------------------------------------------------------------------------


def tuple_sum_neighbours(box, shifts):
    """Per degree index, the (shift index, target index) pairs of the shifts
    whose target n + s is a degree of the box, found by tuple sums."""
    degs = sorted(box.degrees())
    index = {n: i for i, n in enumerate(degs)}
    out = []
    for n in degs:
        targets = [(g, index.get(tuple(a + b for a, b in zip(n, s)))) for g, s in enumerate(shifts)]
        out.append([(g, j) for g, j in targets if j is not None])
    return out


def radius_shifts(d, r):
    return sorted(Box.radius(d, r).degrees())


@pytest.mark.parametrize("box, shifts", [
    (Box.radius(1, 3), radius_shifts(1, 2)),
    (Box.radius(2, 3), radius_shifts(2, 2)),
    (Box.radius(3, 2), [g.shift for g in classical_generators(
        ModuleParams(3, (F(1, 3), F(1, 5), 0), RepHandle.natural(3)), 2, "Lhat")]),
    (Box.radius(4, 1), radius_shifts(4, 2)),
    # centred on -alpha for the integral twist alpha = (1, -2, 0)
    (around((-1, 2, 0), 2), radius_shifts(3, 2)),
    # unequal sides, one of them a single value
    (Box((-1, 0, -3), (2, 0, 1)), radius_shifts(3, 1)),
    (Box((0, -2), (4, 1)), radius_shifts(2, 2)),
    # shifts wider than the box, repeated shifts and the degree derivations' 0
    (Box.radius(2, 1), [(0, 0), (3, 0), (-5, 2), (1, 1), (0, 0), (2, -2), (1, 1)]),
])
def test_neighbours_match_tuple_sums(box, shifts):
    nb = Neighbours(box, shifts)
    ref = tuple_sum_neighbours(box, shifts)
    for i, pairs in enumerate(ref):
        assert [(g, i + nb.offsets[g]) for g in nb.of(i)] == pairs


def random_box(rng, d):
    lo = [rng.randint(-3, 2) for _ in range(d)]
    return Box(tuple(lo), tuple(a + rng.randint(0, 3) for a in lo))


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_neighbours_walk_the_same_bits_as_a_scan(d):
    # Neighbours.of walks the set bits of a degree's mask; the plain scan
    # tests every shift index, on random boxes and shift lists holding the
    # zero shift, repeats and shifts that leave the box from every degree
    rng = Random(f"neighbour-bits-{d}")
    for _ in range(30):
        box = random_box(rng, d)
        shifts = [tuple(rng.randint(-3, 3) for _ in range(d))
                  for _ in range(rng.randint(1, 70))]
        shifts += [(0,) * d, (9,) * d]
        rng.shuffle(shifts)
        nb = Neighbours(box, shifts)
        for i, mask in enumerate(nb._deg_masks):
            scan = tuple(g for g in range(len(shifts)) if mask >> g & 1)
            assert nb.of(i) == scan


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_box_degrees_are_lexicographic(d):
    rng = Random(f"box-order-{d}")
    for _ in range(30):
        box = random_box(rng, d)
        degs = list(box.degrees())
        everything = product(*(range(-3, 6) for _ in range(d)))
        assert degs == sorted(n for n in everything if box.contains(n))


# ---------------------------------------------------------------------------
# the annihilator decisions of SpanState.insert against plain elimination
# ---------------------------------------------------------------------------


def scalar(rng, kind):
    if kind == "int":
        return rng.randint(-3, 3)
    return F(rng.randint(-3, 3), rng.randint(1, 4))


def insert_sequence(rng, kind, dim, fibers, steps):
    """Fiber vectors (i, w) that reject often: each fiber draws from a fixed
    proper subspace, and later vectors are combinations of earlier ones at
    the same degree."""
    space = {b: [[scalar(rng, kind) for _ in range(dim)] for _ in range(rng.randint(1, dim - 1))]
             for b in range(fibers)}

    def in_space(b):
        out = [0] * dim
        for vec in space[b]:
            c = rng.randint(-2, 2)
            out = [x + c * y for x, y in zip(out, vec)]
        return out

    seq = []
    while len(seq) < steps:
        pick, b = rng.randrange(3), rng.randrange(fibers)
        earlier = [w for i, w in seq if i == b]
        if pick == 0:
            seq.append((b, in_space(b)))
        elif pick == 1 or not earlier:
            seq.append((b, [scalar(rng, kind) for _ in range(dim)]))
        else:
            # a combination of earlier vectors, already in the span
            out = [0] * dim
            for w in rng.sample(earlier, min(len(earlier), rng.randint(1, 3))):
                c = scalar(rng, kind)
                out = [x + c * y for x, y in zip(out, w)]
            seq.append((b, out))
    return seq


@pytest.mark.parametrize("kind", ["int", "frac"])
def test_graded_insert_matches_plain_elimination(kind):
    # SpanState decides each insert from the fiber's annihilator alone; plain
    # Gauss-Jordan on every vector inserted at that degree must grow in rank
    # exactly when the insert is accepted, and give the same fiber bases
    rng = Random(f"graded-{kind}")
    rejected = 0
    for trial in range(12):
        dim = rng.choice((2, 3, 4))
        fibers = rng.choice((1, 2, 3))
        state = SpanState(Box.radius(1, 1), dim)
        inserted = [[] for _ in state.deg_list]
        for i, w in insert_sequence(rng, kind, dim, fibers, 30):
            before = len(gauss_jordan(inserted[i], dim)[0])
            inserted[i].append(w)
            got = state.insert(i, w)
            grew = len(gauss_jordan(inserted[i], dim)[0]) > before
            assert (got is None) == (not grew), (trial, i, w)
            assert got is None or got == (i, state.fibers[i][-1])
            rejected += got is None
            ranks = []
            for j, vs in enumerate(inserted):
                rows, pivots = gauss_jordan(vs, dim)
                b = basis_of(state.fibers[j], dim)
                assert (b.rows, b.pivot_cols) == (tuple(rows), tuple(pivots)), (trial, j)
                ann = state.annihilators[j]
                assert len(ann) == dim - len(rows)
                assert basis_of(ann, dim).rank == len(ann)
                assert all(not sum(x * y for x, y in zip(a, u)) for a in ann for u in vs)
                ranks.append(len(rows))
            assert state.rank() == sum(ranks)
            assert state.open == sum(r < dim for r in ranks)
    assert rejected > 0


@pytest.mark.parametrize("kind", ["int", "frac", "mixed"])
def test_annihilate_and_insert_match_basis_of_rank(kind):
    # at one degree, an insert is accepted exactly when basis_of's rank of
    # the inserted vectors grows; _annihilate then leaves independent rows
    # of the old annihilator's span, one fewer, each orthogonal to w
    rng = Random(f"annihilate-{kind}")
    rejected = annihilated = 0
    for _ in range(30):
        dim = rng.randint(1, 5)
        state = SpanState(Box.radius(1, 0), dim)
        vectors = [awkward_vector(rng, kind, dim) for _ in range(rng.randint(1, dim + 2))]
        vectors += [[2 * x for x in vectors[0]],
                    [x - y for x, y in zip(vectors[0], vectors[-1])]]
        inserted = []
        for w in filter(any, vectors):
            ann = state.annihilators[0]
            dots = [sum(x * y for x, y in zip(a, w)) for a in ann]
            before = basis_of(inserted, dim).rank
            inserted.append(w)
            grew = basis_of(inserted, dim).rank > before
            got = state.insert(0, w)
            assert (got is not None) == grew
            rejected += not grew
            if grew and len(ann) > 1:
                rows = _annihilate(ann, dots)
                assert len(rows) == basis_of(rows, dim).rank == len(ann) - 1
                assert not any(sum(x * y for x, y in zip(a, w)) for a in rows)
                assert basis_of(ann + rows, dim).rank == len(ann)
                annihilated += 1
            rank = basis_of(inserted, dim).rank
            assert state.rank() == rank
            assert len(state.annihilators[0]) == dim - rank
    assert rejected and annihilated


# ---------------------------------------------------------------------------
# the early exit of saturate against the loop without it
# ---------------------------------------------------------------------------


class NoExitState(SpanState):
    """A SpanState whose open count never reads 0, so saturate never takes
    its early exit and runs its rows as the loop without the exit did."""

    @property
    def open(self):
        return self._open or 1

    @open.setter
    def open(self, value):
        self._open = value


def traced_saturate(monkeypatch, state_cls, case, max_rounds):
    """saturate on a fresh ``state_cls`` state for ``case``, counting
    block_apply calls, insert calls and the frontier rows processed once
    every block of the box is full (a processed row looks up its shifts
    once, in Neighbours.of)."""
    work, dim, seeds, gens, bound, _ = case()
    state = state_cls(work, dim, bound)
    counts = {"apply": 0, "insert": 0, "late_rows": 0}

    def counted_apply(inner):
        def block_apply(n, w):
            counts["apply"] += 1
            return inner(n, w)
        return block_apply

    gens = [closure_mod.Generator(g.shift, counted_apply(g.block_apply)) for g in gens]
    insert = state.insert

    def counted_insert(i, w):
        counts["insert"] += 1
        return insert(i, w)

    state.insert = counted_insert
    of = Neighbours.of

    def counted_of(self, i):
        counts["late_rows"] += not any(state.annihilators)
        return of(self, i)

    monkeypatch.setattr(Neighbours, "of", counted_of)
    rows = [(state.deg_index[n], list(coords))
            for n, coords in closure_mod.seed_fibers(seeds[0].params, seeds, work, work)]
    rounds, saturated = closure_mod.saturate(state, rows, gens, max_rounds)
    monkeypatch.setattr(Neighbours, "of", of)
    return rounds, saturated, state, counts


def seeds_case(d, alpha, rep, seeds, gen_radius, work_radius, algebra):
    """A classical closure of the seeds, each given as {degree: coords}: the
    working box, dim, the seed vectors, the engine's generators, the bound
    and the reference family of :func:`naive_closure`."""
    def case():
        p = ModuleParams(d, alpha, rep)
        vecs = [GradedVec(p, fibers) for fibers in seeds]
        return (Box.radius(d, work_radius), rep.dim, vecs,
                classical_generators(p, gen_radius, algebra), closure_mod.w_bound(p, vecs),
                classical_family(p, gen_radius, algebra))
    return case


def classical_case(d, alpha, rep, fibers, gen_radius, work_radius, algebra):
    return seeds_case(d, alpha, rep, [fibers], gen_radius, work_radius, algebra)


def q_case(l, alpha, rep, fibers, gen_radius, work_radius, algebra):
    def case():
        q, p = block_normal_q(l), ModuleParams(len(l), alpha, rep)
        return (Box.radius(len(l), work_radius), rep.dim, [GradedVec(p, fibers)],
                qder_generators(q, p, gen_radius, algebra), None,
                q_family(q, p, gen_radius, algebra))
    return case


NAT3 = RepHandle.natural(3)
EXIT_CASES = {
    # (case, whether the whole working box fills before the frontier empties)
    "L-d2-Full": (classical_case(2, (F(1, 2), 0), NAT2, {(0, 0): (0, 1)}, 2, 2, "L"), True),
    "L-d2-W": (classical_case(2, (F(1, 2), 0), NAT2, {(0, 0): (F(1, 2), 0)}, 2, 2, "L"), True),
    "W-d2-Full": (classical_case(2, NONINT, SYM2, {(0, 0): (0, 1, 0)}, 1, 2, "W"), True),
    "L-d3-Full": (classical_case(3, (F(1, 3), F(1, 5), 0), NAT3, {(0, 0, 0): (0, 0, 1)},
                                 1, 1, "L"), True),
    "L-d3-W": (classical_case(3, (F(1, 3), F(1, 5), 0), NAT3, {(0, 0, 0): (5, 3, 0)},
                              1, 1, "L"), True),
    # GqFull: the radical fibers stay empty below their bound dim
    "Lq-22": (q_case((2, 2), (F(1, 5), F(1, 7)), NAT2, {(1, 0): (1, 0)}, 2, 2, "Lq"), False),
}


@pytest.mark.parametrize("name", list(EXIT_CASES))
def test_early_exit_matches_the_loop_without_it(name, monkeypatch):
    """Rounds, saturation, the fiber rows and the block_apply and insert
    counts agree with and without the exit at every round cap, and no row is
    processed once the box is full; without the exit such rows are."""
    case, fills = EXIT_CASES[name]
    full_rounds = traced_saturate(monkeypatch, SpanState, case, 50)[0]
    late_without = 0
    for max_rounds in list(range(1, full_rounds + 2)) + [50]:
        rounds, saturated, state, counts = traced_saturate(monkeypatch, SpanState, case,
                                                           max_rounds)
        ref = traced_saturate(monkeypatch, NoExitState, case, max_rounds)
        assert (rounds, saturated) == ref[:2], max_rounds
        assert state.fibers == ref[2].fibers
        assert (counts["apply"], counts["insert"]) == (ref[3]["apply"], ref[3]["insert"])
        assert counts["late_rows"] == 0
        assert state.open == sum(1 for a in state.annihilators if a)
        late_without += ref[3]["late_rows"]
    assert (late_without > 0) == fills


@pytest.mark.parametrize("name", [name for name, (_, fills) in EXIT_CASES.items() if fills])
def test_early_exit_keeps_rounds_at_the_round_cap(name, monkeypatch):
    """When the box fills in round k, a cap of k rounds still reports an
    unsaturated closure after k rounds, and a cap of k + 1 a saturated one
    after k + 1: the last round runs, over no row."""
    case, _ = EXIT_CASES[name]
    k = next(m for m in range(1, 50)
             if traced_saturate(monkeypatch, SpanState, case, m)[2].open == 0)
    assert traced_saturate(monkeypatch, SpanState, case, k)[:2] == (k, False)
    assert traced_saturate(monkeypatch, SpanState, case, k + 1)[:2] == (k + 1, True)


# ---------------------------------------------------------------------------
# the graded path of SpanState against the echelon path of naive_closure
# ---------------------------------------------------------------------------


GRADED_CASES = {
    "L-d2-W": EXIT_CASES["L-d2-W"][0],
    "L-d2-Full": EXIT_CASES["L-d2-Full"][0],
    "W-d2-Full": EXIT_CASES["W-d2-Full"][0],
    "L-d3-W": EXIT_CASES["L-d3-W"][0],
    "L-d3-Full": EXIT_CASES["L-d3-Full"][0],
    "W-d3-W": classical_case(3, (F(1, 3), F(1, 5), 0), NAT3, {(0, 0, 0): (5, 3, 0)}, 1, 1, "W"),
    "Lq-22": EXIT_CASES["Lq-22"][0],
    "Lqhat-22": q_case((2, 2), (F(1, 5), F(1, 7)), NAT2, {(1, 0): (1, 2)}, 1, 2, "Lqhat"),
    "Lhat-two-degrees": seeds_case(2, (1, -2), NAT2, [{(-1, 2): (0, 1)}, {(0, 1): (1, 1)}],
                                   1, 2, "Lhat"),
}


@pytest.mark.parametrize("name", list(GRADED_CASES))
def test_graded_path_matches_the_echelon_path(name, monkeypatch):
    """Rounds, saturation, rank, the open count and every fiber basis of the
    working box agree between the engine and the plain echelon fixed point
    of :func:`naive_closure`, at every round cap up to saturation."""
    case = GRADED_CASES[name]
    work, dim, seeds, _, _, family = case()
    cap, saturated = 1, False
    while not saturated:
        rounds, saturated, state, _ = traced_saturate(monkeypatch, SpanState, case, cap)
        bases, ref_rounds, ref_saturated = naive_closure(work, work, dim,
                                                         [s.fibers for s in seeds], family, cap)
        assert (rounds, saturated) == (ref_rounds, ref_saturated), cap
        assert state.rank() == sum(b.rank for b in bases.values())
        assert state.open == sum(b.rank < state.bound[state.deg_index[n]]
                                 for n, b in bases.items())
        assert closure_mod.extract_fibers(state, work) == bases, cap
        cap += 1
    assert cap > 2


# ---------------------------------------------------------------------------
# the wedge bound of W-seeded closures against the unbounded path
# ---------------------------------------------------------------------------


W_BOUND_ALPHAS = {"generic": (F(1, 2), F(1, 3), F(1, 5)), "integral": (1, -1, 0),
                  "zero": (0, 0, 0)}


def w_vector(rng, p, k, n):
    """A random integer combination of the wedge fiber basis at n."""
    out = [F(0)] * p.rep.dim
    for row in w_fiber_basis(p.d, k, p.alpha, n).rows:
        c = rng.choice((-2, -1, 1, 2, 3))
        out = [x + c * y for x, y in zip(out, row)]
    return out


@pytest.mark.parametrize("alpha_kind", list(W_BOUND_ALPHAS))
@pytest.mark.parametrize("d, k, kind", [(2, 1, "natural"), (2, 1, "exterior"),
                                        (2, 2, "exterior"), (3, 1, "natural"),
                                        (3, 1, "exterior"), (3, 2, "exterior"),
                                        (3, 3, "exterior")])
def test_w_bound_matches_unbounded_closure(d, k, kind, alpha_kind, monkeypatch,
                                          plain_extraction):
    """With and without the wedge bound, every closure gives the same result
    (label, rounds, saturation and every fiber basis, all the report prints):
    one W seed, two W seeds at different degrees, and a W seed next to one
    off W, under each algebra.  Every fiber basis is also checked against
    plain elimination of the fiber's rows."""
    alpha = W_BOUND_ALPHAS[alpha_kind][:d]
    rep = RepHandle.natural(d) if kind == "natural" else RepHandle.exterior(d, k)
    p = ModuleParams(d, alpha, rep)
    rng = Random(f"w-bound-{d}-{k}-{kind}-{alpha_kind}")
    work = Box.radius(d, 2 if d == 2 else 1)
    # alpha + n != 0 at n0 and n1 for every alpha here, and -alpha is in the box
    n0, n1 = (1,) + (0,) * (d - 1), (0, 1) + (0,) * (d - 2)
    off_at = n1 if alpha_kind == "generic" else tuple(-int(a) for a in alpha)
    off = [F(1)] + [F(rng.randint(-2, 2)) for _ in range(rep.dim - 1)]
    seed_sets = {
        "W-one": [GradedVec(p, {n0: w_vector(rng, p, k, n0)})],
        "W-two": [GradedVec(p, {n0: w_vector(rng, p, k, n0)}),
                  GradedVec(p, {n1: w_vector(rng, p, k, n1)})],
        "off-W": [GradedVec(p, {n0: w_vector(rng, p, k, n0)}), GradedVec(p, {off_at: off})],
    }
    # the off-W vector lies in W after all where W's fiber is all of V: k = d, generic alpha
    off_in_w = k == d and alpha_kind == "generic"
    for algebra in ALGEBRAS:
        for name, seeds in seed_sets.items():
            bounded = closure_mod.w_bound(p, seeds) is not None
            assert bounded == (name != "off-W" or off_in_w)
            got = closure(p, seeds, 1, work, work, 50, algebra)
            with monkeypatch.context() as m:
                m.setattr(closure_mod, "w_bound", lambda params, seeds: None)
                want = closure(p, seeds, 1, work, work, 50, algebra)
            assert got == want, (algebra, name)
            assert got.saturated
    assert plain_extraction["fibers"]


@pytest.mark.parametrize("alpha", [(F(1, 3), F(-1, 5), F(1, 7)), (1, -2, 0),
                                   (F(1, 2), -1, F(-3, 2))],
                         ids=["generic", "integral", "half-integral"])
@pytest.mark.parametrize("kind, k", [("natural", 1), ("exterior", 1), ("exterior", 2),
                                     ("exterior", 3)])
def test_w_bound_is_the_w_fiber_rank(alpha, kind, k):
    # the closed form of w_bound against the rank of the W fiber at every
    # degree of the radius-3 box, which holds -alpha for the integral alpha
    rep = RepHandle.natural(3) if kind == "natural" else RepHandle.exterior(3, k)
    p = ModuleParams(3, alpha, rep)
    n0 = (1, 0, 0)
    seed = GradedVec(p, {n0: list(w_fiber_basis(3, k, alpha, n0).rows[0])})
    bound = closure_mod.w_bound(p, [seed])
    zeros = 0
    for n in Box.radius(3, 3).degrees():
        rank = w_fiber_basis(3, k, alpha, n).rank
        assert bound(n) == rank, n
        zeros += not rank
    assert zeros == int(alpha == (1, -2, 0))


def test_w_bound_only_for_w_seeds_on_natural_or_exterior_reps():
    # off W: at n = 0 the wedge fiber of alpha = (1, -1) is spanned by (1, -1)
    p = ModuleParams(2, (1, -1), RepHandle.natural(2))
    assert closure_mod.w_bound(p, [graded(p, (0, 0), (0, 1))]) is None
    assert closure_mod.w_bound(p, [graded(p, (0, 0), (1, -1))]) is not None
    # on the trivial rep the Witt algebra acts through the trace, so a seed
    # in Lambda^d's W still reaches the -alpha fiber, which W leaves empty
    t = ModuleParams(2, (1, -1), RepHandle.trivial(2))
    seed = graded(t, (0, 0), (1,))
    assert w_membership(seed)
    assert closure_mod.w_bound(t, [seed]) is None
    work, tgt = boxes(2, 2, 1)
    res = closure(t, [seed], 1, work, tgt, 50, "W")
    assert res.fiber_dims[(-1, 1)] == 1 and res.label.kind == "Full"
