"""The samplers draw through ``verify.randbelow``, which reads the stream of
``random.Random`` directly.  It must return what ``randrange`` and
``randint`` return and leave the generator in the same state, at every
width (1 and the powers of two are the edges of the bit-width rule), and
every sampler must return what its ``randint``-based reference below
returns, from the same state, and consume the same draws."""

from fractions import Fraction
from random import Random

import pytest

from divalg.modules import GradedVec, ModuleParams
from divalg.qder import QDerElem
from divalg.qtorus import block_normal_q, in_rad, rad_q
from divalg.reps import RepHandle
from divalg.scalars import root
from divalg.verify import (
    randbelow,
    sample_algelem,
    sample_degree,
    sample_div_zero,
    sample_graded,
    sample_qder,
    sample_rad_degree,
    sample_rat6,
)
from divalg.witt import AlgElem, add_term
from test_qtorus import Q_ANTICOMMUTING, Q_ZERO_COLUMN

WIDTHS = range(1, 71)
SEEDS = range(500)
SAMPLER_SEEDS = range(200)


# ---------------------------------------------------------------------------
# references: the samplers as written on Random.randint / randrange
# ---------------------------------------------------------------------------


def ref_sample_degree(rng, d, radius, nonzero=False):
    if nonzero and radius < 1:
        raise ValueError(f"the radius-{radius} box has no nonzero degree")
    while True:
        n = tuple(rng.randint(-radius, radius) for _ in range(d))
        if not nonzero or any(n):
            return n


def ref_sample_rat6(rng):
    a = rng.randint(-6, 6)
    return a * (6 // rng.randint(1, 3))


def ref_sample_div_zero(rng, r):
    d = len(r)
    u = [0] * d
    for i in range(d):
        for j in range(i + 1, d):
            c = ref_sample_rat6(rng)
            if c:
                u[i] += c * r[j]
                u[j] -= c * r[i]
    return tuple(u)


def ref_sample_algelem(rng, d, algebra, radius=3):
    terms = {}
    for _ in range(rng.randint(1, 2)):
        if algebra == "W":
            r = ref_sample_degree(rng, d, radius)
            add_term(terms, r, tuple(ref_sample_rat6(rng) for _ in range(d)))
            continue
        r = ref_sample_degree(rng, d, radius, nonzero=True)
        add_term(terms, r, ref_sample_div_zero(rng, r))
    if algebra == "Lhat" and rng.random() < 0.5:
        add_term(terms, (0,) * d, tuple(ref_sample_rat6(rng) for _ in range(d)))
    return AlgElem(d, terms)


def ref_sample_rad_degree(rng, q, radius, nonzero=False):
    basis = rad_q(q)
    while True:
        coeffs = [rng.randint(-1, 1) for _ in basis]
        n = tuple(sum(c * row[i] for c, row in zip(coeffs, basis)) for i in range(q.d))
        if max(abs(x) for x in n) <= max(radius, 1) * max(max(abs(e) for e in row)
                                                          for row in basis):
            if not nonzero or any(n):
                return n


def ref_sample_qder(rng, q, algebra, radius=2):
    d = q.d
    inner, outer = {}, {}
    for _ in range(rng.randint(1, 2)):
        if rng.random() < 0.5:
            m = ref_sample_degree(rng, d, radius, nonzero=True)
            if in_rad(q, m):
                continue
            c = root(q.N, rng.randrange(q.N)) * (6 * rng.randint(1, 3))
            inner[m] = inner[m] + c if m in inner else c
        else:
            r = ref_sample_rad_degree(rng, q, radius, nonzero=(algebra != "Der"))
            if algebra == "Der":
                u = tuple(ref_sample_rat6(rng) for _ in range(d))
            elif not any(r):
                continue
            else:
                u = ref_sample_div_zero(rng, r)
            add_term(outer, r, u)
    if algebra in ("Der", "Lqhat") and rng.random() < 0.4:
        add_term(outer, (0,) * d, tuple(ref_sample_rat6(rng) for _ in range(d)))
    return QDerElem(d, inner, outer)


def ref_sample_graded(rng, params, radius=2):
    fibers = {}
    for _ in range(rng.randint(1, 2)):
        n = ref_sample_degree(rng, params.d, radius)
        fibers[n] = tuple(rng.randint(-3, 3) for _ in range(params.rep.dim))
    return GradedVec(params, fibers)


# ---------------------------------------------------------------------------
# the draw helper
# ---------------------------------------------------------------------------


def test_randbelow_is_randrange_and_randint_at_every_width():
    # one stream per seed: each width is drawn through both APIs on twin
    # generators, with a random() between draws so that a helper consuming
    # a different number of words shows in the next value
    for seed in SEEDS:
        rng, ref = Random(seed), Random(seed)
        for n in WIDTHS:
            assert randbelow(rng, n) == ref.randrange(n), (seed, n)
            assert rng.random() == ref.random(), (seed, n)
            lo = n - 35
            assert lo + randbelow(rng, n) == ref.randint(lo, lo + n - 1), (seed, n)
        assert rng.getstate() == ref.getstate(), seed


@pytest.mark.parametrize("n", [1, 2, 4, 8, 16, 32, 64])
def test_randbelow_consumes_a_draw_at_the_edge_widths(n):
    # width 1 still draws one bit, as randrange(1) does, and a power of two
    # draws n.bit_length() bits, one more than it needs
    for seed in range(50):
        rng, ref = Random(seed), Random(seed)
        before = rng.getstate()
        assert randbelow(rng, n) == ref.randrange(n)
        assert rng.getstate() == ref.getstate() != before


def test_randbelow_refuses_an_empty_range():
    rng = Random(0)
    state = rng.getstate()
    for n in (0, -1):
        with pytest.raises(ValueError, match="empty range"):
            randbelow(rng, n)
    assert rng.getstate() == state


# ---------------------------------------------------------------------------
# every sampler against its reference
# ---------------------------------------------------------------------------


def same_draws(sample, reference, compare=lambda a, b: a == b):
    """Each seed of SAMPLER_SEEDS gives equal values and equal states after
    three consecutive draws."""
    for seed in SAMPLER_SEEDS:
        rng, ref = Random(seed), Random(seed)
        for _ in range(3):
            got, want = sample(rng), reference(ref)
            assert compare(got, want), (seed, got, want)
            assert rng.getstate() == ref.getstate(), seed


def same_types(a: tuple, b: tuple) -> bool:
    return a == b and list(map(type, a)) == list(map(type, b))


@pytest.mark.parametrize("d, radius, nonzero", [(1, 0, False), (2, 1, True), (3, 2, False),
                                                (3, 3, True), (4, 2, True), (5, 7, False)])
def test_sample_degree_matches_the_reference(d, radius, nonzero):
    same_draws(lambda rng: sample_degree(rng, d, radius, nonzero),
               lambda rng: ref_sample_degree(rng, d, radius, nonzero), same_types)


def test_sample_rat6_matches_the_reference():
    same_draws(sample_rat6, ref_sample_rat6,
               lambda a, b: a == b and type(a) is type(b) is int)


@pytest.mark.parametrize("r", [(1, 0), (2, -3, 1), (0, 0, 5, -1), (1, 2, 3, 4, 5)])
def test_sample_div_zero_matches_the_reference(r):
    same_draws(lambda rng: sample_div_zero(rng, r), lambda rng: ref_sample_div_zero(rng, r),
               same_types)


@pytest.mark.parametrize("d, algebra, radius", [(2, "W", 3), (3, "Lhat", 3), (3, "L", 2),
                                                (4, "L", 1), (4, "W", 0)])
def test_sample_algelem_matches_the_reference(d, algebra, radius):
    same_draws(lambda rng: sample_algelem(rng, d, algebra, radius),
               lambda rng: ref_sample_algelem(rng, d, algebra, radius),
               lambda a, b: a.d == b.d and a.terms == b.terms)


RAD_QS = {"22": block_normal_q((2, 2)), "33": block_normal_q((3, 3)),
          "221": block_normal_q((2, 2, 1)), "anticommuting": Q_ANTICOMMUTING,
          "zero-column": Q_ZERO_COLUMN}


@pytest.mark.parametrize("name", list(RAD_QS))
@pytest.mark.parametrize("radius, nonzero", [(0, True), (2, False), (3, True)])
def test_sample_rad_degree_matches_the_reference(name, radius, nonzero):
    q = RAD_QS[name]
    same_draws(lambda rng: sample_rad_degree(rng, q, radius, nonzero),
               lambda rng: ref_sample_rad_degree(rng, q, radius, nonzero), same_types)


@pytest.mark.parametrize("name", list(RAD_QS))
@pytest.mark.parametrize("algebra", ["Der", "Lq", "Lqhat"])
def test_sample_qder_matches_the_reference(name, algebra):
    q = RAD_QS[name]

    def equal(a, b):
        return (a.d == b.d and a.inner == b.inner and a.outer.terms == b.outer.terms
                and list(map(type, a.inner.values())) == list(map(type, b.inner.values())))
    same_draws(lambda rng: sample_qder(rng, q, algebra), lambda rng: ref_sample_qder(rng, q, algebra),
               equal)


@pytest.mark.parametrize("rep, radius", [(RepHandle.natural(2), 2), (RepHandle.exterior(4, 2), 1),
                                         (RepHandle.trivial(3), 3)])
def test_sample_graded_matches_the_reference(rep, radius):
    params = ModuleParams(rep.d, (Fraction(1, 2),) * rep.d, rep)
    same_draws(lambda rng: sample_graded(rng, params, radius),
               lambda rng: ref_sample_graded(rng, params, radius),
               lambda a, b: a.fibers == b.fibers)
