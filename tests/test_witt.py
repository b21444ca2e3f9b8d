"""Witt-algebra brackets, divergence-zero membership, and the orthogonal
transplant construction."""

from fractions import Fraction
from operator import add, mul
from random import Random

import pytest

from divalg.qtorus import cocycle
from divalg.scalars import Cyc
from divalg.verify import lie_suite_classical, sample_algelem, sample_qder
from divalg.witt import (
    AlgElem,
    bracket_witt,
    d_basis,
    in_L,
    in_Lhat,
    lemma_orthg,
    pair_term,
    pairing,
)
from test_qtorus import Q_ANTICOMMUTING


def D(u, r):
    return AlgElem.term(u, r)


def jacobi_residual(x, y, z, bracket=bracket_witt):
    """[x,[y,z]] + [y,[z,x]] + [z,[x,y]]; zero iff the Jacobi identity holds."""
    return bracket(x, bracket(y, z)) + bracket(y, bracket(z, x)) + bracket(z, bracket(x, y))


def rational_sample(rng, d, algebra):
    """The rational sample that sample_algelem scales by 6, on Fraction coordinates."""
    return sample_algelem(rng, d, algebra).scale(Fraction(1, 6))


def test_bracket_example():
    x = D((1, 0), (0, 1))
    y = D((0, 1), (1, 0))
    assert bracket_witt(x, y) == D((-1, 1), (1, 1))


def test_bracket_degree_zero_commute():
    for u, v in (((1, 2), (3, 4)), ((5, 0), (0, 7))):
        assert bracket_witt(D(u, (0, 0)), D(v, (0, 0))).is_zero()


def test_bracket_antisymmetry_on_self():
    x = D((2, 3), (1, -1)) + D((1, 0), (0, 2))
    assert bracket_witt(x, x).is_zero()


def test_bracket_dimension_mismatch():
    with pytest.raises(ValueError):
        bracket_witt(D((1, 0), (0, 1)), D((1, 0, 0), (0, 1, 0)))


def term_by_term_bracket(x, y, cocycle=None):
    """The bracket as a sum of one-term elements, [D(u, r), D(v, s)] for
    every pair of terms, each scaled by ``cocycle(r, s)`` when given."""
    out = AlgElem.zero(x.d)
    for r, u in x.terms.items():
        for s, v in y.terms.items():
            a, b = pairing(u, s), pairing(v, r)
            w = [a * vi - b * ui for ui, vi in zip(u, v)]
            if cocycle is not None:
                w = [cocycle(r, s) * wi for wi in w]
            out = out + AlgElem(x.d, {tuple(map(add, r, s)): w})
    return out


def zeta3_cocycle(r, s):
    """A cocycle argument with Cyc values, 1 at every (r, s) with r . s = 0 mod 3."""
    return Cyc.zeta(3, sum(map(mul, r, s)))


BRACKET_PAIRS = [
    # zero products only: degree-zero terms, and u orthogonal to s and v to r
    (D((1, 2), (0, 0)), D((3, -1), (0, 0))),
    (D((1, -1), (1, 1)), D((2, -2), (3, 3))),
    # [D(u, r), D(v, s)] and [D(v, s), D(u, r)] land on one degree and cancel
    (D((1, 0), (0, 1)) + D((0, 1), (1, 0)), D((1, 0), (0, 1)) + D((0, 1), (1, 0))),
    # two products on one degree that cancel: (1, 0) + (0, 1) = (0, 1) + (1, 0)
    (D((1, 0), (1, 0)) + D((0, 1), (0, 1)), D((0, 1), (0, 1)) + D((1, 0), (1, 0))),
    (D((1, 2, 3), (1, 0, -1)) + D((0, 0, 5), (0, 0, 0)), D((2, -1, 0), (1, 2, 3))),
]


@pytest.mark.parametrize("cocycle_arg", [None, zeta3_cocycle], ids=["plain", "zeta3"])
def test_bracket_matches_the_term_by_term_sum(cocycle_arg):
    rng = Random(11)
    pairs = list(BRACKET_PAIRS)
    for d, algebra in ((2, "W"), (3, "Lhat"), (3, "L"), (4, "W")):
        for _ in range(60):
            x = sample_algelem(rng, d, algebra, 2)
            pairs += [(x, sample_algelem(rng, d, algebra, 2)), (x, x)]
    for x, y in pairs:
        got = bracket_witt(x, y, cocycle_arg)
        want = term_by_term_bracket(x, y, cocycle_arg)
        assert got.terms == want.terms, (x, y)
        assert all(any(u) for u in got.terms.values())
    for x, y in BRACKET_PAIRS[:4]:
        assert bracket_witt(x, y, cocycle_arg).terms == {}


def test_bracket_with_sigma_matches_the_term_by_term_sum():
    # the outer parts of q derivations, with sigma of a q that is not 1 on
    # its radical (every pair of coordinates anticommutes) as the cocycle
    sig = cocycle(Q_ANTICOMMUTING)
    assert sig is not None
    rng = Random(12)
    for algebra in ("Der", "Lq", "Lqhat"):
        for _ in range(80):
            x, y = (sample_qder(rng, Q_ANTICOMMUTING, algebra).outer for _ in range(2))
            for a, b in ((x, y), (x, x), (y, x)):
                assert bracket_witt(a, b, sig).terms == term_by_term_bracket(a, b, sig).terms


def test_sub_is_adding_the_negative():
    rng = Random(13)
    for d, algebra in ((2, "W"), (3, "Lhat"), (3, "L")):
        for _ in range(100):
            x, y = sample_algelem(rng, d, algebra, 2), sample_algelem(rng, d, algebra, 2)
            y = y.scale(Fraction(1, 3)) + AlgElem(d, {r: u for r, u in x.terms.items()
                                                       if rng.random() < 0.5})
            for a, b in ((x, y), (y, x), (x, x), (x, AlgElem.zero(d)), (AlgElem.zero(d), x)):
                got = a - b
                assert got.terms == (a + (-b)).terms
                assert all(any(u) for u in got.terms.values())
    with pytest.raises(ValueError):
        D((1, 0), (0, 1)) - D((1, 0, 0), (0, 1, 0))


def test_d_basis_examples():
    u = d_basis((1, 2), 1)
    assert u == (2, -1)
    assert pairing(u, (1, 2)) == 0
    assert not any(d_basis((0, 0), 1))
    assert d_basis((1, 0, 1), 2) == (0, 1, 0)
    with pytest.raises(IndexError):
        d_basis((1, 2), 2)


def test_pair_term_divergence_zero():
    for r in ((1, 0, 1), (2, -3, 5), (0, 0, 1)):
        for i in range(1, 4):
            for j in range(i + 1, 4):
                assert pairing(pair_term(r, i, j), r) == 0
    for i, j in ((1, 1), (0, 2), (1, 4)):
        with pytest.raises(IndexError):
            pair_term((1, 0, 1), i, j)


def test_membership_examples():
    a = D((2, -1), (1, 2))
    assert in_L(a) and in_Lhat(a)
    cartan = D((1, 0), (0, 0))
    assert in_Lhat(cartan) and not in_L(cartan)
    bad = D((1, 0), (1, 0))
    assert not in_Lhat(bad) and not in_L(bad)


def test_subalgebra_closed_under_bracket():
    rng = Random(17)
    for algebra, member in (("L", in_L), ("Lhat", in_Lhat)):
        for _ in range(50):
            x = rational_sample(rng, 3, algebra)
            y = rational_sample(rng, 3, algebra)
            assert member(x) and member(y)
            assert member(bracket_witt(x, y))


def test_lemma_orthg_example():
    up = lemma_orthg((2, 3), (1, 0), (0, 1))
    assert up == (Fraction(-3), Fraction(2))
    assert pairing(up, (2, 3)) == 0
    # (u'|n) + (u|m) = 0
    assert pairing(up, (1, 0)) + pairing((0, 1), (2, 3)) == 0


def test_lemma_orthg_zero_u():
    assert lemma_orthg((5, -7), (2, 3), (0, 0)) == (0, 0)


def test_lemma_orthg_m_equals_n():
    n = (2, -1, 3)
    u = (1, 2, 0)
    assert pairing(u, n) == 0
    assert lemma_orthg(n, n, u) == u


def test_lemma_orthg_five_point_identity():
    rng = Random(23)
    for _ in range(40):
        d = rng.choice((2, 3, 4))
        n = tuple(rng.randint(-3, 3) for _ in range(d))
        if not any(n):
            continue
        m = tuple(rng.randint(-3, 3) for _ in range(d))
        u = [Fraction(0)] * d
        for i in range(1, d + 1):
            for j in range(i + 1, d + 1):
                c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                u = [a + c * b for a, b in zip(u, pair_term(n, i, j))]
        u = tuple(u)
        up = lemma_orthg(m, n, u)
        assert pairing(up, m) == 0
        for x in (-2, -1, 0, 1, 3):
            assert pairing(
                tuple(a - x * b for a, b in zip(up, u)),
                tuple(a - x * b for a, b in zip(m, n)),
            ) == 0


def test_lemma_orthg_preconditions():
    with pytest.raises(ValueError):
        lemma_orthg((1, 0), (0, 0), (1, 0))
    with pytest.raises(ValueError):
        lemma_orthg((1, 0), (1, 0), (1, 0))  # (u|n) != 0


def test_jacobi_trivial_and_specific():
    x = D((1, 0), (1, 0))
    y = D((0, 1), (0, 1))
    z = D((1, 1), (1, 1))
    assert jacobi_residual(x, y, x).is_zero()
    assert jacobi_residual(x, y, z).is_zero()


@pytest.mark.parametrize("d", (2, 3))
def test_jacobi_random(d):
    rng = Random(d)
    for _ in range(60):
        x = rational_sample(rng, d, "W")
        y = rational_sample(rng, d, "W")
        z = rational_sample(rng, d, "W")
        assert jacobi_residual(x, y, z).is_zero()


@pytest.mark.parametrize("algebra", ("W", "Lhat", "L"))
def test_lie_suite(algebra):
    assert lie_suite_classical(2, algebra, 40, Random(7))["violations"] == 0
