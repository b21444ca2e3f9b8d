"""Cyclotomic and rational scalar tests.

Arithmetic examples are cross-checked against a numeric embedding
zeta_N -> exp(2*pi*i/N), which is an oracle independent of the canonical
polynomial reduction.
"""

import cmath
import math

import pytest
from fractions import Fraction
from hypothesis import given, strategies as st

from divalg.scalars import (
    Cyc,
    CycDivisionError,
    OrderCapExceeded,
    cyclotomic_polynomial,
    euler_phi,
    format_rat,
    parse_rat,
    root,
)


def embed(c: Cyc) -> complex:
    z = cmath.exp(2j * cmath.pi / c.order)
    return sum(float(a) * z**j for j, a in enumerate(c.coeffs))


def assert_numeric(c: Cyc, value: complex):
    assert abs(embed(c) - value) < 1e-9


# -- cyclotomic polynomials --------------------------------------------------

def test_phi_base_cases():
    assert cyclotomic_polynomial(1) == (-1, 1)  # x - 1
    assert cyclotomic_polynomial(2) == (1, 1)   # x + 1


def test_phi_4():
    # recursion (x^4 - 1) / (Phi_1 Phi_2) = x^2 + 1
    assert cyclotomic_polynomial(4) == (1, 0, 1)


@pytest.mark.parametrize("n", range(1, 31))
def test_phi_monic_degree_and_root(n):
    phi = cyclotomic_polynomial(n)
    assert phi[-1] == 1
    assert len(phi) - 1 == euler_phi(n)
    # primitive n-th root of unity is a root, numerically
    z = cmath.exp(2j * cmath.pi / n)
    val = sum(c * z**j for j, c in enumerate(phi))
    assert abs(val) < 1e-8


# -- roots of unity -----------------------------------------------------------

def test_root_of_unity_examples():
    assert Cyc.zeta(2, 1) == -1
    assert Cyc.zeta(6, 3) == -1          # x^3 mod Phi_6 reduces to -1
    assert Cyc.zeta(3, 4) == Cyc.zeta(3, 1)
    assert Cyc.zeta(5, 0) == 1


@pytest.mark.parametrize("n", range(1, 13))
def test_root_of_unity_power_identity(n):
    for k in range(n):
        assert Cyc.zeta(n, k) ** n == 1
        assert_numeric(Cyc.zeta(n, k), cmath.exp(2j * cmath.pi * k / n))


# -- arithmetic ---------------------------------------------------------------

def test_arith_examples():
    z4 = Cyc.zeta(4, 1)
    assert z4 * z4 == -1
    z3 = Cyc.zeta(3, 1)
    assert z3 + z3 * z3 == -1     # 1 + z + z^2 = 0
    c = Cyc(6, (Fraction(1, 2), Fraction(-3, 7)))
    assert c * Cyc.from_rat(1, 6) == c


def test_division():
    z3 = Cyc.zeta(3, 1)
    assert z3 / z3 == 1
    assert (1 / z3) * z3 == 1
    with pytest.raises(CycDivisionError):
        z3 / Cyc.from_rat(0)


def test_cross_order_equality_and_embedding():
    assert Cyc.zeta(6, 2) == Cyc.zeta(3, 1)
    assert Cyc.zeta(4, 2) == Cyc.zeta(2, 1) == -1
    a = Cyc.zeta(3, 1) + Cyc.zeta(4, 1)
    assert a.order == 12
    assert_numeric(a, cmath.exp(2j * cmath.pi / 3) + 1j)


def test_order_cap():
    old = Cyc.ORDER_CAP
    Cyc.ORDER_CAP = 30
    try:
        with pytest.raises(OrderCapExceeded):
            Cyc.zeta(7, 1) + Cyc.zeta(11, 1)
    finally:
        Cyc.ORDER_CAP = old


def test_canonical_form_syntactic_equality():
    # a - b == 0 iff identical coefficients at the common order
    a = Cyc.zeta(5, 1) + Cyc.zeta(5, 4)
    b = Cyc.from_rat(-1) - Cyc.zeta(5, 2) - Cyc.zeta(5, 3)
    assert (a - b).is_zero()
    assert a.to_order(5).coeffs == b.to_order(5).coeffs


small_rats = st.fractions(min_value=-4, max_value=4, max_denominator=6)


@st.composite
def cycs(draw, orders=(1, 2, 3, 4, 6, 12)):
    n = draw(st.sampled_from(orders))
    coeffs = draw(st.lists(small_rats, min_size=euler_phi(n), max_size=euler_phi(n)))
    return Cyc(n, coeffs)


@given(cycs(), cycs(), cycs())
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a


@given(cycs())
def test_inverses(a):
    assert a + (-a) == 0
    if not a.is_zero():
        assert a * a.inverse() == 1


# -- serialization ------------------------------------------------------------

def test_rat_wire_format():
    assert parse_rat("3/4") == Fraction(3, 4)
    assert parse_rat("-7") == Fraction(-7)
    assert format_rat(Fraction(6, 4)) == "3/2"
    assert format_rat(Fraction(5)) == "5"
    with pytest.raises(ValueError):
        parse_rat("1/0")


def test_cyc_json_roundtrip():
    c = Cyc(6, (Fraction(1, 2), Fraction(-3, 7)))
    j = c.to_json()
    assert j == {"order": 6, "coeffs": ["1/2", "-3/7"]}
    assert Cyc(j["order"], [parse_rat(x) for x in j["coeffs"]]) == c


# -- differential check against a plain Fraction polynomial reference ---------

def ref_rem(p, n):
    """Remainder of a Fraction polynomial (low degree first) modulo Phi_n,
    padded to phi(n) coefficients."""
    phi = cyclotomic_polynomial(n)
    deg = len(phi) - 1
    p = [Fraction(c) for c in p]
    for k in range(len(p) - 1, deg - 1, -1):
        c = p[k]
        for i, f in enumerate(phi):
            p[k - deg + i] -= c * f
    return tuple((p + [Fraction(0)] * deg)[:deg])


def ref_lift(c: Cyc, m: int):
    """c's coefficients at order m: substitute x -> x^(m / order), reduce."""
    step = m // c.order
    p = [Fraction(0)] * ((len(c.coeffs) - 1) * step + 1)
    for j, x in enumerate(c.coeffs):
        p[j * step] = x
    return ref_rem(p, m)


def ref_mul(a, b, m):
    prod = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    return ref_rem(prod, m)


def assert_normal(c: Cyc):
    assert c.den > 0
    assert all(isinstance(x, int) for x in c.num) and len(c.num) == euler_phi(c.order)
    assert math.gcd(c.den, *c.num) == 1
    if c.is_zero():
        assert c.num == (0,) * euler_phi(c.order) and c.den == 1


DIFF_ORDERS = (1, 3, 4, 5, 6, 12)
wide_rats = st.fractions(min_value=-50, max_value=50, max_denominator=30)


@st.composite
def diff_cycs(draw):
    n = draw(st.sampled_from(DIFF_ORDERS))
    return Cyc(n, draw(st.lists(wide_rats, min_size=euler_phi(n), max_size=euler_phi(n))))


@given(diff_cycs(), diff_cycs())
def test_integer_cyc_matches_fraction_reference(a, b):
    m = math.lcm(a.order, b.order)
    ra, rb = ref_lift(a, m), ref_lift(b, m)
    for c in (a, b):
        assert_normal(c)
        assert_normal(c.to_order(m))
        assert c.to_order(m).coeffs == ref_lift(c, m)
    expect = {
        "+": tuple(x + y for x, y in zip(ra, rb)),
        "-": tuple(x - y for x, y in zip(ra, rb)),
        "*": ref_mul(ra, rb, m),
    }
    for op, got in (("+", a + b), ("-", a - b), ("*", a * b)):
        assert got.order == m and got.coeffs == expect[op], op
        assert_normal(got)
    if not b.is_zero():
        quo = a / b
        assert quo.order == m
        assert_normal(quo)
        assert ref_mul(quo.coeffs, rb, m) == ra


@given(diff_cycs(), wide_rats)
def test_integer_cyc_rational_fast_paths(a, x):
    lifted = ref_lift(a, a.order)
    for got, want in ((a * x, [c * x for c in lifted]), (x * a, [c * x for c in lifted]),
                      (a + x, [lifted[0] + x] + list(lifted[1:])),
                      (a - x, [lifted[0] - x] + list(lifted[1:]))):
        assert got.order == a.order and got.coeffs == tuple(want)
        assert_normal(got)
    assert (a == x) == (lifted == (x,) + (Fraction(0),) * (len(lifted) - 1))


def test_zeta_is_cached_and_immutable():
    assert Cyc.zeta(12, 5) is Cyc.zeta(12, 17)
    with pytest.raises(AttributeError):
        Cyc.zeta(12, 5).num = (0, 0, 0, 0)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 12])
def test_root_is_an_int_exactly_where_rational(n):
    """root(N, e) equals zeta_N^e for every e; it is the int 1 at e = 0 and
    the int -1 at 2e = N (mod N), and else the shared Cyc.zeta."""
    for e in range(-2 * n, 2 * n + 1):
        r = root(n, e)
        assert r == Cyc.zeta(n, e)
        if e % n == 0:
            assert type(r) is int and r == 1
        elif 2 * e % n == 0:
            assert type(r) is int and r == -1
        else:
            assert r is Cyc.zeta(n, e)
    with pytest.raises(ValueError):
        root(0, 1)


def test_slots_are_set_once_and_then_frozen():
    """_raw and __init__ fill the slots through their descriptors; assigning
    or deleting a slot afterwards still raises, so no caller can empty the
    shared Cyc.zeta values."""
    c = Cyc(5, [1, Fraction(1, 2), 0, 3])
    assert (c.order, c.num, c.den) == (5, (2, 1, 0, 6), 2)
    for x in (c, Cyc.zeta(5, 2), c * c, -c):
        for name in Cyc.__slots__:
            with pytest.raises(AttributeError):
                setattr(x, name, getattr(x, name))
            with pytest.raises(AttributeError):
                delattr(x, name)
    assert Cyc.zeta(5, 2).num == (0, 0, 1, 0)
