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

from divalg.scalars import Cyc, _cyc, cyclotomic_polynomial, format_rat, parse_rat, root


def euler_phi(n: int) -> int:
    """phi(n), as the degree of Phi_n."""
    return len(cyclotomic_polynomial(n)) - 1


def cyc(n: int, coeffs) -> Cyc:
    """The Cyc at order n with these power-basis coefficients (rationals)."""
    coeffs = [Fraction(c) for c in coeffs]
    assert len(coeffs) == euler_phi(n)
    den = math.lcm(*(c.denominator for c in coeffs))
    return _cyc(n, [c.numerator * (den // c.denominator) for c in coeffs], den)


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
        z, power = Cyc.zeta(n, k), 1
        for _ in range(n):
            power = power * z
        assert power == 1
        assert_numeric(Cyc.zeta(n, k), cmath.exp(2j * cmath.pi * k / n))


# -- arithmetic ---------------------------------------------------------------

def test_arith_examples():
    z4 = Cyc.zeta(4, 1)
    assert z4 * z4 == -1
    z3 = Cyc.zeta(3, 1)
    assert z3 + z3 * z3 == -1     # 1 + z + z^2 = 0
    c = cyc(6, (Fraction(1, 2), Fraction(-3, 7)))
    assert c * cyc(6, (1, 0)) == c


def test_division():
    # a quotient is a product with the inverse; there is no / operator
    z3 = Cyc.zeta(3, 1)
    assert z3 * z3.inverse() == 1
    assert z3.inverse() == Cyc.zeta(3, 2)
    with pytest.raises(ZeroDivisionError):
        (z3 - z3).inverse()


def test_cross_order_operations_raise():
    # Q(zeta_6) and Q(zeta_3) are one field, but a Cyc never lifts: mixing
    # two orders is an error, even for equal values
    a, b = Cyc.zeta(6, 2), Cyc.zeta(3, 1)
    for op in (lambda: a + b, lambda: a - b, lambda: a * b, lambda: a == b, lambda: a != b):
        with pytest.raises(ValueError, match="orders 6 and 3"):
            op()


def test_repr():
    assert repr(Cyc.zeta(5, 1) * 2 + Fraction(1, 2)) == "Cyc(1/2 + 2*z5)"
    assert repr(cyc(4, (Fraction(3, 2), 0))) == "Cyc(3/2)"
    assert repr(Cyc.zeta(4, 1) - Cyc.zeta(4, 1)) == "Cyc(0)"


def test_canonical_form_syntactic_equality():
    # a - b == 0 iff identical coefficients
    a = Cyc.zeta(5, 1) + Cyc.zeta(5, 4)
    b = -1 - Cyc.zeta(5, 2) - Cyc.zeta(5, 3)
    assert not a - b
    assert a.coeffs == b.coeffs


small_rats = st.fractions(min_value=-4, max_value=4, max_denominator=6)


@st.composite
def same_order_cycs(draw, count, rats=small_rats, orders=(1, 2, 3, 4, 6, 12)):
    """``count`` Cyc values drawn at one order."""
    n = draw(st.sampled_from(orders))
    coeffs = st.lists(rats, min_size=euler_phi(n), max_size=euler_phi(n))
    return tuple(cyc(n, draw(coeffs)) for _ in range(count))


@given(same_order_cycs(3))
def test_field_axioms(abc):
    a, b, c = abc
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a


@given(same_order_cycs(1))
def test_inverses(a):
    (a,) = a
    assert a + (-a) == 0
    if a:
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
    c = cyc(6, (Fraction(1, 2), Fraction(-3, 7)))
    j = c.to_json()
    assert j == {"order": 6, "coeffs": ["1/2", "-3/7"]}
    assert cyc(j["order"], [parse_rat(x) for x in j["coeffs"]]) == c


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
    if not c:
        assert c.num == (0,) * euler_phi(c.order) and c.den == 1


DIFF_ORDERS = (1, 3, 4, 5, 6, 12)
wide_rats = st.fractions(min_value=-50, max_value=50, max_denominator=30)


def diff_cycs(count):
    return same_order_cycs(count, wide_rats, DIFF_ORDERS)


@given(diff_cycs(2))
def test_integer_cyc_matches_fraction_reference(ab):
    a, b = ab
    m = a.order
    ra, rb = a.coeffs, b.coeffs
    for c in (a, b):
        assert_normal(c)
    expect = {
        "+": tuple(x + y for x, y in zip(ra, rb)),
        "-": tuple(x - y for x, y in zip(ra, rb)),
        "*": ref_mul(ra, rb, m),
    }
    for op, got in (("+", a + b), ("-", a - b), ("*", a * b)):
        assert got.order == m and got.coeffs == expect[op], op
        assert_normal(got)
    if b:
        quo = a * b.inverse()
        assert quo.order == m
        assert_normal(quo)
        assert ref_mul(quo.coeffs, rb, m) == ra


@given(diff_cycs(1), wide_rats, st.integers(-50, 50))
def test_integer_cyc_rational_fast_paths(a, x, k):
    # a rational operand is taken at the Cyc's own order: nothing lifts
    (a,) = a
    ref = a.coeffs
    for got, want in ((a * x, [c * x for c in ref]), (x * a, [c * x for c in ref]),
                      (a + x, [ref[0] + x] + list(ref[1:])),
                      (a - x, [ref[0] - x] + list(ref[1:])),
                      (x - a, [x - ref[0]] + [-c for c in ref[1:]]),
                      (a - k, [ref[0] - k] + list(ref[1:])),
                      (k - a, [k - ref[0]] + [-c for c in ref[1:]])):
        assert got.order == a.order and got.coeffs == tuple(want)
        assert_normal(got)
    assert (a == x) == (ref == (x,) + (Fraction(0),) * (len(ref) - 1))


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
    """_raw fills the slots through their descriptors; assigning or deleting
    a slot afterwards still raises, so no caller can empty the shared
    Cyc.zeta values."""
    c = cyc(5, [1, Fraction(1, 2), 0, 3])
    assert (c.order, c.num, c.den) == (5, (2, 1, 0, 6), 2)
    for x in (c, Cyc.zeta(5, 2), c * c, -c):
        for name in Cyc.__slots__:
            with pytest.raises(AttributeError):
                setattr(x, name, getattr(x, name))
            with pytest.raises(AttributeError):
                delattr(x, name)
    assert Cyc.zeta(5, 2).num == (0, 0, 1, 0)
