"""Exact scalar arithmetic: rationals and cyclotomic numbers.

Rationals are plain :class:`fractions.Fraction` values (aliased ``Rat``);
this module only adds string parsing/formatting for the "p/q" wire format.

:class:`Cyc` is an element of the cyclotomic field Q(zeta_N), stored in the
power basis ``1, z, ..., z^(phi(N)-1)`` of Q[x]/(Phi_N), where Phi_N is the
N-th cyclotomic polynomial.  Reducing modulo Phi_N (rather than x^N - 1)
makes the representation canonical at a fixed order, so equality of values
is coefficientwise equality after lifting both operands to a common order.
Arithmetic between different orders lifts to Q(zeta_lcm); the lcm is capped
(default 360) to keep degrees sane.

All values are immutable and all operations are pure.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

Rat = Fraction

#: Largest root-of-unity order allowed when mixing cyclotomic orders.
DEFAULT_ORDER_CAP = 360


class OrderCapExceeded(ValueError):
    """Mixing two cyclotomic orders would exceed the configured lcm cap."""


class CycDivisionError(ZeroDivisionError):
    """Division by the zero cyclotomic number."""


def parse_rat(s: str | int) -> Fraction:
    """Parse "p/q" or "p", or take an integer, as an exact rational."""
    if isinstance(s, int) and not isinstance(s, bool):
        return Fraction(s)
    if not isinstance(s, str):
        raise ValueError(f"expected a rational as a \"p/q\" string or an integer, got {s!r}")
    text = s.strip()
    if "/" in text:
        num, den = text.split("/", 1)
        d = int(den)
        if d == 0:
            raise ValueError(f"zero denominator in rational {s!r}")
        return Fraction(int(num), d)
    return Fraction(int(text))


def format_rat(x: Fraction | int) -> str:
    """Format a rational as "p/q", or "p" when the denominator is 1."""
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


# ---------------------------------------------------------------------------
# integer polynomial helpers (dense, low degree first)
# ---------------------------------------------------------------------------

def _poly_trim(p: list[int]) -> list[int]:
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_divmod_int(a: list[int], b: list[int]) -> tuple[list[int], list[int]]:
    """Divide integer polynomials; ``b`` must be monic."""
    assert b and b[-1] == 1
    a = _poly_trim(list(a))
    q = [0] * max(0, len(a) - len(b) + 1)
    while len(a) >= len(b):
        c = a[-1]
        k = len(a) - len(b)
        q[k] = c
        for i, bi in enumerate(b):
            a[k + i] -= c * bi
        _poly_trim(a)
    return q, a


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of Phi_n, low degree first; monic of degree phi(n).

    Computed by the recursion Phi_n = (x^n - 1) / prod_{d|n, d<n} Phi_d,
    with exact integer division at every step.
    """
    if n < 1:
        raise ValueError("order must be a positive integer")
    if n == 1:
        return (-1, 1)
    num = [0] * (n + 1)
    num[0] = -1
    num[n] = 1
    rem = num
    for d in range(1, n):
        if n % d == 0:
            rem, r = _poly_divmod_int(rem, list(cyclotomic_polynomial(d)))
            assert not r, f"cyclotomic recursion left a remainder at n={n}, d={d}"
    return tuple(rem)


def euler_phi(n: int) -> int:
    """phi(n), as the degree of Phi_n."""
    return len(cyclotomic_polynomial(n)) - 1


@lru_cache(maxsize=None)
def _powers(n: int) -> tuple[tuple[int, ...], ...]:
    """x^k mod Phi_n as integer rows of length phi(n), for 0 <= k <
    max(n, 2 phi(n) - 1): every power that a product, an embedding or a
    Galois conjugate looks up."""
    phi = cyclotomic_polynomial(n)
    deg = len(phi) - 1
    row = (1,) + (0,) * (deg - 1)
    rows = []
    for _ in range(max(n, 2 * deg - 1)):
        rows.append(row)
        top = row[-1]
        row = (0,) + row[:-1]
        if top:
            # x^deg = -(phi_0 + ... + phi_(deg-1) x^(deg-1)) because Phi_n is monic
            row = tuple(c - top * p for c, p in zip(row, phi))
    return tuple(rows)


def _mul_num(a, b, n: int) -> list[int]:
    """Product of two integer power-basis vectors modulo Phi_n."""
    deg = len(a)
    prod = [0] * (2 * deg - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                prod[i + j] += x * y
    out = prod[:deg]
    rows = _powers(n)
    for k in range(deg, 2 * deg - 1):
        c = prod[k]
        if c:
            out = [o + c * r for o, r in zip(out, rows[k])]
    return out


def _galois(num, k: int, n: int) -> list[int]:
    """sum(num[j] x^(j k)) mod Phi_n: the conjugate zeta_n -> zeta_n^k of a
    vector at order n, or, with n = k * order, its embedding at order n."""
    rows = _powers(n)
    out = [0] * len(rows[0])
    for j, x in enumerate(num):
        if x:
            out = [o + x * r for o, r in zip(out, rows[j * k % n])]
    return out


def _normal(num, den: int) -> tuple[tuple[int, ...], int]:
    """num / den in normal form: den > 0 and gcd(den, *num) == 1, so zero is
    (0, ..., 0) / 1."""
    g = gcd(den, *num)
    if den < 0:
        g = -g
    if g == 1:
        return tuple(num), den
    return tuple(x // g for x in num), den // g


def _raw(order: int, num: tuple, den: int) -> "Cyc":
    """A Cyc from a numerator tuple and denominator already in normal form,
    its slots set through their descriptors (Cyc.__setattr__ raises)."""
    c = object.__new__(Cyc)
    _set_order(c, order)
    _set_num(c, num)
    _set_den(c, den)
    return c


def _cyc(order: int, num, den: int) -> "Cyc":
    """The Cyc num / den at this order, brought to normal form."""
    return _raw(order, *_normal(num, den))


class Cyc:
    """A cyclotomic number: element of Q(zeta_N) in canonical power-basis form.

    The value is ``sum(num[j] z^j) / den`` with integers ``num`` (phi(N) of
    them) and one positive integer ``den``, normalised so that
    ``gcd(den, *num) == 1``; equal values at one order are therefore equal
    tuples.  Products reduce modulo the monic integer Phi_N and sums
    cross-multiply the denominators, so arithmetic stays in Python integers.
    ``coeffs`` gives the same power-basis coefficients as Fractions.

    Mixed arithmetic with ``int`` and ``Fraction`` takes the rational side
    at the Cyc's own order, so Cyc values drop into generic field code
    transparently.
    """

    __slots__ = ("order", "num", "den")
    __hash__ = None  # values at distinct orders may be equal; do not hash

    ORDER_CAP = DEFAULT_ORDER_CAP

    def __init__(self, order: int, coeffs):
        if order < 1:
            raise ValueError("order must be a positive integer")
        coeffs = [Fraction(c) for c in coeffs]
        if len(coeffs) != euler_phi(order):
            raise ValueError(
                f"expected {euler_phi(order)} coefficients for order {order}, got {len(coeffs)}"
            )
        den = lcm(*(c.denominator for c in coeffs))
        num, den = _normal([c.numerator * (den // c.denominator) for c in coeffs], den)
        _set_order(self, order)
        _set_num(self, num)
        _set_den(self, den)

    def __setattr__(self, name, value):
        raise AttributeError("Cyc is immutable")

    def __delattr__(self, name):
        raise AttributeError("Cyc is immutable")

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The power-basis coefficients as Fractions."""
        return tuple(Fraction(x, self.den) for x in self.num)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_rat(x, order: int = 1) -> "Cyc":
        x = Fraction(x)
        return _raw(order, (x.numerator,) + (0,) * (euler_phi(order) - 1), x.denominator)

    @staticmethod
    def zeta(order: int, k: int = 1) -> "Cyc":
        """zeta_order**k, exponent reduced mod order."""
        if order < 1:
            raise ValueError("order must be a positive integer")
        return _zeta(order, k % order)

    # -- order handling ----------------------------------------------------

    def to_order(self, m: int) -> "Cyc":
        """Embed into Q(zeta_m); requires order | m."""
        if m == self.order:
            return self
        if m % self.order != 0:
            raise ValueError(f"cannot embed order {self.order} into order {m}")
        return _cyc(m, _galois(self.num, m // self.order, m), self.den)

    @staticmethod
    def _common(a: "Cyc", b: "Cyc") -> tuple["Cyc", "Cyc", int]:
        m = lcm(a.order, b.order)
        if m > Cyc.ORDER_CAP:
            raise OrderCapExceeded(
                f"lcm of cyclotomic orders {a.order} and {b.order} is {m}, "
                f"beyond the cap {Cyc.ORDER_CAP}"
            )
        return a.to_order(m), b.to_order(m), m

    @staticmethod
    def _coerce(x) -> "Cyc | None":
        if isinstance(x, Cyc):
            return x
        if isinstance(x, (int, Fraction)):
            return Cyc.from_rat(x)
        return None

    # -- predicates and accessors ------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.num)

    def __bool__(self) -> bool:
        return any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def rat(self) -> Fraction:
        """The value as a Fraction; raises if not rational."""
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        return Fraction(self.num[0], self.den)

    # -- ring / field operations --------------------------------------------

    def __add__(self, other):
        if isinstance(other, Cyc):
            a, b = self, other
            if a.order != b.order:
                a, b, _ = Cyc._common(a, b)
            da, db = a.den, b.den
            if da == db:
                num = [x + y for x, y in zip(a.num, b.num)]
            else:
                num = [x * db + y * da for x, y in zip(a.num, b.num)]
                da *= db
            return _cyc(a.order, num, da)
        if isinstance(other, (int, Fraction)):
            # the rational p/q is (p, 0, ..., 0) / q at every order
            p, q = other.numerator, other.denominator
            num = list(self.num) if q == 1 else [x * q for x in self.num]
            num[0] += p * self.den
            return _cyc(self.order, num, self.den * q)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return _raw(self.order, tuple(-x for x in self.num), self.den)

    def __sub__(self, other):
        o = Cyc._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = Cyc._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        if isinstance(other, Cyc):
            a, b = self, other
            if a.order != b.order:
                a, b, _ = Cyc._common(a, b)
            return _cyc(a.order, _mul_num(a.num, b.num, a.order), a.den * b.den)
        if isinstance(other, (int, Fraction)):
            # scalar fast path, no order lifting needed
            p = other.numerator
            return _cyc(self.order, [x * p for x in self.num], self.den * other.denominator)
        return NotImplemented

    __rmul__ = __mul__

    def inverse(self) -> "Cyc":
        if self.is_zero():
            raise CycDivisionError("division by zero cyclotomic number")
        n, num = self.order, self.num
        if self.is_rational():
            return _cyc(n, (self.den,) + num[1:], num[0])
        # 1/a = prod of the other Galois conjugates of a over the norm of a,
        # an integer since the conjugates of an integral a are integral
        rest = None
        for k in range(2, n):
            if gcd(k, n) == 1:
                conj = _galois(num, k, n)
                rest = conj if rest is None else _mul_num(rest, conj, n)
        norm = _mul_num(num, rest, n)[0]
        return _cyc(n, [self.den * x for x in rest], norm)

    def __truediv__(self, other):
        o = Cyc._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero():
            raise CycDivisionError("division by zero cyclotomic number")
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = Cyc._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        out = Cyc.from_rat(1, self.order)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, Cyc):
            a, b = self, other
            if a.order != b.order:
                a, b, _ = Cyc._common(a, b)
            return a.den == b.den and a.num == b.num
        if isinstance(other, (int, Fraction)):
            return (self.is_rational() and self.num[0] == other.numerator
                    and self.den == other.denominator)
        return NotImplemented

    def __ne__(self, other):
        eq = self.__eq__(other)
        if eq is NotImplemented:
            return eq
        return not eq

    # -- presentation --------------------------------------------------------

    def __repr__(self):
        if self.is_rational():
            return f"Cyc({format_rat(self.rat())})"
        terms = []
        for j, c in enumerate(self.coeffs):
            if not c:
                continue
            if j == 0:
                terms.append(format_rat(c))
            else:
                z = f"z{self.order}" + (f"^{j}" if j > 1 else "")
                terms.append(z if c == 1 else f"{format_rat(c)}*{z}")
        return "Cyc(" + " + ".join(terms) + ")"

    def to_json(self) -> dict:
        return {"order": self.order, "coeffs": [format_rat(c) for c in self.coeffs]}


_set_order, _set_num, _set_den = (Cyc.__dict__[name].__set__ for name in Cyc.__slots__)


def root(N: int, e: int) -> "int | Cyc":
    """zeta_N**e: the int 1 when e = 0 and the int -1 when 2e = N (exponent
    reduced mod N), where it is rational, and the Cyc :meth:`Cyc.zeta` else."""
    if N < 1:
        raise ValueError("order must be a positive integer")
    e %= N
    if not e:
        return 1
    return -1 if 2 * e == N else Cyc.zeta(N, e)


@lru_cache(maxsize=None)
def _zeta(order: int, k: int) -> Cyc:
    """zeta_order**k for 0 <= k < order; shared, which is safe as Cyc is immutable."""
    return _raw(order, _powers(order)[k], 1)

