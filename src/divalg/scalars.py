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
    """Parse "p/q" or "p" into an exact rational."""
    if isinstance(s, int):
        return Fraction(s)
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


def _reduce_mod_phi(coeffs: list[Fraction], n: int) -> tuple[Fraction, ...]:
    """Remainder of a rational polynomial modulo Phi_n, padded to phi(n)."""
    phi = list(cyclotomic_polynomial(n))
    deg = len(phi) - 1
    a = list(coeffs)
    while len(a) > deg:
        c = a[-1]
        k = len(a) - 1 - deg
        if c:
            for i in range(deg + 1):
                a[k + i] -= c * phi[i]
        del a[-1]
    a.extend([Fraction(0)] * (deg - len(a)))
    return tuple(Fraction(c) for c in a)


def _poly_ext_inverse(a: tuple[Fraction, ...], n: int) -> list[Fraction]:
    """Inverse of ``a`` modulo Phi_n via the extended Euclidean algorithm."""
    def trim(p):
        while p and not p[-1]:
            p.pop()
        return p

    def divmod_q(x, y):
        x = list(x)
        q = [Fraction(0)] * max(0, len(x) - len(y) + 1)
        inv_lead = 1 / y[-1]
        while len(x) >= len(y):
            c = x[-1] * inv_lead
            k = len(x) - len(y)
            if c:
                q[k] = c
                for i, yi in enumerate(y):
                    x[k + i] -= c * yi
            del x[-1]
            trim(x)
        return q, x

    def sub_mul(p, q, m):
        # p - q*m
        out = list(p) + [Fraction(0)] * max(0, len(q) + len(m) - 1 - len(p))
        for i, qi in enumerate(q):
            if not qi:
                continue
            for j, mj in enumerate(m):
                out[i + j] -= qi * mj
        return trim(out)

    r0 = [Fraction(c) for c in cyclotomic_polynomial(n)]
    r1 = trim([Fraction(c) for c in a])
    s0, s1 = [], [Fraction(1)]
    while r1:
        q, r = divmod_q(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, sub_mul(s0, q, s1)
    # r0 is gcd(a, Phi_n): a nonzero constant since Phi_n is irreducible
    assert len(r0) == 1, "element not invertible modulo an irreducible polynomial?"
    c = r0[0]
    return [si / c for si in s0]


class Cyc:
    """A cyclotomic number: element of Q(zeta_N) in canonical power-basis form.

    Mixed arithmetic with ``int`` and ``Fraction`` coerces the rational side
    to order 1 (or the Cyc's own order) first, so Cyc values drop into
    generic field code transparently.
    """

    __slots__ = ("order", "coeffs")
    __hash__ = None  # values at distinct orders may be equal; do not hash

    ORDER_CAP = DEFAULT_ORDER_CAP

    def __init__(self, order: int, coeffs):
        if order < 1:
            raise ValueError("order must be a positive integer")
        coeffs = tuple(Fraction(c) for c in coeffs)
        if len(coeffs) != euler_phi(order):
            raise ValueError(
                f"expected {euler_phi(order)} coefficients for order {order}, got {len(coeffs)}"
            )
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("Cyc is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_rat(x, order: int = 1) -> "Cyc":
        x = Fraction(x)
        coeffs = [Fraction(0)] * euler_phi(order)
        if euler_phi(order) > 0:
            coeffs[0] = x
        c = Cyc.__new__(Cyc)
        object.__setattr__(c, "order", order)
        object.__setattr__(c, "coeffs", _reduce_mod_phi(coeffs, order))
        return c

    @staticmethod
    def zeta(order: int, k: int = 1) -> "Cyc":
        """zeta_order**k, exponent reduced mod order."""
        if order < 1:
            raise ValueError("order must be a positive integer")
        k %= order
        poly = [Fraction(0)] * (k + 1)
        poly[k] = Fraction(1)
        c = Cyc.__new__(Cyc)
        object.__setattr__(c, "order", order)
        object.__setattr__(c, "coeffs", _reduce_mod_phi(poly, order))
        return c

    # -- order handling ----------------------------------------------------

    def to_order(self, m: int) -> "Cyc":
        """Embed into Q(zeta_m); requires order | m."""
        if m == self.order:
            return self
        if m % self.order != 0:
            raise ValueError(f"cannot embed order {self.order} into order {m}")
        step = m // self.order
        poly = [Fraction(0)] * ((len(self.coeffs) - 1) * step + 1)
        for j, c in enumerate(self.coeffs):
            if c:
                poly[j * step] = c
        out = Cyc.__new__(Cyc)
        object.__setattr__(out, "order", m)
        object.__setattr__(out, "coeffs", _reduce_mod_phi(poly, m))
        return out

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
        return all(not c for c in self.coeffs)

    def __bool__(self) -> bool:
        return not self.is_zero()

    def is_rational(self) -> bool:
        return all(not c for c in self.coeffs[1:])

    def rat(self) -> Fraction:
        """The value as a Fraction; raises if not rational."""
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        return self.coeffs[0]

    # -- ring / field operations --------------------------------------------

    def __add__(self, other):
        o = Cyc._coerce(other)
        if o is None:
            return NotImplemented
        a, b, m = Cyc._common(self, o)
        return Cyc(m, [x + y for x, y in zip(a.coeffs, b.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return Cyc(self.order, [-c for c in self.coeffs])

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
        o = Cyc._coerce(other)
        if o is None:
            return NotImplemented
        if isinstance(other, (int, Fraction)):
            # scalar fast path, no order lifting needed
            f = Fraction(other)
            return Cyc(self.order, [c * f for c in self.coeffs])
        a, b, m = Cyc._common(self, o)
        prod = [Fraction(0)] * (len(a.coeffs) + len(b.coeffs) - 1)
        for i, x in enumerate(a.coeffs):
            if not x:
                continue
            for j, y in enumerate(b.coeffs):
                if y:
                    prod[i + j] += x * y
        return Cyc(m, _reduce_mod_phi(prod, m))

    __rmul__ = __mul__

    def inverse(self) -> "Cyc":
        if self.is_zero():
            raise CycDivisionError("division by zero cyclotomic number")
        if self.is_rational():
            return Cyc.from_rat(1 / self.coeffs[0], self.order)
        inv = _poly_ext_inverse(self.coeffs, self.order)
        return Cyc(self.order, _reduce_mod_phi(inv, self.order))

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
        o = Cyc._coerce(other)
        if o is None:
            return NotImplemented
        if self.order == o.order:
            return self.coeffs == o.coeffs
        a, b, _ = Cyc._common(self, o)
        return a.coeffs == b.coeffs

    def __ne__(self, other):
        eq = self.__eq__(other)
        if eq is NotImplemented:
            return eq
        return not eq

    # -- presentation --------------------------------------------------------

    def __repr__(self):
        if self.is_rational():
            return f"Cyc({format_rat(self.coeffs[0])})"
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

    @staticmethod
    def from_json(obj: dict) -> "Cyc":
        return Cyc(obj["order"], [parse_rat(c) for c in obj["coeffs"]])


def root_of_unity(n: int, k: int) -> Cyc:
    """zeta_n**k in canonical form; root_of_unity(n, 0) == 1."""
    return Cyc.zeta(n, k)


def cyc_arith(a: Cyc, b: Cyc, op: str) -> Cyc:
    """Field arithmetic dispatcher over {add, sub, mul, div}."""
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    if op == "div":
        return a / b
    raise ValueError(f"unknown operation {op!r}")
