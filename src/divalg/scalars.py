"""Exact scalar arithmetic: rationals and cyclotomic numbers.

Rationals are plain :class:`fractions.Fraction` values (aliased ``Rat``);
this module only adds string parsing/formatting for the "p/q" wire format.

:class:`Cyc` is an element of the cyclotomic field Q(zeta_N) at one order
N, stored in the power basis ``1, z, ..., z^(phi(N)-1)`` of Q[x]/(Phi_N),
where Phi_N is the N-th cyclotomic polynomial.  Reducing modulo Phi_N
(rather than x^N - 1) makes the representation canonical, so equality of
values is coefficientwise equality.  Every Cyc of a job has the order of
its q, so nothing lifts between orders: mixing two orders is an error.
:func:`root` is the q side's one root-of-unity constructor.

All values are immutable and all operations are pure.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd

Rat = Fraction


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
    if type(x) is int:
        return str(x)
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


@lru_cache(maxsize=None)
def _powers(n: int) -> tuple[tuple[int, ...], ...]:
    """x^k mod Phi_n as integer rows of length phi(n), for 0 <= k <
    max(n, 2 phi(n) - 1): every power that a product or a Galois conjugate
    looks up."""
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
    vector at order n."""
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
    """The Cyc num / den at this order, brought to normal form; over the
    denominator 1 it is in normal form already."""
    if den == 1:
        return _raw(order, tuple(num), 1)
    return _raw(order, *_normal(num, den))


class Cyc:
    """A cyclotomic number: element of Q(zeta_N) in canonical power-basis form.

    The value is ``sum(num[j] z^j) / den`` with integers ``num`` (phi(N) of
    them) and one positive integer ``den``, normalised so that
    ``gcd(den, *num) == 1``; equal values are therefore equal tuples.
    Products reduce modulo the monic integer Phi_N and sums cross-multiply
    the denominators, so arithmetic stays in Python integers.  ``coeffs``
    gives the same power-basis coefficients as Fractions.

    Values are built by :meth:`zeta` (and ``_raw``/``_cyc``), and every
    ``Cyc`` of a job has the order N of its q.  Arithmetic and ``==``
    therefore stay at one order: two different orders raise ``ValueError``
    rather than lift.  An ``int`` or ``Fraction`` operand is taken at the
    Cyc's own order, so Cyc values drop into generic ring code.  There is no
    division operator; :meth:`inverse` stays as the field inverse through
    the Galois conjugates, which the benchmark's layer tracing resolves by
    name.
    """

    __slots__ = ("order", "num", "den")
    __hash__ = None  # equal to ints and Fractions, whose hashes it does not share

    #: Largest root-of-unity order of a q that the CLI accepts.
    ORDER_CAP = 360

    def __setattr__(self, name, value):
        raise AttributeError("Cyc is immutable")

    def __delattr__(self, name):
        raise AttributeError("Cyc is immutable")

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The power-basis coefficients as Fractions."""
        return tuple(Fraction(x, self.den) for x in self.num)

    @staticmethod
    def zeta(order: int, k: int = 1) -> "Cyc":
        """zeta_order**k, exponent reduced mod order."""
        if order < 1:
            raise ValueError("order must be a positive integer")
        return _zeta(order, k % order)

    def __bool__(self) -> bool:
        return any(self.num)

    # -- ring operations -----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Cyc):
            if self.order != other.order:
                raise _mixed_orders(self, other)
            da, db = self.den, other.den
            if da == db:
                num = [x + y for x, y in zip(self.num, other.num)]
            else:
                num = [x * db + y * da for x, y in zip(self.num, other.num)]
                da *= db
            return _cyc(self.order, num, da)
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
        return self + (-other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if isinstance(other, Cyc):
            if self.order != other.order:
                raise _mixed_orders(self, other)
            return _cyc(self.order, _mul_num(self.num, other.num, self.order),
                        self.den * other.den)
        if isinstance(other, (int, Fraction)):
            p = other.numerator
            return _cyc(self.order, [x * p for x in self.num], self.den * other.denominator)
        return NotImplemented

    __rmul__ = __mul__

    def inverse(self) -> "Cyc":
        n, num = self.order, self.num
        if not any(num):
            raise ZeroDivisionError("inverse of the zero cyclotomic number")
        if not any(num[1:]):
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

    def __eq__(self, other):
        if isinstance(other, Cyc):
            if self.order != other.order:
                raise _mixed_orders(self, other)
            return self.den == other.den and self.num == other.num
        if isinstance(other, (int, Fraction)):
            return (not any(self.num[1:]) and self.num[0] == other.numerator
                    and self.den == other.denominator)
        return NotImplemented

    # -- presentation --------------------------------------------------------

    def __repr__(self):
        terms = []
        for j, c in enumerate(self.coeffs):
            if not c:
                continue
            if j == 0:
                terms.append(format_rat(c))
            else:
                z = f"z{self.order}" + (f"^{j}" if j > 1 else "")
                terms.append(z if c == 1 else f"{format_rat(c)}*{z}")
        return "Cyc(" + (" + ".join(terms) or "0") + ")"

    def to_json(self) -> dict:
        return {"order": self.order, "coeffs": [format_rat(c) for c in self.coeffs]}


def _mixed_orders(a: Cyc, b: Cyc) -> ValueError:
    return ValueError(f"cyclotomic orders {a.order} and {b.order} differ; "
                      f"a Cyc meets only values of its own order")


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

