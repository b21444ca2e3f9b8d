"""Witt algebra elements and the divergence-zero subalgebras.

Homogeneous elements are written D(u, r) = t^r sum_i u_i d_i with d_i the
i-th degree derivation; a general element is a finite sum of these, stored
per degree.  The bracket is

    [D(u, r), D(v, s)] = D((u|s) v - (v|r) u, r + s).

Membership predicates implement the divergence-zero condition (u|r) = 0 for
every nonzero degree, with (in_Lhat) or without (in_L) an unrestricted
degree-zero part; ``ALGEBRAS`` names each classical algebra with its test.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, mul, sub

DegVec = tuple[int, ...]


def pairing(u, v):
    """The standard bilinear form (u|v) = sum u_i v_i."""
    if len(u) != len(v):
        raise ValueError("dimension mismatch in pairing")
    return sum(a * b for a, b in zip(u, v))


def _as_deg(r) -> DegVec:
    return tuple(int(x) for x in r)


def add_term(terms: dict, r, u) -> None:
    """Add the vector u into ``terms[r]``, creating the entry if absent.  A sum
    that cancels stays as a zero vector; the AlgElem or GradedVec built from
    ``terms`` drops it."""
    prev = terms.get(r)
    terms[r] = u if prev is None else tuple(map(add, prev, u))


class AlgElem:
    """A finite sum of D(u, r) terms, combined per degree r."""

    __slots__ = ("d", "terms")

    def __init__(self, d: int, terms: dict[DegVec, tuple] | None = None):
        self.d = d
        clean: dict[DegVec, tuple] = {}
        for r, u in (terms or {}).items():
            if len(r) != d or len(u) != d:
                raise ValueError("term dimension mismatch")
            if any(u):
                clean[_as_deg(r)] = tuple(u)
        self.terms = clean

    @classmethod
    def _trusted(cls, d: int, terms: dict[DegVec, tuple]) -> "AlgElem":
        """An element from ``terms`` whose keys are already int tuples and
        whose values are tuples, both of length d; only zero vectors are
        dropped."""
        x = object.__new__(cls)
        x.d = d
        x.terms = {r: u for r, u in terms.items() if any(u)}
        return x

    @staticmethod
    def zero(d: int) -> "AlgElem":
        return AlgElem(d)

    @staticmethod
    def term(u, r) -> "AlgElem":
        u = tuple(u)
        return AlgElem(len(u), {_as_deg(r): u})

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "AlgElem") -> "AlgElem":
        if other.d != self.d:
            raise ValueError("dimension mismatch")
        out = dict(self.terms)
        for r, u in other.terms.items():
            add_term(out, r, u)
        return AlgElem._trusted(self.d, out)

    def __neg__(self) -> "AlgElem":
        return AlgElem._trusted(self.d, {r: tuple(-c for c in u) for r, u in self.terms.items()})

    def __sub__(self, other: "AlgElem") -> "AlgElem":
        if other.d != self.d:
            raise ValueError("dimension mismatch")
        out = dict(self.terms)
        get = out.get
        for r, u in other.terms.items():
            prev = get(r)
            out[r] = tuple([-c for c in u]) if prev is None else tuple(map(sub, prev, u))
        return AlgElem._trusted(self.d, out)

    def scale(self, c) -> "AlgElem":
        return AlgElem._trusted(self.d, {r: tuple(c * x for x in u)
                                         for r, u in self.terms.items()})

    def __eq__(self, other):
        if not isinstance(other, AlgElem):
            return NotImplemented
        return self.d == other.d and (self - other).is_zero()

    __hash__ = None

    def __repr__(self):
        if not self.terms:
            return "AlgElem(0)"
        bits = [f"D({list(u)}, {list(r)})" for r, u in sorted(self.terms.items())]
        return " + ".join(bits)


def bracket_witt(x: AlgElem, y: AlgElem, cocycle=None) -> AlgElem:
    """Bilinear extension of [D(u,r), D(v,s)] = D((u|s)v - (v|r)u, r+s).

    With ``cocycle``, the (r, s) term is scaled by ``cocycle(r, s)``: the
    quantum torus bracket of outer derivations, with sigma as the cocycle.
    """
    if x.d != y.d:
        raise ValueError("dimension mismatch in bracket")
    out: dict[DegVec, tuple] = {}
    get = out.get
    for r, u in x.terms.items():
        for s, v in y.terms.items():
            a = sum(map(mul, u, s))
            b = sum(map(mul, v, r))
            if not (a or b):
                continue
            w = tuple([a * vi - b * ui for ui, vi in zip(u, v)])
            if any(w):
                if cocycle is not None and (c := cocycle(r, s)) != 1:
                    w = tuple([c * wi for wi in w])
                rs = tuple(map(add, r, s))
                prev = get(rs)
                out[rs] = w if prev is None else tuple(map(add, prev, w))
    return AlgElem._trusted(x.d, out)


def d_basis(r, i: int) -> tuple:
    """The coefficient vector u of the spanning element
    D(u, r) = t^r (r_{i+1} d_i - r_i d_{i+1}) of the divergence-zero
    algebra; valid for 1 <= i <= d-1."""
    r = _as_deg(r)
    d = len(r)
    if not 1 <= i <= d - 1:
        raise IndexError(f"index must be in 1..{d - 1}")
    u = [0] * d
    u[i - 1] = r[i]
    u[i] = -r[i - 1]
    return tuple(u)


def pair_term(r, i: int, j: int) -> tuple:
    """The coefficient vector u of D(u, r) = t^r (r_j d_i - r_i d_j) for any
    pair i < j; these span the full divergence-zero component
    {u : (u|r) = 0} at each degree r != 0."""
    r = _as_deg(r)
    d = len(r)
    if not (1 <= i <= d and 1 <= j <= d and i != j):
        raise IndexError("pair indices out of range")
    u = [0] * d
    u[i - 1] = r[j - 1]
    u[j - 1] = -r[i - 1]
    return tuple(u)


def in_Lhat(x: AlgElem) -> bool:
    """Divergence zero at every nonzero degree; degree 0 unrestricted."""
    zero = (0,) * x.d
    return all(r == zero or pairing(u, r) == 0 for r, u in x.terms.items())


def in_L(x: AlgElem) -> bool:
    """in_Lhat and no degree-zero part."""
    zero = (0,) * x.d
    return in_Lhat(x) and zero not in x.terms


#: The classical algebras, each with its membership test: W holds every
#: element, Lhat and L are its divergence-zero subalgebras.
ALGEBRAS = {"W": lambda x: True, "Lhat": in_Lhat, "L": in_L}


def lemma_orthg(m, n, u) -> tuple:
    """Given n != 0 and (u|n) = 0, produce u' with (u'|m) = 0 and
    (u' - x u | m - x n) = 0 for every scalar x.

    Writes u = sum_{i != j} a_i (n_i e_j - n_j e_i) over the smallest j with
    n_j != 0 and transplants the coefficients onto m.
    """
    m = _as_deg(m)
    n = _as_deg(n)
    u = tuple(u)
    d = len(n)
    if len(m) != d or len(u) != d:
        raise ValueError("dimension mismatch")
    if not any(n):
        raise ValueError("n must be nonzero")
    if pairing(u, n) != 0:
        raise ValueError("u must be orthogonal to n")
    j = next(k for k in range(d) if n[k])
    out = [Fraction(0)] * d
    for i in range(d):
        if i == j:
            continue
        a = -Fraction(u[i], n[j])
        if not a:
            continue
        # a_i * (m_i e_j - m_j e_i)
        out[j] += a * m[i]
        out[i] -= a * m[j]
    return tuple(out)

