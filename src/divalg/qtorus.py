"""Quantum torus arithmetic at roots of unity.

The commutation data is a d x d integer exponent matrix k at a common order
N: the (i, j) commutation scalar is q_ij = zeta_N^{k_ij}, with k_ii = 0 and
k_ij + k_ji = 0 (mod N) so that q_ij = q_ji^{-1}.  Monomials multiply by

    t^m t^n = sigma(m, n) t^{m + n},    sigma(m, n) = prod_{i<j} q_ji^{m_j n_i},

and the commutation form f(m, n) = sigma(m, n) / sigma(n, m) has exponent
sum_{i,j} k_ji m_j n_i = m^T k n.  The radical is the sublattice of degrees
whose monomials commute with everything, computed as an integer kernel mod N
by one Hermite normal form.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import gcd, lcm

from .lattices import smith_kernel_mod
from .scalars import Cyc, root


@dataclass(frozen=True)
class QMatrix:
    """Commutation matrix q_ij = zeta_N^{exps[i][j]}.

    Each instance keeps, outside the fields (so equality and hashing ignore
    them), the nonzero exponents k_ji (i < j) that :func:`sigma_exponent`
    sums; the column table ``_k_cols``, which lists each column i of k with
    an entry nonzero mod N as ``(i, ((j, k_ji mod N), ...))`` over those
    entries only, and from which :func:`in_rad`, :func:`f_exponent` and
    :func:`ad_form` read the form f(m, n) = m^T k n; and,
    once :func:`cocycle` asks, whether sigma is 1 on Rad_q x Z^d.
    """

    d: int
    N: int
    exps: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("dimension must be positive")
        if self.N < 1:
            raise ValueError("order must be positive")
        if len(self.exps) != self.d or any(len(r) != self.d for r in self.exps):
            raise ValueError("exponent matrix shape mismatch")
        for i in range(self.d):
            if self.exps[i][i] != 0:
                raise ValueError("diagonal exponents must be zero")
            for j in range(self.d):
                if (self.exps[i][j] + self.exps[j][i]) % self.N:
                    raise ValueError("exponent matrix must be skew modulo N")
        object.__setattr__(self, "_sigma_terms", tuple(
            (i, j, self.exps[j][i]) for i in range(self.d) for j in range(i + 1, self.d)
            if self.exps[j][i]))
        cols = ((i, tuple((j, k) for j in range(self.d) if (k := self.exps[j][i] % self.N)))
                for i in range(self.d))
        object.__setattr__(self, "_k_cols", tuple(c for c in cols if c[1]))

    @cached_property
    def _sigma_trivial(self) -> bool:
        """sigma(b, e_i) = 1 for every radical basis row b and every i."""
        units = [tuple(int(t == i) for t in range(self.d)) for i in range(self.d)]
        return not any(sigma_exponent(self, b, e) for b in _rad_basis(self) for e in units)

    @staticmethod
    def from_exps(n: int, exps) -> "QMatrix":
        exps = tuple(tuple(int(x) for x in row) for row in exps)
        return QMatrix(len(exps), n, exps)


def sigma_exponent(q: QMatrix, m, n) -> int:
    """Exponent of zeta_N in sigma(m, n), reduced mod N."""
    if len(m) != q.d or len(n) != q.d:
        raise ValueError("degree dimension mismatch")
    e = 0
    for i, j, kji in q._sigma_terms:
        e += kji * m[j] * n[i]
    return e % q.N


def f_exponent(q: QMatrix, m, n) -> int:
    """Exponent of zeta_N in f(m, n) = sigma(m, n)/sigma(n, m): m^T k n mod N,
    the sum of n_i times (column i of k) . m over the column table."""
    if len(m) != q.d or len(n) != q.d:
        raise ValueError("degree dimension mismatch")
    e = 0
    for i, col in q._k_cols:
        if n[i]:
            for j, k in col:
                e += n[i] * k * m[j]
    return e % q.N


def ad_form(q: QMatrix, m) -> tuple[tuple[int, int], ...]:
    """The linear form n -> m^T k n mod N, the exponent of f(m, n), as its
    nonzero coefficients (i, c_i), c_i = (column i of k) . m mod N, read off
    the column table.  ``ad t^m`` kills the fiber at n exactly when
    sum_i c_i n_i = 0 mod N, and the form is empty exactly when m is
    radical."""
    N = q.N
    return tuple((i, c) for i, col in q._k_cols if (c := sum(k * m[j] for j, k in col) % N))


def sigma(q: QMatrix, m, n) -> int | Cyc:
    """The multiplication cocycle: t^m t^n = sigma(m, n) t^{m+n}, as the
    :func:`~divalg.scalars.root` of its exponent (an int where rational)."""
    return root(q.N, sigma_exponent(q, m, n))


def cocycle(q: QMatrix):
    """sigma as a callable (m, n) -> scalar for a radical m, the ``cocycle``
    argument of :func:`~divalg.witt.bracket_witt` and
    :func:`~divalg.modules.operator`; like :func:`sigma` it gives the int 1
    at exponent 0, so those skip the multiplication, and the int -1 where
    zeta_N^e = -1 (2e = N), so they multiply by an int.

    None when sigma(b, e_i) = 1 for every radical basis row b and every i,
    as for every block-normal q: sigma is bimultiplicative, so it is then 1
    on all of Rad_q x Z^d.  That is decided once per matrix.
    """
    if q._sigma_trivial:
        return None
    N = q.N

    def sig(m, n):
        return root(N, sigma_exponent(q, m, n))
    return sig


def commutator_coeff(q: QMatrix, m, n) -> int | Cyc | None:
    """sigma(m, n) - sigma(n, m), so that [t^m, t^n] = c t^{m+n}; None when
    it is zero, that is when the two exponents agree mod N.  Each
    coefficient is built once per exponent pair."""
    e1, e2 = sigma_exponent(q, m, n), sigma_exponent(q, n, m)
    return None if e1 == e2 else _zeta_difference(q.N, e1, e2)


@lru_cache(maxsize=1024)
def _zeta_difference(N: int, e1: int, e2: int) -> int | Cyc:
    return root(N, e1) - root(N, e2)


def f_form(q: QMatrix, m, n) -> int | Cyc:
    """The commutation form: t^m t^n = f(m, n) t^n t^m, an int where rational."""
    return root(q.N, f_exponent(q, m, n))


def rad_q(q: QMatrix) -> list[list[int]]:
    """HNF basis of Rad_q = {n : f(n, m) = 1 for all m} = ker(k^T mod N),
    as fresh lists; the basis is computed once per matrix."""
    return [list(row) for row in _rad_basis(q)]


@lru_cache(maxsize=256)
def _rad_basis(q: QMatrix) -> tuple[tuple[int, ...], ...]:
    kt = [[q.exps[j][i] for j in range(q.d)] for i in range(q.d)]
    return tuple(map(tuple, smith_kernel_mod(kt, q.N)))


def in_rad(q: QMatrix, n) -> bool:
    """Membership in Rad_q, directly via f(n, e_i) = 1 for all i: n pairs to
    0 mod N with every column of the column table."""
    N = q.N
    for _, col in q._k_cols:
        s = 0
        for j, k in col:
            s += k * n[j]
        if s % N:
            return False
    return True


def block_normal_q(l) -> QMatrix:
    """Commutation matrix in block-normal form from the order vector l.

    Coordinates pair up as (1,2), (3,4), ... with q_{2i-1,2i} a primitive
    root of order l_{2i-1} = l_{2i} >= 2; trailing coordinates have l_i = 1
    and commute with everything.
    """
    l = tuple(int(x) for x in l)
    d = len(l)
    if d < 1 or any(x < 1 for x in l):
        raise ValueError("l must be a vector of positive integers")
    pairs = []
    pos = 0
    while pos < d and l[pos] > 1:
        if pos + 1 >= d or l[pos + 1] != l[pos]:
            raise ValueError("paired entries of l must come in equal pairs >= 2")
        pairs.append(pos)
        pos += 2
    if any(x != 1 for x in l[pos:]):
        raise ValueError("trailing entries of l must all be 1")
    n = lcm(*l)
    exps = [[0] * d for _ in range(d)]
    for p in pairs:
        exps[p][p + 1] = n // l[p]
        exps[p + 1][p] = -(n // l[p])
    return QMatrix(d, n, tuple(tuple(r) for r in exps))


def block_structure(q: QMatrix) -> tuple[int, ...] | None:
    """Recover the order vector l from a block-normal QMatrix, else None.

    Block-normal means: leading coordinate pairs (1,2), (3,4), ... each
    carrying a primitive root of some order >= 2, and every other pair of
    coordinates commuting.
    """
    d, n = q.d, q.N
    l = [1] * d
    pos = 0
    while pos + 1 < d:
        a = q.exps[pos][pos + 1] % n
        if a == 0:
            break
        if (q.exps[pos + 1][pos] + a) % n:
            return None
        l[pos] = l[pos + 1] = n // gcd(a, n)
        pos += 2
    for i in range(d):
        for j in range(d):
            if i < pos and j < pos and i != j and i // 2 == j // 2:
                continue  # inside a designated pair
            if q.exps[i][j] % n:
                return None
    return tuple(l)


def cocycle_identities_residual(q: QMatrix, m, n, r) -> tuple:
    """(f(m,n) - sigma(m,n)/sigma(n,m),  f(m+n,r) - f(m,r) f(n,r),
    f(m,n+r) - f(m,n) f(m,r)); all 0.  The quotient is exact: sigma(m, n)
    times the root of -e(n, m)."""
    first = f_form(q, m, n) - sigma(q, m, n) * root(q.N, -sigma_exponent(q, n, m))
    mn = tuple(x + y for x, y in zip(m, n))
    nr = tuple(x + y for x, y in zip(n, r))
    fmr = f_form(q, m, r)
    second = f_form(q, mn, r) - fmr * f_form(q, n, r)
    third = f_form(q, m, nr) - f_form(q, m, n) * fmr
    return first, second, third


def sigma_cocycle_residual(q: QMatrix, m, n, r) -> int | Cyc:
    """sigma(m,n) sigma(m+n,r) - sigma(n,r) sigma(m,n+r); the associativity
    cocycle identity, must vanish."""
    mn = tuple(x + y for x, y in zip(m, n))
    nr = tuple(x + y for x, y in zip(n, r))
    return sigma(q, m, n) * sigma(q, mn, r) - sigma(q, n, r) * sigma(q, m, nr)
