"""Exact dense linear algebra over the rationals.

Vectors hold ints and Fractions.  There is one elimination routine,
:func:`_reduce_into`: it folds a vector into a fraction-free echelon of
primitive integer rows keyed by pivot column, and :func:`basis_of` brings
that echelon by one back-substitution pass to reduced row-echelon form,
which is canonical for a given row space, so results never depend on the
order vectors were fed in.  :func:`_primitive` reads an all-int vector
without looking for Fraction entries (it tries ``gcd`` first); the closure
engine keeps its accepted rows in that primitive form.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm


@dataclass(frozen=True)
class SpanBasis:
    """RREF basis of a subspace: pivot entries are 1 and alone in their column."""

    ambient_dim: int
    rows: tuple[tuple, ...]
    pivot_cols: tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)


def _primitive(vals: list) -> list:
    """Canonical representative of the ray through a nonzero rational
    vector: primitive integral with a positive leading entry.  An all-int
    vector is read without a type scan: only when ``gcd`` refuses an entry
    are the denominators cleared."""
    try:
        g = gcd(*vals)
    except TypeError:  # a Fraction entry
        mult = lcm(*(x.denominator for x in vals))
        vals = [int(x * mult) for x in vals]
        g = gcd(*vals)
    for x in vals:  # the sign of the first nonzero entry
        if x:
            if x < 0:
                g = -g
            break
    return vals if g == 1 else [x // g for x in vals]


def _reduce_into(rows: dict, v: list) -> list | None:
    """Reduce the nonzero vector ``v`` against the echelon ``rows``, which
    maps each pivot column to the primitive row whose first nonzero entry
    it is; store and return the primitive form of what is left if it is
    nonzero, else return None."""
    v = _primitive(v)
    b, end = 0, len(v)
    while True:
        while not v[b]:  # step to the next nonzero entry, the candidate pivot
            b += 1
            if b == end:
                return None
        row = rows.get(b)
        if row is None:
            row = rows[b] = _primitive(v)
            return row
        # entries before b are 0 in v and in row, and stay 0
        g = gcd(v[b], row[b])
        ca, cb = row[b] // g, v[b] // g
        if ca == 1:
            v = [x - cb * y if y else x for x, y in zip(v, row)]
        else:
            v = [ca * x - cb * y for x, y in zip(v, row)]


def basis_of(vectors, ambient_dim: int) -> SpanBasis:
    """RREF basis of the span of ``vectors``."""
    echelon: dict = {}
    for vec in vectors:
        v = list(vec)
        if len(v) != ambient_dim:
            raise ValueError(f"vector length {len(v)} != ambient dim {ambient_dim}")
        if any(v):
            _reduce_into(echelon, v)
    pivots = sorted(echelon)
    rows = [echelon[p] for p in pivots]
    # back-substitution: bottom up, scale each pivot to 1 and clear its column
    # from the rows above
    for k in range(len(rows) - 1, -1, -1):
        p, row = pivots[k], rows[k]
        if row[p] != 1:
            inv = Fraction(1, row[p])
            row = rows[k] = [inv * x for x in row]
        for t in range(k):
            c = rows[t][p]
            if c:
                rows[t] = [x - c * y if y else x for x, y in zip(rows[t], row)]
    return SpanBasis(ambient_dim, tuple(map(tuple, rows)), tuple(pivots))


def span_contains(b: SpanBasis, v) -> bool:
    """True iff v reduces to zero against the basis rows."""
    v = list(v)
    if len(v) != b.ambient_dim:
        raise ValueError("vector length does not match ambient dimension")
    for row, p in zip(b.rows, b.pivot_cols):
        c = v[p]
        if c:
            v = [x - c * y if y else x for x, y in zip(v, row)]
    return not any(v)


def same_span(a: SpanBasis, b: SpanBasis) -> bool:
    """Exact subspace equality: RREF is canonical, so the rows agree."""
    return a.ambient_dim == b.ambient_dim and a.rows == b.rows
