"""Exact dense linear algebra over Rat or Cyc scalars.

Everything here is generic over any exact field scalar supporting +, -, *, /
and truthiness (Fraction, Cyc, and plain ints mixed in).  There is one
elimination routine, :func:`_reduce_into`: it folds a block row ``{block:
dense coordinates}`` into a fraction-free echelon of primitive integer (or
monic cyclotomic) rows.  The closure engine keeps the span of a multi-block
closure in exactly that form; a graded closure decides membership from
per-fiber annihilators and only rescales its rows by :func:`_primitive`.  A
single-block row reduced by a single-block pivot row is one list combine (a
gcd of the two pivots on ints, an exact quotient otherwise), and a new
single-block row is its primitive block; only rows over several blocks go
through the block-row helpers.  :func:`_primitive` reads an all-int vector
without looking for Fraction or Cyc entries.  Bases of a single space are
that echelon on one block, brought by one back-substitution pass to reduced
row-echelon form, which is canonical for a given row space, so results never
depend on the order vectors were fed in.

Cyclotomic rows reach :func:`_reduce_into` and :func:`_primitive` only from
q-closures of seeds supported on several degrees, which no CLI config makes
(every config seed sits at one degree): the closure drops the q scalar of
single-block images, so graded q-closures run on integer rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .scalars import Cyc, exact_div


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
    """Canonical representative of the ray through a nonzero vector: monic
    when it needs cyclotomic entries, else primitive integral with a positive
    leading entry."""
    if not all(isinstance(x, int) for x in vals):
        if any(isinstance(x, Cyc) for x in vals):
            inv = exact_div(1, next(x for x in vals if x))
            vals = [inv * x for x in vals]
            vals = [y.rat() if isinstance(y, Cyc) and y.is_rational() else y for y in vals]
            if any(isinstance(y, Cyc) for y in vals):
                return vals
        if any(isinstance(x, Fraction) for x in vals):
            mult = lcm(*(x.denominator for x in vals if isinstance(x, Fraction)))
            vals = [int(x * mult) for x in vals]
    g = gcd(*vals)
    if next(x for x in vals if x) < 0:
        g = -g
    return vals if g == 1 else [x // g for x in vals]


def _normalize_row(v: dict) -> dict:
    """The nonzero block row ``v`` as a primitive row with sorted blocks."""
    keys = sorted(v)
    flat = _primitive([x for i in keys for x in v[i]])
    w = len(flat) // len(keys)
    return {i: flat[k * w:(k + 1) * w] for k, i in enumerate(keys)}


def _combine(v: dict, row: dict, ca, cb) -> dict:
    """ca * v - cb * row over block rows, dropping blocks that vanish."""
    out = {}
    for j, vb in v.items():
        rb = row.get(j)
        if rb is None:
            blk = vb if ca == 1 else [ca * x for x in vb]
        elif ca == 1:
            blk = [x - cb * y if y else x for x, y in zip(vb, rb)]
        else:
            blk = [ca * x - cb * y for x, y in zip(vb, rb)]
        if any(blk):
            out[j] = blk
    for j, rb in row.items():
        if j not in v:
            out[j] = [-cb * y for y in rb]
    return out


def _reduce_into(rows: dict, v: dict) -> dict | None:
    """Reduce the block row ``v`` (nonzero blocks only) against the echelon
    ``rows``, keyed by (block, coordinate) pivots; store and return its
    primitive form if it is independent, else return None.

    A single-block ``v`` reduced by a single-block row stays one block, so
    that case is one list combine, without the block-row bookkeeping."""
    while v:
        i = min(v)
        block = v[i]
        b = next(t for t, x in enumerate(block) if x)
        row = rows.get((i, b))
        if row is None:
            row = rows[i, b] = {i: _primitive(block)} if len(v) == 1 else _normalize_row(v)
            return row
        a, c = block[b], row[i][b]
        if isinstance(a, int) and isinstance(c, int):
            g = gcd(a, c)
            ca, cb = c // g, a // g
        else:
            ca, cb = 1, exact_div(a, c)
        if len(v) == 1 and len(row) == 1:
            if ca == 1:
                block = [x - cb * y if y else x for x, y in zip(block, row[i])]
            else:
                block = [ca * x - cb * y for x, y in zip(block, row[i])]
            v = {i: block} if any(block) else {}
        else:
            v = _combine(v, row, ca, cb)
    return None


def basis_of(vectors, ambient_dim: int) -> SpanBasis:
    """RREF basis of the span of ``vectors``."""
    echelon: dict = {}
    for vec in vectors:
        v = list(vec)
        if len(v) != ambient_dim:
            raise ValueError(f"vector length {len(v)} != ambient dim {ambient_dim}")
        if any(v):
            _reduce_into(echelon, {0: v})
    pivots = sorted(b for _, b in echelon)
    rows = [echelon[0, p][0] for p in pivots]
    # back-substitution: bottom up, scale each pivot to 1 and clear its column
    # from the rows above
    for k in range(len(rows) - 1, -1, -1):
        p, row = pivots[k], rows[k]
        if row[p] != 1:
            inv = exact_div(1, row[p])
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


def span_extend(b: SpanBasis, vs) -> tuple[SpanBasis, bool]:
    """RREF basis of span(b, vs); ``grew`` reports a strict rank increase."""
    out = basis_of(list(b.rows) + list(vs), b.ambient_dim)
    return out, out.rank > b.rank


def same_span(a: SpanBasis, b: SpanBasis) -> bool:
    """Exact subspace equality: RREF is canonical, so the rows agree."""
    return a.ambient_dim == b.ambient_dim and a.rows == b.rows
