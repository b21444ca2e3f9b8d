"""Exact dense linear algebra over Rat or Cyc scalars.

Everything here is generic over any exact field scalar supporting +, -, *,
/ and truthiness (Fraction, Cyc, and plain ints mixed in).  Bases are kept
in reduced row-echelon form, which is canonical for a given row space, so
results never depend on the order vectors were fed in.
"""

from __future__ import annotations

from dataclasses import dataclass

from .scalars import exact_div


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


def empty_basis(ambient_dim: int) -> SpanBasis:
    return SpanBasis(ambient_dim, (), ())


def _reduce_against(v: list, rows: list[list], pivots: list[int], dim: int) -> list:
    """Eliminate all pivot coordinates of ``v`` in place; returns ``v``.

    Rows carry 1 at their own pivot and 0 at every other pivot column, so a
    single pass suffices.
    """
    for r, p in zip(rows, pivots):
        c = v[p]
        if c:
            for j in range(dim):
                if r[j]:
                    v[j] = v[j] - c * r[j]
    return v


def _absorb(vectors, rows: list[list], pivots: list[int], dim: int) -> None:
    """Fold ``vectors`` into the RREF state (rows, pivots), in place."""
    for vec in vectors:
        v = list(vec)
        if len(v) != dim:
            raise ValueError(f"vector length {len(v)} != ambient dim {dim}")
        _reduce_against(v, rows, pivots, dim)
        lead = next((j for j in range(dim) if v[j]), None)
        if lead is None:
            continue
        if v[lead] != 1:
            inv = exact_div(1, v[lead])
            v = [x * inv for x in v]
        for r in rows:
            c = r[lead]
            if c:
                for j in range(dim):
                    if v[j]:
                        r[j] = r[j] - c * v[j]
        at = next((k for k, p in enumerate(pivots) if p > lead), len(pivots))
        rows.insert(at, v)
        pivots.insert(at, lead)


def basis_of(vectors, ambient_dim: int) -> SpanBasis:
    """RREF basis of the span of ``vectors``."""
    rows: list[list] = []
    pivots: list[int] = []
    _absorb(vectors, rows, pivots, ambient_dim)
    return SpanBasis(ambient_dim, tuple(tuple(r) for r in rows), tuple(pivots))


def span_contains(b: SpanBasis, v) -> bool:
    """True iff v reduces to zero against the basis rows."""
    v = list(v)
    if len(v) != b.ambient_dim:
        raise ValueError("vector length does not match ambient dimension")
    _reduce_against(v, list(b.rows), list(b.pivot_cols), b.ambient_dim)
    return all(not x for x in v)


def span_extend(b: SpanBasis, vs) -> tuple[SpanBasis, bool]:
    """RREF basis of span(b, vs); ``grew`` reports a strict rank increase."""
    rows = [list(r) for r in b.rows]
    pivots = list(b.pivot_cols)
    old_rank = len(rows)
    _absorb(vs, rows, pivots, b.ambient_dim)
    out = SpanBasis(b.ambient_dim, tuple(tuple(r) for r in rows), tuple(pivots))
    return out, out.rank > old_rank


def same_span(a: SpanBasis, b: SpanBasis) -> bool:
    """Exact subspace equality via mutual containment."""
    if a.ambient_dim != b.ambient_dim or a.rank != b.rank:
        return False
    return all(span_contains(a, r) for r in b.rows)
