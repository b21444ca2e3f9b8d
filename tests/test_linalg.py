"""Exact RREF, span membership, and incremental span extension, with a
differential check against plain Gauss-Jordan over int, Fraction and Cyc rows,
and the elimination routine against its plain block-row form."""

from fractions import Fraction
from math import gcd, lcm
from random import Random

import pytest
from hypothesis import given, strategies as st

from divalg.linalg import (SpanBasis, _combine, _reduce_into, basis_of, same_span, span_contains,
                           span_extend)
from divalg.scalars import Cyc, euler_phi, exact_div


def test_rref_proportional_rows():
    b = basis_of([[1, 2], [2, 4]], 2)
    assert b.rank == 1
    assert b.rows == ((1, 2),)


def test_rref_identity():
    b = basis_of([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 3)
    assert b.rank == 3


def test_rref_hand_elimination():
    b = basis_of([[0, 1], [1, 0], [1, 1]], 2)
    assert b.rank == 2
    assert b.pivot_cols == (0, 1)


def test_rref_fractions():
    b = basis_of([[Fraction(1, 2), 1], [1, 2], [3, 5]], 2)
    assert b.rank == 2
    # pivots are exactly 1, pivot columns clean
    for r, p in zip(b.rows, b.pivot_cols):
        assert r[p] == 1


def test_span_contains_examples():
    b = basis_of([(1, 0)], 2)
    assert span_contains(b, (2, 0))
    assert not span_contains(b, (0, 1))
    b2 = basis_of([(1, 1), (0, 2)], 2)
    assert span_contains(b2, (3, 5))


def test_span_contains_scaling_invariance():
    b = basis_of([(1, 2, 3), (0, 1, 1)], 3)
    v = (1, 3, 4)
    assert span_contains(b, v)
    assert span_contains(b, tuple(Fraction(7, 3) * x for x in v))


def test_span_extend_examples():
    b = basis_of([(1, 0)], 2)
    b2, grew = span_extend(b, [(0, 1)])
    assert grew and b2.rank == 2
    b3, grew = span_extend(b, [(5, 0)])
    assert not grew and b3.rank == 1
    b4, _ = span_extend(SpanBasis(2, (), ()), [(1, 2), (2, 4), (0, 1)])
    assert b4.rank == 2


def test_rref_is_projection():
    b = basis_of([[2, 4, 6], [1, 3, 5], [0, 1, 1]], 3)
    b2 = basis_of(list(b.rows), 3)
    assert b.rows == b2.rows


def test_vector_length_checked():
    b = basis_of([(1, 0)], 2)
    with pytest.raises(ValueError):
        span_contains(b, (1, 0, 0))


vectors3 = st.lists(
    st.lists(st.integers(min_value=-5, max_value=5), min_size=3, max_size=3),
    min_size=1,
    max_size=5,
)


@given(vectors3, vectors3)
def test_extend_monotone_and_idempotent(rows, more):
    b = basis_of(rows, 3)
    b2, grew = span_extend(b, more)
    assert b2.rank >= b.rank
    assert grew == (b2.rank > b.rank)
    b3, grew3 = span_extend(b2, more)
    assert not grew3
    assert b3.rows == b2.rows


@given(vectors3)
def test_rref_canonical_under_permutation(rows):
    b1 = basis_of(rows, 3)
    b2 = basis_of(list(reversed(rows)), 3)
    assert b1.rows == b2.rows
    assert same_span(b1, b2)


# ---------------------------------------------------------------------------
# differential check against a plain Gauss-Jordan elimination
# ---------------------------------------------------------------------------


def gauss_jordan(vectors, dim):
    """(rows, pivots) of the RREF of ``vectors`` by textbook Gauss-Jordan."""
    rows = [[Fraction(x) if isinstance(x, int) else x for x in v] for v in vectors]
    pivots = []
    for col in range(dim):
        top = len(pivots)
        k = next((k for k in range(top, len(rows)) if rows[k][col]), None)
        if k is None:
            continue
        rows[top], rows[k] = rows[k], rows[top]
        lead = rows[top][col]
        rows[top] = [x / lead for x in rows[top]]
        for t in range(len(rows)):
            if t != top and rows[t][col]:
                c = rows[t][col]
                rows[t] = [x - c * y for x, y in zip(rows[t], rows[top])]
        pivots.append(col)
    return [tuple(r) for r in rows[:len(pivots)]], pivots


def draw(rng, kind):
    if kind == "int":
        return rng.randint(-4, 4)
    if kind == "frac":
        return Fraction(rng.randint(-4, 4), rng.randint(1, 5))
    return Cyc(kind, [rng.randint(-2, 2) for _ in range(euler_phi(kind))])


def vector_family(rng, kind, dim):
    """Random rows plus a zero row, a repeated row, a proportional row and a
    combination of two rows, in random order."""
    base = [[draw(rng, kind) for _ in range(dim)] for _ in range(rng.randint(1, dim))]
    c = draw(rng, kind) or 3
    extra = [[0] * dim, list(base[0]), [c * x for x in base[-1]],
             [x + c * y for x, y in zip(base[0], base[-1])]]
    vectors = base + extra
    rng.shuffle(vectors)
    return vectors


@pytest.mark.parametrize("kind", ["int", "frac", 3, 4, 12])
def test_linalg_matches_gauss_jordan(kind):
    rng = Random(f"gauss-jordan-{kind}")
    for _ in range(25):
        dim = rng.randint(2, 5)
        vectors = vector_family(rng, kind, dim)
        b = basis_of(vectors, dim)
        rows, pivots = gauss_jordan(vectors, dim)
        assert b.rows == tuple(rows) and b.pivot_cols == tuple(pivots)
        rank = len(rows)

        probes = [[draw(rng, kind) for _ in range(dim)], list(vectors[0]),
                  [x - y for x, y in zip(vectors[0], vectors[-1])]]
        for v in probes:
            assert span_contains(b, v) == (len(gauss_jordan(vectors + [v], dim)[0]) == rank)

        more = [[draw(rng, kind) for _ in range(dim)] for _ in range(rng.randint(0, 2))]
        grown, grew = span_extend(b, more)
        ref_rows, ref_pivots = gauss_jordan(vectors + more, dim)
        assert grown.rows == tuple(ref_rows) and grown.pivot_cols == tuple(ref_pivots)
        assert grew == (len(ref_rows) > rank)

        shuffled = list(reversed(vectors))
        assert same_span(b, basis_of(shuffled, dim))
        assert same_span(b, grown) == (len(ref_rows) == rank)


# ---------------------------------------------------------------------------
# the elimination routine against its plain block-row form
# ---------------------------------------------------------------------------


def ref_primitive(vals):
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


def ref_normalize_row(v):
    keys = sorted(v)
    flat = ref_primitive([x for i in keys for x in v[i]])
    w = len(flat) // len(keys)
    return {i: flat[k * w:(k + 1) * w] for k, i in enumerate(keys)}


def ref_reduce_into(rows, v):
    """Every row, single-block or not, through ``_combine`` and
    ``_normalize_row``."""
    while v:
        i = min(v)
        block = v[i]
        b = next(t for t, x in enumerate(block) if x)
        row = rows.get((i, b))
        if row is None:
            row = ref_normalize_row(v)
            rows[i, b] = row
            return row
        a, c = block[b], row[i][b]
        if isinstance(a, int) and isinstance(c, int):
            g = gcd(a, c)
            v = _combine(v, row, c // g, a // g)
        else:
            v = _combine(v, row, 1, exact_div(a, c))
    return None


def typed(rows):
    """Echelon rows with each entry's type, so an int and an equal Fraction
    or rational Cyc differ."""
    return {key: {i: [(type(x), x) for x in blk] for i, blk in row.items()}
            for key, row in rows.items()}


def block_row_sequence(rng, kind, dim, blocks, steps):
    """Fresh single-block and multi-block rows, with scaled copies and
    combinations of earlier rows that usually reduce to zero."""
    seq = []
    while len(seq) < steps:
        pick = rng.randrange(4)
        if pick < 2 or not seq:
            support = rng.sample(range(blocks), 1 if pick == 0 else rng.randint(1, blocks))
            v = {i: [draw(rng, kind) for _ in range(dim)] for i in support}
        else:
            v = {}
            for w in rng.sample(seq, min(len(seq), pick - 1)):
                c = draw(rng, kind) or 2
                for i, blk in w.items():
                    old = v.get(i, [0] * dim)
                    v[i] = [x + c * y for x, y in zip(old, blk)]
        v = {i: blk for i, blk in v.items() if any(blk)}
        if v:
            seq.append(v)
    return seq


@pytest.mark.parametrize("kind", ["int", "frac", 3, 4, 12])
def test_reduce_into_matches_block_row_reference(kind):
    rng = Random(f"reduce-into-{kind}")
    single_pairs = 0
    for _ in range(20):
        dim, blocks = rng.randint(2, 4), rng.randint(1, 3)
        rows, ref = {}, {}
        for v in block_row_sequence(rng, kind, dim, blocks, 25):
            single_pairs += len(v) == 1 and any(
                len(r) == 1 and i in r for r in rows.values() for i in v)
            got = _reduce_into(rows, {i: list(blk) for i, blk in v.items()})
            want = ref_reduce_into(ref, {i: list(blk) for i, blk in v.items()})
            assert got == want and typed(rows) == typed(ref), v
    assert single_pairs > 0
