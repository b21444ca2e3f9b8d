"""Exact RREF, span membership, and incremental span extension, with a
differential check against plain Gauss-Jordan over int and Fraction rows,
and the primitive form of a row against its lcm/gcd definition."""

from fractions import Fraction
from math import gcd, lcm
from random import Random

import pytest
from hypothesis import example, given, strategies as st

from divalg.linalg import SpanBasis, _primitive, _reduce_into, basis_of, same_span, span_contains


def span_extend(b: SpanBasis, vs) -> tuple[SpanBasis, bool]:
    """RREF basis of span(b, vs); ``grew`` reports a strict rank increase."""
    out = basis_of(list(b.rows) + list(vs), b.ambient_dim)
    return out, out.rank > b.rank


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


@pytest.mark.parametrize("other, equal", [
    (SpanBasis(2, ((1, 2),), (0,)), True),
    (basis_of([[3, 6]], 2), True),
    (SpanBasis(3, ((1, 2),), (0,)), False),
    (SpanBasis(2, ((1, 3),), (0,)), False),
    (SpanBasis(2, ((1, 2),), (1,)), False),
])
def test_span_basis_compares_and_hashes_over_its_fields(other, equal):
    b = basis_of([[2, 4], [1, 2]], 2)
    assert b is not other and (b == other) == equal
    if equal:
        assert hash(b) == hash(other)


@pytest.mark.parametrize("name", ["ambient_dim", "rows", "pivot_cols"])
def test_span_basis_is_immutable(name):
    b = basis_of([[1, 2]], 2)
    with pytest.raises(AttributeError):
        setattr(b, name, getattr(b, name))


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


def primitive_reference(vals):
    """The primitive integral vector with a positive leading entry on the ray
    of ``vals``, spelled out: scale by the lcm of the denominators, divide by
    the gcd of the numerators, and flip the sign if the first nonzero entry
    is negative."""
    fracs = [Fraction(x) for x in vals]
    mult = lcm(*(x.denominator for x in fracs))
    ints = [x.numerator * (mult // x.denominator) for x in fracs]
    g = gcd(*ints)
    sign = -1 if next(x for x in ints if x) < 0 else 1
    return [sign * (x // g) for x in ints]


int_entries = st.integers(min_value=-60, max_value=60)
fraction_entries = st.fractions(min_value=-20, max_value=20, max_denominator=12)
# Fractions of denominator 1, which gcd refuses although they are integers
whole_fractions = int_entries.map(Fraction)
entries = st.one_of(int_entries, fraction_entries, whole_fractions)


@given(st.one_of(st.lists(int_entries, min_size=1, max_size=6),
                 st.lists(fraction_entries, min_size=1, max_size=6),
                 st.lists(entries, min_size=1, max_size=6)).filter(any))
@example([-4, 6, 0])                                  # all int, negative leading entry
@example([0, -6, 9, 3])                               # leading zero, then negative
@example([Fraction(-3, 2), Fraction(5, 4)])           # all Fraction
@example([Fraction(4), Fraction(-6), Fraction(2)])    # Fractions of denominator 1
@example([0, Fraction(-2), 4, Fraction(1, 3)])        # mixed, negative leading entry
@example([7])
def test_primitive_matches_the_lcm_gcd_reference(vals):
    out = _primitive(list(vals))
    assert out == primitive_reference(vals)
    assert all(type(x) is int for x in out)
    assert gcd(*out) == 1 and next(x for x in out if x) > 0


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
    return Fraction(rng.randint(-4, 4), rng.randint(1, 5))


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


@pytest.mark.parametrize("kind", ["int", "frac"])
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
# the elimination kernel against Fraction references
# ---------------------------------------------------------------------------


def reduce_reference(rows, v):
    """:func:`_reduce_into` spelled out in Fractions: at the first nonzero
    entry of v, subtract the multiple of that column's row that clears it,
    until an entry has no row; store the primitive form of v there and
    return it, or return None once v is 0."""
    v = [Fraction(x) for x in v]
    for b in range(len(v)):
        if v[b]:
            row = rows.get(b)
            if row is None:
                rows[b] = primitive_reference(v)
                return rows[b]
            c = v[b] / row[b]
            v = [x - c * y for x, y in zip(v, row)]
    return None


def awkward_vector(rng, kind, dim):
    """A nonzero vector with up to dim - 1 leading zeros, a lead of either
    sign and a common factor of 1, 2, 3 or 6; ``kind`` "mixed" draws each
    entry as an int, a Fraction or a Fraction of denominator 1."""
    lead = rng.randrange(dim)

    def entry():
        pick = kind if kind != "mixed" else rng.choice(("int", "frac", "whole"))
        return Fraction(draw(rng, "int")) if pick == "whole" else draw(rng, pick)

    v = [0] * lead + [entry() for _ in range(dim - lead)]
    v[lead] = rng.choice((-1, 1)) * (abs(v[lead]) or 1)
    factor = rng.choice((1, 2, 3, 6))
    return [factor * x for x in v]


@pytest.mark.parametrize("kind", ["int", "frac", "mixed"])
def test_elimination_kernel_matches_fraction_references(kind):
    # _primitive, every _reduce_into result and echelon, and basis_of,
    # against their Fraction references; a repeated row, a multiple and a
    # combination make some reductions end at 0
    rng = Random(f"kernel-{kind}")
    reduced_to_zero = 0
    for _ in range(40):
        dim = rng.randint(1, 6)
        vectors = [awkward_vector(rng, kind, dim) for _ in range(rng.randint(1, 2 * dim))]
        vectors += [list(vectors[0]), [-2 * x for x in vectors[-1]],
                    [x + 3 * y for x, y in zip(vectors[0], vectors[-1])]]
        echelon, mirror = {}, {}
        for v in filter(any, vectors):
            assert _primitive(list(v)) == primitive_reference(v)
            got = _reduce_into(echelon, list(v))
            assert got == reduce_reference(mirror, v)
            assert echelon == mirror
            reduced_to_zero += got is None
        b = basis_of(vectors, dim)
        rows, pivots = gauss_jordan(vectors, dim)
        assert (b.rows, b.pivot_cols) == (tuple(rows), tuple(pivots))
    assert reduced_to_zero
