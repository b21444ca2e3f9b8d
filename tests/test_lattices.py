"""Hermite normal forms and integer kernels mod N.

The kernel-mod-N computation is checked against brute-force enumeration of
small lattice points, which is independent of the Hermite machinery.
"""

from itertools import product
from random import Random

import pytest

from divalg.lattices import hermite_normal_form, smith_kernel_mod


def in_lattice(basis: list[list[int]], x) -> bool:
    """Membership of ``x`` in the row lattice of an HNF ``basis``."""
    v = list(x)
    for row in basis:
        col = next(j for j in range(len(v)) if row[j])
        if v[col] % row[col]:
            return False
        v = [a - v[col] // row[col] * b for a, b in zip(v, row)]
    return not any(v)


def test_hnf_examples():
    assert hermite_normal_form([[3, 0], [0, 3]]) == [[3, 0], [0, 3]]
    assert hermite_normal_form([[0, 3], [3, 0]]) == [[3, 0], [0, 3]]
    assert hermite_normal_form([[2, 1], [0, 0]]) == [[2, 1]]
    # above-pivot entries reduced into [0, pivot)
    assert hermite_normal_form([[1, 5], [0, 3]]) == [[1, 2], [0, 3]]


def test_hnf_canonical_for_equal_lattices():
    b1 = hermite_normal_form([[2, 0], [1, 3]])
    b2 = hermite_normal_form([[3, 3], [1, 3], [2, 0]])
    assert b1 == b2


def test_kernel_examples():
    assert smith_kernel_mod([[0, 0], [0, 0]], 5) == [[1, 0], [0, 1]]
    assert smith_kernel_mod([[5, 0], [0, 5]], 5) == [[1, 0], [0, 1]]
    assert smith_kernel_mod([[0, -1], [1, 0]], 3) == [[3, 0], [0, 3]]


def brute_kernel_points(a, n, radius):
    d = len(a[0])
    out = []
    for x in product(range(-radius, radius + 1), repeat=d):
        img = [sum(a[i][j] * x[j] for j in range(d)) % n for i in range(len(a))]
        if all(v == 0 for v in img):
            out.append(x)
    return out


def _random_kernel_cases(count):
    rng = Random(11)
    cases = []
    for _ in range(count):
        rows, cols = rng.randint(1, 3), rng.randint(1, 3)
        a = [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)]
        cases.append((a, rng.randint(1, 6)))
    return cases


@pytest.mark.parametrize("a,n", [
    ([[0, -1], [1, 0]], 3),
    ([[0, 1], [-1, 0]], 2),
    ([[1, 2], [2, 4]], 6),
    ([[0, 2, 0], [-2, 0, 0], [0, 0, 0]], 4),
    # non-square: more columns than rows, and more rows than columns
    ([[1, 2, 3]], 4),
    ([[2, 0, 4], [0, 3, 3]], 6),
    ([[1], [2], [3]], 5),
    ([[2, 4], [4, 2], [6, 0]], 4),
] + _random_kernel_cases(50))
def test_kernel_matches_bruteforce(a, n):
    """The basis spans exactly the kernel points of a small box, is full rank
    and is its own HNF."""
    basis = smith_kernel_mod(a, n)
    assert basis == hermite_normal_form(basis)
    assert len(basis) == len(a[0])
    pts = brute_kernel_points(a, n, 2 * n)
    for p in pts:
        assert in_lattice(basis, p), f"{p} missed by basis {basis}"
    for row in basis:
        assert all(v == 0 for v in
                   [sum(a[i][j] * row[j] for j in range(len(row))) % n
                    for i in range(len(a))])


def test_kernel_bad_modulus():
    with pytest.raises(ValueError):
        smith_kernel_mod([[1]], 0)
