"""Integer lattice utilities: the Hermite normal form and kernels mod N.

Matrices are lists of lists of Python ints.  Sizes here are tiny (d <= 4ish),
so the plain pivoting algorithm is more than enough.  The kernel of a matrix
mod N is read off one HNF, so no Smith normal form is needed.
"""

from __future__ import annotations


def hermite_normal_form(rows) -> list[list[int]]:
    """Row-style HNF of the lattice spanned by ``rows``.

    Pivots are positive, entries below a pivot are zero, and entries above a
    pivot are reduced into [0, pivot).  The result is the canonical basis of
    the row lattice; zero rows are dropped.
    """
    h = [list(r) for r in rows]
    if not h:
        return []
    n = len(h[0])
    pivot_row = 0
    for col in range(n):
        # gcd out the column below pivot_row
        j = None
        for i in range(pivot_row, len(h)):
            if h[i][col]:
                j = i
                break
        if j is None:
            continue
        h[pivot_row], h[j] = h[j], h[pivot_row]
        for i in range(pivot_row + 1, len(h)):
            while h[i][col]:
                q = h[pivot_row][col] // h[i][col]
                h[pivot_row] = [a - q * b for a, b in zip(h[pivot_row], h[i])]
                h[pivot_row], h[i] = h[i], h[pivot_row]
        if h[pivot_row][col] < 0:
            h[pivot_row] = [-x for x in h[pivot_row]]
        for i in range(pivot_row):
            q = h[i][col] // h[pivot_row][col]
            if q:
                h[i] = [a - q * b for a, b in zip(h[i], h[pivot_row])]
        pivot_row += 1
        if pivot_row == len(h):
            break
    return [row for row in h[:pivot_row] if any(row)]


def smith_kernel_mod(a, n: int) -> list[list[int]]:
    """HNF basis of the full-rank lattice {x in Z^d : a @ x == 0 (mod n)}.

    The rows (a e_j | e_j) and (n e_i | 0) span the pairs (a x + n y | x);
    the HNF rows of that lattice with a zero first part span the pairs
    (0 | x) with a x == 0 (mod n), and their x-parts are already in HNF.
    """
    if n < 1:
        raise ValueError("modulus must be a positive integer")
    m = len(a)
    d = len(a[0]) if a else 0
    gens = [[a[i][j] for i in range(m)] + [int(k == j) for k in range(d)] for j in range(d)]
    gens += [[n * (k == i) for k in range(m + d)] for i in range(m)]
    return [row[m:] for row in hermite_normal_form(gens) if not any(row[:m])]

