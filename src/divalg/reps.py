"""Finite-dimensional gl_d / sl_d representations with exact actions.

Supported constructions: the natural module C^d, exterior powers (highest
weight the k-th fundamental weight), symmetric powers, tensor products, the
one-dimensional trivial module, and the diagonal twist v -> (L B L^{-1}) v
by a positive integer vector l.

Basis labels are canonical: sorted index tuples for exterior powers (a
strictly increasing wedge is positive), nondecreasing tuples for symmetric
powers, cartesian products for tensors.  The matrix-unit action E_{ij} is
extended to products by the derivation rule, and everything else is linear
algebra over exact scalars.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product


class RepHandle:
    """Immutable handle for one representation; actions are pure functions."""

    def __init__(self, d: int, kind: str, labels: tuple, **params):
        if d < 2:
            raise ValueError("need d >= 2")
        self.d = d
        self.kind = kind
        self.basis_labels = labels
        self.dim = len(labels)
        self.params = params
        self._index = {lab: i for i, lab in enumerate(labels)}
        self._e_cache: dict[tuple[int, int], tuple[tuple[int, int, object], ...]] = {}

    def __repr__(self):
        extra = {k: v for k, v in self.params.items() if k != "parent"}
        return f"RepHandle(d={self.d}, kind={self.kind}, dim={self.dim}, {extra})"

    # -- constructors --------------------------------------------------------

    @staticmethod
    def natural(d: int) -> "RepHandle":
        return RepHandle(d, "natural", tuple((i,) for i in range(1, d + 1)))

    @staticmethod
    def exterior(d: int, k: int) -> "RepHandle":
        if not 1 <= k <= d:
            raise ValueError(f"exterior power degree must be in 1..{d}")
        labels = tuple(combinations(range(1, d + 1), k))
        return RepHandle(d, "exterior", labels, k=k)

    @staticmethod
    def symmetric(d: int, m: int) -> "RepHandle":
        if m < 1:
            raise ValueError("symmetric power degree must be >= 1")
        labels = tuple(combinations_with_replacement(range(1, d + 1), m))
        return RepHandle(d, "symmetric", labels, m=m)

    @staticmethod
    def trivial(d: int) -> "RepHandle":
        return RepHandle(d, "trivial", ((),))

    @staticmethod
    def tensor(factors) -> "RepHandle":
        factors = tuple(factors)
        if len(factors) < 2:
            raise ValueError("tensor needs at least two factors")
        d = factors[0].d
        if any(f.d != d for f in factors):
            raise ValueError("tensor factors must share d")
        labels = tuple(product(*(f.basis_labels for f in factors)))
        return RepHandle(d, "tensor", labels, factors=factors)

    @staticmethod
    def twisted(parent: "RepHandle", l) -> "RepHandle":
        l = tuple(int(x) for x in l)
        if len(l) != parent.d or any(x < 1 for x in l):
            raise ValueError("twist vector must be positive of length d")
        return RepHandle(parent.d, "twisted", parent.basis_labels, parent=parent, l=l)

    # -- matrix-unit structure ------------------------------------------------

    def _e_structure(self, i: int, j: int) -> tuple[tuple[int, int, object], ...]:
        """Action of E_{ij} as a flat table of ``(dst, src, m)`` triples: E_{ij}
        takes basis vector src to the sum of m times basis vector dst over the
        triples of src.  Sources come in index order; the table is built once
        and kept."""
        key = (i, j)
        cached = self._e_cache.get(key)
        if cached is not None:
            return cached
        index = self._index
        if self.kind == "natural":
            out = ((index[(i,)], index[(j,)], 1),)
        elif self.kind == "exterior":
            out = []
            lo, hi = min(i, j), max(i, j)
            for src, lab in enumerate(self.basis_labels):
                if j not in lab:
                    continue
                if i == j:
                    out.append((src, src, 1))
                elif i not in lab:
                    rest = tuple(x for x in lab if x != j)
                    sign = -1 if sum(1 for x in rest if lo < x < hi) % 2 else 1
                    out.append((index[tuple(sorted(rest + (i,)))], src, sign))
        elif self.kind == "symmetric":
            out = []
            for src, lab in enumerate(self.basis_labels):
                c = lab.count(j)
                if c:
                    rest = list(lab)
                    rest.remove(j)
                    out.append((index[tuple(sorted(rest + [i]))], src, c))
        elif self.kind == "tensor":
            # each factor's triples by source, for the labels holding it
            factors = self.params["factors"]
            by_src = [{} for _ in factors]
            for pos, f in enumerate(factors):
                for dst, src, m in f._e_structure(i, j):
                    by_src[pos].setdefault(src, []).append((dst, m))
            out = []
            for src, lab in enumerate(self.basis_labels):
                for pos, f in enumerate(factors):
                    for dst, m in by_src[pos].get(f._index[lab[pos]], ()):
                        new_lab = lab[:pos] + (f.basis_labels[dst],) + lab[pos + 1:]
                        out.append((index[new_lab], src, m))
        elif self.kind == "trivial":
            out = ()
        elif self.kind == "twisted":
            parent, l = self.params["parent"], self.params["l"]
            li, lj = l[i - 1], l[j - 1]
            scale = li // lj if li % lj == 0 else Fraction(li, lj)
            out = [(dst, src, m * scale) for dst, src, m in parent._e_structure(i, j)]
        else:
            raise ValueError(f"unknown rep kind {self.kind!r}")
        self._e_cache[key] = out = tuple(out)
        return out


def act_matrix(rep: RepHandle, b, coords: tuple) -> tuple:
    """Action of a d x d scalar matrix on a vector given by its exact
    coordinates over the rep's basis, decomposed over matrix units."""
    d = rep.d
    if len(b) != d or any(len(row) != d for row in b):
        raise ValueError(f"matrix must be {d}x{d}")
    if len(coords) != rep.dim:
        raise ValueError("coordinate length does not match dimension")
    out = [0] * rep.dim
    for i in range(1, d + 1):
        for j in range(1, d + 1):
            coeff = b[i - 1][j - 1]
            if not coeff:
                continue
            for dst, src, sc in rep._e_structure(i, j):
                c = coords[src]
                if c:
                    out[dst] = out[dst] + coeff * c * sc
    return tuple(out)
