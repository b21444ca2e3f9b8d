"""Finite-dimensional gl_d / sl_d representations with exact actions.

Supported constructions: the natural module C^d, exterior powers (highest
weight the k-th fundamental weight), symmetric powers, tensor products,
cyclic submodules generated by a seed vector, the one-dimensional trivial
module, and the diagonal twist v -> (L B L^{-1}) v by a positive integer
vector l.

Basis labels are canonical: sorted index tuples for exterior powers (a
strictly increasing wedge is positive), nondecreasing tuples for symmetric
powers, cartesian products for tensors.  The matrix-unit action E_{ij} is
extended to products by the derivation rule, and everything else is linear
algebra over exact scalars.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product

from .linalg import SpanBasis, basis_of, span_extend


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
        self._e_cache: dict[tuple[int, int], dict[int, list[tuple[int, object]]]] = {}

    def __repr__(self):
        extra = {k: v for k, v in self.params.items() if k not in ("parent", "basis")}
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
    def cyclic(parent: "RepHandle", seed) -> "RepHandle":
        seed = tuple(seed)
        if len(seed) != parent.dim:
            raise ValueError("seed length does not match parent dimension")
        if all(not c for c in seed):
            raise ValueError("cyclic submodule needs a nonzero seed")
        basis = cyclic_closure(parent, seed)
        labels = tuple((i,) for i in range(basis.rank))
        return RepHandle(parent.d, "cyclic", labels, parent=parent, basis=basis, seed=seed)

    @staticmethod
    def twisted(parent: "RepHandle", l) -> "RepHandle":
        l = tuple(int(x) for x in l)
        if len(l) != parent.d or any(x < 1 for x in l):
            raise ValueError("twist vector must be positive of length d")
        return RepHandle(parent.d, "twisted", parent.basis_labels, parent=parent, l=l)

    # -- matrix-unit structure ------------------------------------------------

    def _e_structure(self, i: int, j: int) -> dict[int, list[tuple[int, object]]]:
        """Action of E_{ij} as a sparse map src index -> [(dst index, coeff)]."""
        key = (i, j)
        cached = self._e_cache.get(key)
        if cached is not None:
            return cached
        out: dict[int, list[tuple[int, object]]] = {}
        if self.kind == "natural":
            src = self._index.get((j,))
            if src is not None:
                out[src] = [(self._index[(i,)], 1)]
        elif self.kind == "exterior":
            for idx, lab in enumerate(self.basis_labels):
                if j not in lab:
                    continue
                if i == j:
                    out[idx] = [(idx, 1)]
                    continue
                if i in lab:
                    continue
                rest = tuple(x for x in lab if x != j)
                lo, hi = min(i, j), max(i, j)
                sign = -1 if sum(1 for x in rest if lo < x < hi) % 2 else 1
                tgt = tuple(sorted(rest + (i,)))
                out[idx] = [(self._index[tgt], sign)]
        elif self.kind == "symmetric":
            for idx, lab in enumerate(self.basis_labels):
                c = lab.count(j)
                if c == 0:
                    continue
                if i == j:
                    out[idx] = [(idx, c)]
                else:
                    rest = list(lab)
                    rest.remove(j)
                    tgt = tuple(sorted(rest + [i]))
                    out[idx] = [(self._index[tgt], c)]
        elif self.kind == "tensor":
            factors = self.params["factors"]
            structs = [f._e_structure(i, j) for f in factors]
            for idx, lab in enumerate(self.basis_labels):
                terms: list[tuple[int, object]] = []
                for pos, f in enumerate(factors):
                    sub = structs[pos].get(f._index[lab[pos]])
                    if not sub:
                        continue
                    for dst_sub, coeff in sub:
                        new_lab = lab[:pos] + (f.basis_labels[dst_sub],) + lab[pos + 1 :]
                        terms.append((self._index[new_lab], coeff))
                if terms:
                    out[idx] = terms
        elif self.kind == "trivial":
            pass
        elif self.kind == "twisted":
            parent = self.params["parent"]
            l = self.params["l"]
            scale = Fraction(l[i - 1], l[j - 1])
            for src, terms in parent._e_structure(i, j).items():
                out[src] = [(dst, coeff * scale) for dst, coeff in terms]
        elif self.kind == "cyclic":
            parent = self.params["parent"]
            basis: SpanBasis = self.params["basis"]
            for src, row in enumerate(basis.rows):
                img = act_E(parent, i, j, RepVec(parent, row)).coords
                terms = []
                for t, p in enumerate(basis.pivot_cols):
                    if img[p]:
                        terms.append((t, img[p]))
                if terms:
                    out[src] = terms
        else:
            raise ValueError(f"unknown rep kind {self.kind!r}")
        self._e_cache[key] = out
        return out


@dataclass(frozen=True)
class RepVec:
    """A vector in a representation, as exact coordinates over its basis."""

    rep: RepHandle
    coords: tuple

    def __post_init__(self):
        if len(self.coords) != self.rep.dim:
            raise ValueError("coordinate length does not match dimension")

    def is_zero(self) -> bool:
        return all(not c for c in self.coords)

    def __add__(self, other: "RepVec") -> "RepVec":
        if other.rep is not self.rep:
            raise ValueError("mismatched representations")
        return RepVec(self.rep, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "RepVec") -> "RepVec":
        if other.rep is not self.rep:
            raise ValueError("mismatched representations")
        return RepVec(self.rep, tuple(a - b for a, b in zip(self.coords, other.coords)))

    def scale(self, c) -> "RepVec":
        return RepVec(self.rep, tuple(c * x for x in self.coords))


def basis_vector(rep: RepHandle, idx: int) -> RepVec:
    coords = [0] * rep.dim
    coords[idx] = 1
    return RepVec(rep, tuple(coords))


def act_E(rep: RepHandle, i: int, j: int, v: RepVec) -> RepVec:
    """Exact image of v under the matrix unit E_{ij}."""
    if not (1 <= i <= rep.d and 1 <= j <= rep.d):
        raise IndexError(f"matrix-unit indices must be in 1..{rep.d}")
    out = [0] * rep.dim
    struct = rep._e_structure(i, j)
    for src, c in enumerate(v.coords):
        if not c:
            continue
        terms = struct.get(src)
        if not terms:
            continue
        for dst, coeff in terms:
            out[dst] = out[dst] + c * coeff
    return RepVec(rep, tuple(out))


def act_matrix(rep: RepHandle, b, v: RepVec) -> RepVec:
    """Action of a d x d scalar matrix, decomposed over matrix units."""
    d = rep.d
    if len(b) != d or any(len(row) != d for row in b):
        raise ValueError(f"matrix must be {d}x{d}")
    out = [0] * rep.dim
    for i in range(1, d + 1):
        for j in range(1, d + 1):
            coeff = b[i - 1][j - 1]
            if not coeff:
                continue
            struct = rep._e_structure(i, j)
            for src, c in enumerate(v.coords):
                if not c:
                    continue
                terms = struct.get(src)
                if not terms:
                    continue
                for dst, sc in terms:
                    out[dst] = out[dst] + coeff * c * sc
    return RepVec(rep, tuple(out))


def weight(rep: RepHandle, basis_index: int):
    """Vector of E_{ii}-eigenvalues of the indexed basis vector."""
    if not 0 <= basis_index < rep.dim:
        raise IndexError("basis index out of range")
    d = rep.d
    kind = rep.kind
    if kind == "natural":
        lab = rep.basis_labels[basis_index]
        return tuple(1 if i == lab[0] else 0 for i in range(1, d + 1))
    if kind == "exterior":
        lab = rep.basis_labels[basis_index]
        return tuple(1 if i in lab else 0 for i in range(1, d + 1))
    if kind == "symmetric":
        lab = rep.basis_labels[basis_index]
        return tuple(lab.count(i) for i in range(1, d + 1))
    if kind == "trivial":
        return (0,) * d
    if kind == "tensor":
        lab = rep.basis_labels[basis_index]
        factors = rep.params["factors"]
        parts = [weight(f, f._index[lab[p]]) for p, f in enumerate(factors)]
        return tuple(sum(col) for col in zip(*parts))
    if kind == "twisted":
        parent = rep.params["parent"]
        return weight(parent, basis_index)
    if kind == "cyclic":
        v = basis_vector(rep, basis_index)
        mu = []
        for i in range(1, d + 1):
            img = act_E(rep, i, i, v)
            lead = next((t for t, c in enumerate(v.coords) if c), None)
            lam = img.coords[lead] / v.coords[lead] if v.coords[lead] != 1 else img.coords[lead]
            if img.coords != tuple(lam * c for c in v.coords):
                raise ValueError("cyclic basis vector is not a weight vector")
            mu.append(lam)
        return tuple(mu)
    raise ValueError(f"unknown rep kind {kind!r}")


def highest_weight_vector(rep: RepHandle) -> RepVec:
    """The vector killed by all raising operators E_{i,i+1}, up to scale."""
    if rep.kind == "natural":
        return basis_vector(rep, 0)
    if rep.kind == "exterior":
        k = rep.params["k"]
        return basis_vector(rep, rep._index[tuple(range(1, k + 1))])
    if rep.kind == "symmetric":
        m = rep.params["m"]
        return basis_vector(rep, rep._index[(1,) * m])
    if rep.kind == "trivial":
        return basis_vector(rep, 0)
    raise ValueError(f"no canonical highest weight vector for kind {rep.kind!r}")


def cyclic_closure(rep: RepHandle, seed) -> SpanBasis:
    """Smallest subspace containing ``seed`` stable under all E_{ij}, i != j."""
    seed = tuple(seed)
    if all(not c for c in seed):
        raise ValueError("cyclic closure needs a nonzero seed")
    basis = basis_of([seed], rep.dim)
    frontier = list(basis.rows)
    while frontier:
        images = []
        for w in frontier:
            v = RepVec(rep, tuple(w))
            for i in range(1, rep.d + 1):
                for j in range(1, rep.d + 1):
                    if i == j:
                        continue
                    img = act_E(rep, i, j, v)
                    if not img.is_zero():
                        images.append(img.coords)
        new_basis, grew = span_extend(basis, images)
        if not grew:
            break
        old_rows = set(basis.rows)
        frontier = [r for r in new_basis.rows if r not in old_rows]
        basis = new_basis
    return basis


def rep_from_config(d: int, obj: dict) -> RepHandle:
    """Build a representation from its JSON description."""
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValueError("rep config must be an object with a 'kind' field")
    kind = obj["kind"]
    known = {
        "natural": {"kind"},
        "exterior": {"kind", "k"},
        "symmetric": {"kind", "m"},
        "trivial": {"kind"},
        "tensor": {"kind", "factors"},
        "twisted": {"kind", "l", "inner"},
    }
    if kind not in known:
        raise ValueError(f"unknown rep kind {kind!r}")
    extra = set(obj) - known[kind]
    if extra:
        raise ValueError(f"unknown rep config fields {sorted(extra)}")
    missing = known[kind] - set(obj)
    if missing:
        raise ValueError(f"missing rep config fields {sorted(missing)}")
    if kind == "natural":
        return RepHandle.natural(d)
    if kind == "exterior":
        return RepHandle.exterior(d, _json_int(obj["k"], "k"))
    if kind == "symmetric":
        return RepHandle.symmetric(d, _json_int(obj["m"], "m"))
    if kind == "trivial":
        return RepHandle.trivial(d)
    if kind == "tensor":
        return RepHandle.tensor([rep_from_config(d, f) for f in obj["factors"]])
    l = [_json_int(x, f"l[{t}]") for t, x in enumerate(obj["l"])]
    return RepHandle.twisted(rep_from_config(d, obj["inner"]), l)


def _json_int(raw, field: str) -> int:
    """An integer field of a rep config: a JSON integer, not a float or a
    boolean."""
    if not isinstance(raw, int) or isinstance(raw, bool):
        raise ValueError(f"{field}: expected an integer, got {raw!r}")
    return raw
