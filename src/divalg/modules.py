"""Graded tensor modules over the torus vector-field algebras.

The module attached to a gl_d-representation V and a rational vector alpha
is V tensored with Laurent polynomials, graded by Z^d; the fiber at degree n
carries the action

    D(u, r) . (v x t^n) = ((u | n + alpha) v + (r u^T) v) x t^{n + r},

where r u^T is the rank-one matrix with entries r_i u_j acting through the
representation.  For exterior powers the wedge-with-(alpha + n) fibers form
the distinguished graded submodule tested by the closure engine; a vector v
lies in the fiber at n iff v ^ (alpha + n) = 0 (v = 0 where alpha + n = 0).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb, lcm
from operator import add, mul, sub

from . import witt
from .linalg import SpanBasis, basis_of
from .reps import RepHandle, act_matrix
from .witt import AlgElem, DegVec


class ModuleParams:
    """d, the rational twist alpha, and the coefficient representation.

    ``alpha_den`` is D, the lcm of alpha's denominators, and ``alpha_num``
    the integers D alpha, so that (u | alpha) of an integer u is an integer
    over D.  An immutable value, equal and hashed over d, alpha and rep.
    """

    __slots__ = ("d", "alpha", "rep", "alpha_den", "alpha_num")

    def __init__(self, d: int, alpha: tuple, rep: RepHandle):
        alpha = tuple(Fraction(a) for a in alpha)
        if len(alpha) != d:
            raise ValueError("alpha length must equal d")
        if rep.d != d:
            raise ValueError("representation d does not match module d")
        den = lcm(*(a.denominator for a in alpha))
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "rep", rep)
        object.__setattr__(self, "alpha_den", den)
        object.__setattr__(self, "alpha_num",
                           tuple(a.numerator * (den // a.denominator) for a in alpha))

    def __setattr__(self, name, value):
        raise AttributeError("ModuleParams is immutable")

    def __delattr__(self, name):
        raise AttributeError("ModuleParams is immutable")

    def _key(self):
        return self.d, self.alpha, self.rep

    def __eq__(self, other):
        return self._key() == other._key() if type(other) is ModuleParams else NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return "ModuleParams(d=%r, alpha=%r, rep=%r)" % self._key()

    def alpha_integral(self) -> bool:
        return all(a.denominator == 1 for a in self.alpha)


class GradedVec:
    """A finitely supported element: degree -> coordinate vector in V."""

    __slots__ = ("params", "fibers")

    def __init__(self, params: ModuleParams, fibers: dict | None = None):
        self.params = params
        clean: dict[DegVec, tuple] = {}
        dim = params.rep.dim
        for n, coords in (fibers or {}).items():
            coords = tuple(coords)
            if len(n) != params.d or len(coords) != dim:
                raise ValueError("fiber shape mismatch")
            if any(coords):
                clean[tuple(int(x) for x in n)] = coords
        self.fibers = clean

    @classmethod
    def _trusted(cls, params: ModuleParams, fibers: dict) -> "GradedVec":
        """A vector from ``fibers`` whose keys are already int tuples of
        length d and whose coordinate sequences have length dim; only zero
        fibers are dropped, and the coordinates are stored as tuples."""
        v = object.__new__(cls)
        v.params = params
        v.fibers = {n: tuple(c) for n, c in fibers.items() if any(c)}
        return v

    def is_zero(self) -> bool:
        return not self.fibers

    def __add__(self, other: "GradedVec") -> "GradedVec":
        out = dict(self.fibers)
        for n, c in other.fibers.items():
            witt.add_term(out, n, c)
        return GradedVec._trusted(self.params, out)

    def __neg__(self) -> "GradedVec":
        return GradedVec._trusted(self.params,
                                  {n: tuple(-x for x in c) for n, c in self.fibers.items()})

    def __sub__(self, other: "GradedVec") -> "GradedVec":
        out = dict(self.fibers)
        get = out.get
        for n, c in other.fibers.items():
            prev = get(n)
            out[n] = tuple([-x for x in c]) if prev is None else tuple(map(sub, prev, c))
        return GradedVec._trusted(self.params, out)

    def scale(self, c) -> "GradedVec":
        return GradedVec._trusted(self.params,
                                  {n: tuple(c * x for x in f) for n, f in self.fibers.items()})

    def __eq__(self, other):
        if not isinstance(other, GradedVec):
            return NotImplemented
        return (self - other).is_zero()

    __hash__ = None

    def __repr__(self):
        bits = [f"{list(c)} @ t^{list(n)}" for n, c in sorted(self.fibers.items())]
        return "GradedVec(" + (" + ".join(bits) if bits else "0") + ")"


def graded(params: ModuleParams, n, coords) -> GradedVec:
    """Single-fiber element coords x t^n."""
    return GradedVec(params, {tuple(int(x) for x in n): tuple(coords)})


def term_map(params: ModuleParams, u, r, cocycle=None):
    """The fiber map of D(u, r): ``(n, w) -> image``, the coordinates of
    D(u, r) . (w x t^n) = ((u | n + alpha) w + (r u^T) w) x t^{n + r} as a
    list, or None when they vanish.

    With ``cocycle`` the image at n is scaled by ``cocycle(r, n)`` (the
    quantum action, with sigma).  (u | alpha) is paired from alpha's integer
    numerators over D, so an integer u builds at most one Fraction, and an
    integral (u | alpha) is kept as an int: integer u and w give integer
    images when r u^T acts by an integer matrix.  For D u in place of u,
    (D u | alpha) is always an integer.
    """
    u, r = tuple(u), tuple(r)
    table = params.rep._e_structure
    u_nonzero = [(b, ub) for b, ub in enumerate(u, 1) if ub]
    acc: dict = {}
    get = acc.get
    for a, ra in enumerate(r, 1):
        if ra:
            for b, ub in u_nonzero:
                c = ra * ub
                for dst, src, m in table(a, b):
                    acc[dst, src] = get((dst, src), 0) + c * m
    # (i, j, m): r u^T takes basis vector j to m times basis vector i, plus others
    entries = [(i, j, m) for (i, j), m in acc.items() if m]
    num, den = sum(map(mul, u, params.alpha_num)), params.alpha_den
    if isinstance(num, (int, Fraction)):
        ualpha = num // den if not num % den else Fraction(num, den)
    else:
        # a cyclotomic u, from an outer bracket whose cocycle is irrational
        ualpha = num * Fraction(1, den)

    def apply(n, w):
        s = sum(map(mul, u, n)) + ualpha
        out = [s * x for x in w]
        for i, j, m in entries:
            out[i] += m * w[j]
        return out if any(out) else None

    if cocycle is None:
        return apply

    def twisted(n, w):
        out = apply(n, w)
        if out is None:
            return None
        c = cocycle(r, n)
        return out if c == 1 else [c * x for x in out]

    return twisted


def _accumulate(out: dict, n: DegVec, coords) -> None:
    """Add ``coords`` into the fiber list ``out[n]``, creating it if absent."""
    acc = out.get(n)
    if acc is None:
        out[n] = list(coords)
    else:
        for b, x in enumerate(coords):
            acc[b] = acc[b] + x


def operator(params: ModuleParams, x: AlgElem, cocycle=None) -> list:
    """x as an operator on the module: the (shift r, :func:`term_map`) pair
    of each term D(u, r), built once to be applied to any number of vectors
    by :func:`apply_operator`."""
    if x.d != params.d:
        raise ValueError("algebra element dimension mismatch")
    return [(r, term_map(params, u, r, cocycle)) for r, u in x.terms.items()]


def apply_operator(params: ModuleParams, op: list, v: GradedVec) -> GradedVec:
    """The image of v under an operator, a list of (shift, fiber map) pairs
    as :func:`operator` builds: each map applied to every fiber."""
    out: dict[DegVec, list] = {}
    for r, apply in op:
        for n, coords in v.fibers.items():
            img = apply(n, coords)
            if img is not None:
                _accumulate(out, tuple(map(add, n, r)), img)
    return GradedVec._trusted(params, out)


def act(params: ModuleParams, x: AlgElem, v: GradedVec) -> GradedVec:
    """Bilinear extension of the defining action: x's :func:`operator`
    applied to v."""
    return apply_operator(params, operator(params, x), v)


def act_d_basis(params: ModuleParams, r, i: int, v: GradedVec) -> GradedVec:
    """Direct form of the action of t^r (r_{i+1} d_i - r_i d_{i+1}).

    Written out independently of :func:`act` so the two paths can be
    cross-checked on the same inputs.
    """
    d = params.d
    if not 1 <= i <= d - 1:
        raise IndexError(f"index must be in 1..{d - 1}")
    r = tuple(int(x) for x in r)
    rep = params.rep
    a, b = r[i], -r[i - 1]  # u = r_{i+1} e_i - r_i e_{i+1}
    u = [0] * d
    u[i - 1] = a
    u[i] = b
    mat = [[ri * uj for uj in u] for ri in r]
    out: dict[DegVec, tuple] = {}
    for n, coords in v.fibers.items():
        s = a * (n[i - 1] + params.alpha[i - 1]) + b * (n[i] + params.alpha[i])
        w = act_matrix(rep, mat, coords)
        target = tuple(ni + ri for ni, ri in zip(n, r))
        prev = out.get(target)
        img = tuple(s * c + wb for c, wb in zip(coords, w))
        out[target] = img if prev is None else tuple(p + q for p, q in zip(prev, img))
    return GradedVec(params, out)


def module_axiom_residual(params: ModuleParams, x: AlgElem, y: AlgElem, v: GradedVec) -> GradedVec:
    """act([x,y], v) - act(x, act(y, v)) + act(y, act(x, v)); must vanish.
    The operators of x and y are built once and each applied twice."""
    ox, oy = operator(params, x), operator(params, y)
    lhs = act(params, witt.bracket_witt(x, y), v)
    rhs = (apply_operator(params, ox, apply_operator(params, oy, v))
           - apply_operator(params, oy, apply_operator(params, ox, v)))
    return lhs - rhs


def w_fiber_basis(d: int, k: int, alpha, n) -> SpanBasis:
    """Basis of the degree-n fiber of the wedge submodule: the image of
    y -> y ^ (alpha + n) from the (k-1)-st exterior power.

    Dimension C(d-1, k-1) when alpha + n != 0, and 0 when alpha + n = 0.
    The image is spanned on the integer vector D (alpha + n), D the lcm of
    alpha's denominators, and its RREF basis does not depend on the scale.
    """
    if not 1 <= k <= d:
        raise ValueError(f"k must be in 1..{d}")
    alpha = tuple(Fraction(a) for a in alpha)
    den = lcm(*(a.denominator for a in alpha))
    w = [a.numerator * (den // a.denominator) + den * ni for a, ni in zip(alpha, n)]
    dim = comb(d, k)
    if not any(w):
        return basis_of([], dim)
    # the image of each basis (k-1)-vector e_s, over the k-subsets T
    vectors = [[0] * dim for _ in range(comb(d, k - 1))]
    for T, terms in enumerate(wedge_terms(d, k - 1)):
        for s, t, sign in terms:
            vectors[s][T] += sign * w[t]
    return basis_of(vectors, dim)


def _wedge_power(rep: RepHandle) -> int | None:
    """Which exterior power a rep is, for wedge-submodule purposes."""
    if rep.kind == "exterior":
        return rep.params["k"]
    if rep.kind == "natural":
        return 1
    if rep.kind == "trivial":
        return rep.d
    return None


def wedge_terms(d: int, k: int) -> tuple:
    """The map y -> y ^ w from the k-th to the (k+1)-st exterior power, as one
    tuple per (k+1)-subset T of 1..d of the terms (S index, t - 1, sign) with
    e_S ^ e_t = sign e_T and S = T minus t.  Empty when k = d."""
    index = {lab: s for s, lab in enumerate(combinations(range(1, d + 1), k))}
    return tuple(
        tuple((index[T[:pos] + T[pos + 1:]], t - 1, -1 if (k - pos) % 2 else 1)
              for pos, t in enumerate(T))
        for T in combinations(range(1, d + 1), k + 1)
    )


def wedge(terms: tuple, coords, w):
    """The coordinates of coords ^ w, lazily, over the (k+1)-subsets of
    1..d; ``terms`` is :func:`wedge_terms` of the power k of ``coords``."""
    return (sum(sign * coords[s] * w[t] for s, t, sign in T) for T in terms)


def in_wedge_fiber(terms: tuple, coords, w) -> bool:
    """True iff ``coords`` lies in the wedge fiber of w = alpha + m, given at
    any nonzero scale; ``terms`` is :func:`wedge_terms` of its power k.

    For w != 0 the fiber, the image of y -> y ^ w, is the kernel of
    coords -> coords ^ w because the Koszul complex of a nonzero vector is
    exact; for w = 0 the fiber is 0.
    """
    if not any(w):
        return not any(coords)
    return not any(wedge(terms, coords, w))


def w_membership(v: GradedVec) -> bool:
    """True iff every fiber lies in its wedge-submodule fiber."""
    k = _wedge_power(v.params.rep)
    if k is None:
        raise ValueError("wedge membership is defined for exterior-power reps only")
    terms = wedge_terms(v.params.d, k)
    alpha = v.params.alpha
    return all(in_wedge_fiber(terms, coords, tuple(a + ni for a, ni in zip(alpha, n)))
               for n, coords in v.fibers.items())


def trivial_split(params: ModuleParams) -> DegVec | None:
    """The rank-one module (k = d) is irreducible for non-integral alpha
    (None); otherwise it splits into the line at the returned degree -alpha
    plus the span of all other degrees."""
    if params.rep.kind != "trivial":
        raise ValueError("trivial_split applies to the trivial representation only")
    if params.alpha_integral():
        return tuple(-int(a) for a in params.alpha)
    return None
