"""Derivations of the quantum torus and their graded tensor modules.

Elements of the derivation algebra split into inner terms c * ad t^m at
degrees outside the radical and outer terms D(u, r) at radical degrees.
The brackets are

    [ad t^m, ad t^n]   = ad [t^m, t^n]
    [D(u,r), ad t^s]   = (u|s) sigma(r,s) ad t^{r+s}
    [D(u,r), D(v,s)]   = sigma(r,s) ((u|s) D(v, r+s) - (v|r) D(u, r+s))

The outer-outer sign here is the one under which the module action below is
a representation (the classically compatible one); the q module suite of
:mod:`divalg.verify` reads that sign back from its residuals.

The module on C_q tensor V acts by

    (c ad t^m) . (t^n x v) = c [t^m, t^n] x v
    D(u, r) . (t^n x v)    = sigma(r, n) t^{r+n} x ((u | n + alpha) + r u^T) v

The outer-outer bracket and the outer action are the classical ones of
:mod:`divalg.witt` and :mod:`divalg.modules` with sigma as their cocycle;
this module adds the inner terms.  Membership is classical too: each q
algebra leaves its inner terms free and asks its outer part to lie in the
classical algebra that ``Q_OUTER`` names.  For block-normal q the congruence
classes of degrees modulo the radical decompose the module; class 0 is
annihilated by all inner terms and the remaining classes sum to the
irreducible complement.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, prod
from operator import mul

from .closure import (
    Box,
    ClosureResult,
    Generator,
    Label,
    Shape,
    _close,
    identity_basis,
    match,
    pair_basis,
    pair_generators,
    seed_fibers,
)
from .linalg import _primitive, _reduce_into, basis_of
from .modules import GradedVec, ModuleParams, act, apply_operator, operator
from .reps import RepHandle, act_matrix
from .scalars import Cyc, Rat
from .qtorus import (QMatrix, ad_form, block_structure, cocycle, commutator_coeff, in_rad,
                     sigma_exponent)
from .witt import ALGEBRAS, AlgElem, DegVec, bracket_witt, pairing

#: Global sign of the outer-outer bracket; +1 is the convention under which
#: the module action is a representation (and the only one degenerating to
#: the classical bracket at l = (1, ..., 1)).
OUTER_SIGN = 1

#: The q algebras, each with the classical algebra of :data:`ALGEBRAS` that
#: its outer part must lie in; inner terms need no condition.
Q_OUTER = {"Der": "W", "Lq": "L", "Lqhat": "Lhat"}

#: An inner coefficient: rational roots of unity and their sums stay ints
Scalar = int | Rat | Cyc


class QDerElem:
    """Finite sum of inner terms (degree outside Rad_q) and outer terms
    (degree inside Rad_q); the outer part is a classical :class:`AlgElem`.
    Inner coefficients are kept as given: int, Fraction or Cyc."""

    __slots__ = ("d", "inner", "outer")

    def __init__(self, d: int, inner: dict | None = None, outer: AlgElem | dict | None = None):
        self.d = d
        self.inner: dict[DegVec, Scalar] = {}
        for m, c in (inner or {}).items():
            if c:
                self.inner[tuple(int(x) for x in m)] = c
        if not isinstance(outer, AlgElem):
            outer = AlgElem(d, outer)
        elif outer.d != d:
            raise ValueError("dimension mismatch")
        self.outer = outer

    @classmethod
    def _trusted(cls, d: int, inner: dict[DegVec, Scalar], outer: AlgElem) -> "QDerElem":
        """An element from ``inner``, whose keys are already int tuples of
        length d, and the AlgElem ``outer``; only zero inner coefficients
        are dropped."""
        x = object.__new__(cls)
        x.d = d
        x.inner = {m: c for m, c in inner.items() if c}
        x.outer = outer
        return x

    @staticmethod
    def ad(m, coeff=1) -> "QDerElem":
        return QDerElem(len(m), inner={tuple(m): coeff})

    @staticmethod
    def douter(u, r) -> "QDerElem":
        return QDerElem(len(r), outer=AlgElem.term(u, r))

    @staticmethod
    def zero(d: int) -> "QDerElem":
        return QDerElem(d)

    def validate(self, q: QMatrix) -> None:
        for m in self.inner:
            if in_rad(q, m):
                raise ValueError(f"inner degree {m} lies in the radical")
        for r in self.outer.terms:
            if not in_rad(q, r):
                raise ValueError(f"outer degree {r} lies outside the radical")

    def is_zero(self) -> bool:
        return not self.inner and self.outer.is_zero()

    def __add__(self, other: "QDerElem") -> "QDerElem":
        if other.d != self.d:
            raise ValueError("dimension mismatch")
        inner = dict(self.inner)
        for m, c in other.inner.items():
            inner[m] = inner[m] + c if m in inner else c
        return QDerElem._trusted(self.d, inner, self.outer + other.outer)

    def __neg__(self) -> "QDerElem":
        return QDerElem._trusted(self.d, {m: -c for m, c in self.inner.items()}, -self.outer)

    def __sub__(self, other: "QDerElem") -> "QDerElem":
        return self + (-other)

    def scale(self, c) -> "QDerElem":
        return QDerElem._trusted(self.d, {m: x * c for m, x in self.inner.items()},
                                 self.outer.scale(c))

    def __eq__(self, other):
        if not isinstance(other, QDerElem):
            return NotImplemented
        return self.d == other.d and (self - other).is_zero()

    __hash__ = None

    def __repr__(self):
        bits = [f"{c!r}*ad t^{list(m)}" for m, c in sorted(self.inner.items())]
        if self.outer.terms:
            bits.append(repr(self.outer))
        return " + ".join(bits) if bits else "QDerElem(0)"


def bracket_qder(q: QMatrix, x: QDerElem, y: QDerElem, outer_sign: int = OUTER_SIGN) -> QDerElem:
    """Bilinear extension of the three bracket cases; the outer-outer case is
    the classical bracket with sigma as its cocycle."""
    if x.d != y.d or x.d != q.d:
        raise ValueError("dimension mismatch")
    x.validate(q)
    y.validate(q)
    sig = cocycle(q)
    inner: dict[DegVec, Scalar] = {}

    def add_inner(m: DegVec, c: Scalar) -> None:
        if not c:
            return
        if in_rad(q, m):
            raise ValueError(
                f"bracket produced an inner term at radical degree {m}; "
                "no such basis element exists in the derivation algebra"
            )
        inner[m] = inner[m] + c if m in inner else c

    # inner-inner: ad of the monomial commutator
    for m, cm in x.inner.items():
        for n, cn in y.inner.items():
            c = commutator_coeff(q, m, n)
            if c is not None:
                add_inner(tuple(a + b for a, b in zip(m, n)), c * (cm * cn))

    # outer-inner, and inner-outer by antisymmetry
    for alg, ads, sign in ((x.outer, y.inner, 1), (y.outer, x.inner, -1)):
        for r, u in alg.terms.items():
            for s, cs in ads.items():
                coeff = pairing(u, s)
                if coeff:
                    c = cs * (sign * coeff)
                    if sig is not None and (z := sig(r, s)) != 1:
                        c = c * z
                    add_inner(tuple(a + b for a, b in zip(r, s)), c)

    outer = bracket_witt(x.outer, y.outer, sig)
    return QDerElem._trusted(q.d, inner, outer if outer_sign == 1 else -outer)


# ---------------------------------------------------------------------------
# the graded module
# ---------------------------------------------------------------------------


def _inner_map(q: QMatrix, m: DegVec, cm):
    """The fiber map ``(n, w) -> image | None`` of cm ad t^m."""
    scaled = cm != 1

    def apply(n, w):
        c = commutator_coeff(q, m, n)
        if c is None:
            return None
        if scaled:
            c = c * cm
        return [c * x for x in w]
    return apply


def operator_q(q: QMatrix, params: ModuleParams, x: QDerElem) -> list:
    """x, validated once, as an operator on params' module for
    :func:`~divalg.modules.apply_operator`: the fiber maps of its inner
    terms, then the :func:`~divalg.modules.operator` of its outer part with
    sigma as the cocycle."""
    x.validate(q)
    return ([(m, _inner_map(q, m, cm)) for m, cm in x.inner.items()]
            + operator(params, x.outer, cocycle(q)))


def act_q(q: QMatrix, x: QDerElem, v: GradedVec) -> GradedVec:
    """The action on v's module, extended bilinearly over terms and fibers;
    the outer terms act classically with sigma as the cocycle."""
    return apply_operator(v.params, operator_q(q, v.params, x), v)


def module_axiom_residual_q(q: QMatrix, x: QDerElem, y: QDerElem, v: GradedVec,
                            outer_sign: int = OUTER_SIGN) -> GradedVec:
    """act([x,y], v) - act(x, act(y, v)) + act(y, act(x, v)); must vanish.
    The operators of x and y are built once and each applied twice."""
    params = v.params
    ox, oy = operator_q(q, params, x), operator_q(q, params, y)
    lhs = act_q(q, bracket_qder(q, x, y, outer_sign), v)
    rhs = (apply_operator(params, ox, apply_operator(params, oy, v))
           - apply_operator(params, oy, apply_operator(params, ox, v)))
    return lhs - rhs


def in_q_algebra(q: QMatrix, algebra: str, x: QDerElem) -> bool:
    """Whether x, once validated, lies in the q algebra: its outer part in
    the classical algebra ``Q_OUTER[algebra]``."""
    x.validate(q)
    return ALGEBRAS[Q_OUTER[algebra]](x.outer)


# ---------------------------------------------------------------------------
# congruence classes and the block-normal isomorphisms
# ---------------------------------------------------------------------------


def _require_block(q: QMatrix) -> tuple[int, ...]:
    l = block_structure(q)
    if l is None:
        raise ValueError("this operation requires a block-normal commutation matrix")
    return l


def class_of(l: tuple[int, ...], n) -> DegVec:
    """The congruence class of a degree modulo the radical lattice diag(l)."""
    return tuple(x % li for x, li in zip(n, l))


def congruence_classes(l: tuple[int, ...]) -> list[DegVec]:
    """All classes i with 0 <= i_j < l_j, sorted."""
    out = [()]
    for li in l:
        out = [c + (x,) for c in out for x in range(li)]
    return sorted(out)


def iso_algebra(q: QMatrix, x: QDerElem) -> AlgElem:
    """The radical-degree part of the skew derivation algebra mapped onto the
    classical algebra: D(u, n) -> D(L u, L^{-1} n) componentwise."""
    if x.inner:
        raise ValueError("iso_algebra is defined on outer terms only")
    l = _require_block(q)
    x.validate(q)
    terms = {}
    for n, u in x.outer.terms.items():
        if any(ni % li for ni, li in zip(n, l)):
            raise ValueError(f"degree {n} is not in the radical lattice")
        terms[tuple(ni // li for ni, li in zip(n, l))] = tuple(li * ui for li, ui in zip(l, u))
    return AlgElem(q.d, terms)


def iso_params(q: QMatrix, params: ModuleParams, i) -> ModuleParams:
    """Parameters of the classical target module for class i: twisted rep and
    alpha_i = ((alpha_j + i_j) / l_j)_j, built once per (q, params, i)."""
    return _iso_params(q, params, tuple(int(x) for x in i))


@lru_cache(maxsize=64)
def _iso_params(q: QMatrix, params: ModuleParams, i: DegVec) -> ModuleParams:
    l = _require_block(q)
    alpha_i = tuple((a + ii) / li for a, ii, li in zip(params.alpha, i, l))
    return ModuleParams(q.d, alpha_i, RepHandle.twisted(params.rep, l))


def iso_module(q: QMatrix, i, v: GradedVec) -> GradedVec:
    """Class-i fibers mapped onto the classical module: degree n + i with
    n in the radical goes to degree L^{-1} n, identical coordinates."""
    l = _require_block(q)
    i = tuple(int(x) for x in i)
    fibers = {}
    for n, coords in v.fibers.items():
        if class_of(l, n) != class_of(l, i):
            raise ValueError(f"fiber at {n} is not in congruence class {i}")
        base = tuple((ni - ii) // li for ni, ii, li in zip(n, i, l))
        fibers[base] = coords
    return GradedVec(iso_params(q, v.params, i), fibers)


def equivariance_residual(q: QMatrix, i, x: QDerElem, v: GradedVec) -> GradedVec:
    """iso(x . v) - iso(x) . iso(v); zero iff the isomorphisms intertwine."""
    lhs = iso_module(q, i, act_q(q, x, v))
    rhs = act(iso_params(q, v.params, i), iso_algebra(q, x), iso_module(q, i, v))
    return lhs - rhs


def ad_annihilation_check(q: QMatrix, params: ModuleParams, radius: int = 2) -> bool:
    """All inner derivations kill every class-0 fiber, checked on a degree
    box: the fiber map of ad t^m, for each off-radical m of the box, must
    vanish on a radical fiber.  The verdict rests on this spot check, which
    applies the map that :func:`act_q` applies without validating m again.

    The box is walked once, with one :func:`~divalg.qtorus.in_rad` per
    degree.  The check also compares sigma(e_i, n) with sigma(n, e_i) for
    each radical n and unit vector e_i.  ``in_rad`` already means that these
    agree as read from ``q.exps``, so the comparison only guards the
    ``_sigma_terms`` that :func:`~divalg.qtorus.sigma_exponent` reads against
    ``exps``."""
    _require_block(q)
    rad_degrees, off_degrees = [], []
    for n in Box.radius(q.d, radius).degrees():
        (rad_degrees if in_rad(q, n) else off_degrees).append(n)
    units = [tuple(int(i == j) for j in range(q.d)) for i in range(q.d)]
    for n in rad_degrees:
        for e in units:
            if sigma_exponent(q, e, n) != sigma_exponent(q, n, e):
                return False
    n, w = rad_degrees[0], (1,) * params.rep.dim
    return all(_inner_map(q, m, 1)(n, w) is None for m in off_degrees)


# ---------------------------------------------------------------------------
# q-side closure
# ---------------------------------------------------------------------------

Q_ALGEBRAS = ("Lq", "Lqhat")


def _inner_generator(q: QMatrix, m: DegVec) -> Generator:
    """ad t^m as a closure generator: on the fiber at n it is the scalar
    ``commutator_coeff(q, m, n)`` times the identity, so the image of w is
    the line of w where that scalar is nonzero and 0 where it is zero.  The
    map returns w or None accordingly, without building the scalar: it is
    nonzero exactly when f(m, n) = sigma(m, n) / sigma(n, m) is not 1, that
    is when the :func:`~divalg.qtorus.ad_form` of m, built once per m, is
    not 0 mod N at n."""
    N = q.N
    form = ad_form(q, m)

    def block_apply(n, w):
        s = 0
        for i, c in form:
            s += c * n[i]
        return w if s % N else None
    return Generator(m, block_apply)


def qder_generators(q: QMatrix, params: ModuleParams, gen_radius: int,
                    algebra: str, radical_only: bool = False) -> list[Generator]:
    """Inner generators ad t^m off the radical (:func:`_inner_generator`)
    plus divergence-zero outer generators at radical degrees.  An outer
    generator acts on the fiber at n as sigma(r, n) times the classical map,
    so it is given by the classical pair generator, whose images span the
    same lines.  Lqhat has the same family: its degree derivations D(e_j, 0)
    act on the fiber at n as the scalar (alpha + n)_j, so every image they
    make lies in the graded span already.

    ``radical_only`` leaves out the ``ad t^m``, for rows on the radical: there
    ``ad t^m`` is 0 (f(m, n) = 1 for a radical n, :func:`radical_bound`)."""
    if algebra not in Q_ALGEBRAS:
        raise ValueError(f"algebra must be one of {Q_ALGEBRAS}")
    zero = (0,) * q.d
    gens = []
    for m in Box.radius(q.d, gen_radius).degrees():
        if m == zero:
            continue
        if in_rad(q, m):
            gens += pair_generators(params, m)
        elif not radical_only:
            gens.append(_inner_generator(q, m))
    return gens


def q_shapes(q: QMatrix, params: ModuleParams) -> list[Shape]:
    """Full; GqFull, the off-radical complement (0 on the radical, dim off it);
    Class0 for a block-normal q, whose class 0 is the radical: 0 off it, free on it."""
    dim = params.rep.dim
    return [Shape("Full", lambda n: dim), Shape("GqFull", lambda n: 0 if in_rad(q, n) else dim),
            Shape("Class0", None if block_structure(q) is None else lambda n: 0,
                  lambda n: in_rad(q, n))]


def classify_q(result: ClosureResult, q: QMatrix, params: ModuleParams) -> Label:
    """Match saturated fiber bases against the q shape table."""
    return match(result, q_shapes(q, params))


def radical_bound(q: QMatrix, params: ModuleParams, seeds: list[GradedVec]):
    """The fiber bound of the seeds' side of the radical when every seed
    degree lies on one side: ``dim`` on that side and 0 on the other; None
    for seeds on both sides.

    The radical fibers and the off-radical fibers each form a submodule, for
    every q.  An outer generator has a radical shift, so it keeps a degree's
    side.  ``ad t^m`` acts on the fiber at n as sigma(m, n) - sigma(n, m),
    which is 0 exactly when f(m, n) = 1; f is bimultiplicative with f(m, m)
    = 1 and f(., r) = 1 for a radical r, so f(m, n) = f(m, n + m) = 1
    whenever n or n + m is radical, and no ``ad t^m`` crosses the radical.
    Zero seeds have no degree and are left to the driver to refuse.
    """
    sides = {in_rad(q, n) for s in seeds for n in s.fibers}
    if len(sides) != 1:
        return None
    (radical,) = sides
    dim = params.rep.dim
    return lambda n: dim if in_rad(q, n) == radical else 0


class _DegreeSets:
    """Sets of degrees of a box as int bitmasks: bit i stands for the degree
    of index i in the box's lexicographic order (:meth:`Box.degrees`), so a
    shift s moves the bits of degrees whose shift stays inside by
    s . strides."""

    def __init__(self, box: Box):
        self.box = box
        self.strides = box.strides
        self.all = (1 << prod(box.sides)) - 1
        self._windows: dict[tuple[int, int, int, int], int] = {}
        self._nonzero: dict[tuple, int] = {}

    def window(self, c: int, a: int, b: int, step: int = 1) -> int:
        """The degrees whose coordinate c is one of a, a + step, ... up to b:
        spaced runs of bits in one period of coordinate c, repeated over the
        box by one multiplication."""
        key = (c, a, b, step)
        bits = self._windows.get(key)
        if bits is None:
            lo, hi = self.box.lo[c], self.box.hi[c]
            if a < lo:
                a = lo + (a - lo) % step  # the first value at or above lo
            b = min(b, hi)
            bits = 0
            if a <= b:
                stride = self.strides[c]
                period = stride * (hi - lo + 1)
                count = (b - a) // step + 1
                gap = stride * step
                runs = ((1 << stride) - 1) * (((1 << gap * count) - 1) // ((1 << gap) - 1))
                bits = (runs << stride * (a - lo)) * (self.all // ((1 << period) - 1))
            self._windows[key] = bits
        return bits

    def inside(self, s: DegVec) -> int:
        """The degrees n with n + s in the box."""
        bits = self.all
        for c, (x, lo, hi) in enumerate(zip(s, self.box.lo, self.box.hi)):
            if x:
                bits &= self.window(c, lo - x, hi - x)
        return bits

    def nonzero(self, form: tuple, N: int) -> int:
        """The degrees n with sum_i c_i n_i != 0 mod N, for the (i, c_i) of
        ``form``: the degrees split by that residue one coordinate at a
        time, each by the values of n_i mod N / gcd(c_i, N), which fix
        c_i n_i mod N."""
        bits = self._nonzero.get(form)
        if bits is None:
            by_residue = {0: self.all}
            for i, c in form:
                period = N // gcd(c, N)
                split: dict[int, int] = {}
                for v in range(self.box.lo[i], self.box.lo[i] + period):
                    line = self.window(i, v, self.box.hi[i], period)
                    for t, part in by_residue.items():
                        if part & line:
                            key = (t + c * v) % N
                            split[key] = split.get(key, 0) | part & line
                by_residue = split
            bits = self._nonzero[form] = self.all & ~by_residue.get(0, 0)
        return bits


def _one_component(off: int, edges: list[tuple[int, int]]) -> bool:
    """Whether the degrees of ``off`` form one component under ``edges``,
    each an index offset and the set of degrees it joins to their shift.

    Each pass follows every edge as far as it goes by doubling: with
    ``runs`` the degrees from which 2^k steps of the edge stay on it, the
    reached degrees there jump 2^k steps, so a line of L degrees takes
    log L jumps, not L passes."""
    reach = off & -off  # the first degree of off
    while True:
        before = reach
        for offset, runs in edges:
            while moved := reach & runs:
                if offset > 0:
                    reach |= moved << offset
                    runs &= runs >> offset
                else:
                    reach |= moved >> -offset
                    runs &= runs << -offset
                offset *= 2
        if reach == off:
            return True
        if reach == before:
            return False


def _outer_maps(shifts: list, d: int) -> list:
    """A basis, as d x d row lists, of the span in gl_d of the r u^T for the
    shifts r and the u of :func:`pair_basis` (r).

    Each r u^T has its image in P, the span of the shifts, and trace (u|r)
    = 0, and the maps of trace 0 with image in P form a space of dimension
    p d - 1, p = dim P; the reduction stops once the basis is that large.
    The shifts are taken in increasing L1 norm, and one per line through the
    origin, as c r u^T is a multiple of r u^T."""
    shifts = sorted(shifts, key=lambda r: sum(map(abs, r)))
    echelon: dict = {}
    for r in shifts:
        if _reduce_into(echelon, list(r)) is not None and len(echelon) == d:
            break  # P is all of Q^d
    top = len(echelon) * d - 1
    maps: list = []
    gl: dict = {}
    lines = set()
    for r in shifts:
        line = tuple(_primitive(list(r)))
        if line in lines:
            continue
        lines.add(line)
        for _, _, u in pair_basis(r):
            b = [[x * y for y in u] for x in r]
            if _reduce_into(gl, [x for row in b for x in row]) is not None:
                maps.append(b)
                if len(maps) == top:
                    return maps
    return maps


def off_radical_closure(q: QMatrix, params: ModuleParams, fibers: list, gen_radius: int,
                        working: Box, target: Box, max_iters: int) -> ClosureResult | None:
    """The closure of seeds off the radical, given as the ``(degree,
    coords)`` of :func:`~divalg.closure.seed_fibers`, under Lq or Lqhat: the
    subspace S of V at every off-radical target degree and 0 at every
    radical one, by the lemma of :mod:`divalg.closure`; None when the
    off-radical degrees of the working box are not one component under the
    nonzero ``ad t^m`` edges, found by a walk over int bitmasks of the box
    (:class:`_DegreeSets`).

    rho is linear and rho(-r u^T) = -rho(r u^T), so one shift of each pair
    +-r is taken, and of the r u^T only a basis of their span in gl_d
    (:func:`_outer_maps`), at most d^2 - 1 maps.  S is reached
    as the engine reaches a span: seed rows first, then rounds, each
    applying the maps to the rows the round before added; ``iterations`` is
    K + 1 for the last round K that added a row, capped by ``max_iters``,
    and the closure is saturated when no row is left queued.
    """
    d, N = q.d, q.N
    sets = _DegreeSets(working)
    off = 0
    for e in (tuple(int(i == j) for j in range(d)) for i in range(d)):
        off |= sets.nonzero(ad_form(q, e), N)  # f(e_i, n) != 1 for some i: n is off the radical
    zero = (0,) * d
    edges, shifts = [], []
    for m in Box.radius(d, gen_radius).degrees():
        inside = sets.inside(m)
        if not inside:
            continue
        form = ad_form(q, m)
        if form:
            bits = inside & sets.nonzero(form, N)
            if bits:
                edges.append((sum(map(mul, m, sets.strides)), bits))
        elif m > zero and inside & off:  # one shift of each pair +-r
            shifts.append(m)
    if not _one_component(off, edges):
        return None

    maps = _outer_maps(shifts, d)
    rep, dim = params.rep, params.rep.dim
    span: dict = {}
    frontier = [row for _, coords in fibers
                if (row := _reduce_into(span, list(coords))) is not None]
    rounds = 0
    while frontier and rounds < max_iters:
        rounds += 1
        images = (act_matrix(rep, b, w) for w in frontier for b in maps) if len(span) < dim else ()
        frontier = [row for img in images
                    if any(img) and (row := _reduce_into(span, list(img))) is not None]

    basis = identity_basis(dim) if len(span) == dim else basis_of(span.values(), dim)
    empty = basis_of([], dim)
    bases = {n: empty if in_rad(q, n) else basis for n in target.degrees()}
    result = ClosureResult(target, bases, {n: b.rank for n, b in bases.items()}, None, rounds,
                           not frontier)
    if result.saturated:
        result.label = classify_q(result, q, params)
    return result


def closure_q(q: QMatrix, params: ModuleParams, seeds: list[GradedVec], gen_radius: int,
              working: Box, target: Box, max_iters: int, algebra: str) -> ClosureResult:
    """Saturate the seeds under the chosen q-algebra inside the working box and
    report canonical fiber bases over the target box.  Seeds all off the
    radical whose box has one off-radical component take
    :func:`off_radical_closure`; every other closure runs on the engine,
    with only the outer generators when every seed is on the radical."""
    fibers = seed_fibers(params, seeds, working, target)
    if algebra not in Q_ALGEBRAS:
        raise ValueError(f"algebra must be one of {Q_ALGEBRAS}")
    radical = [in_rad(q, n) for n, _ in fibers]
    if not any(radical):
        result = off_radical_closure(q, params, fibers, gen_radius, working, target, max_iters)
        if result is not None:
            return result
    return _close(params, seeds, working, target, max_iters,
                  lambda: qder_generators(q, params, gen_radius, algebra, all(radical)),
                  lambda result: classify_q(result, q, params),
                  radical_bound(q, params, seeds))
