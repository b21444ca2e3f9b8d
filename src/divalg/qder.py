"""Derivations of the quantum torus and their graded tensor modules.

Elements of the derivation algebra split into inner terms c * ad t^m at
degrees outside the radical and outer terms D(u, r) at radical degrees.
The brackets are

    [ad t^m, ad t^n]   = ad [t^m, t^n]
    [D(u,r), ad t^s]   = (u|s) sigma(r,s) ad t^{r+s}
    [D(u,r), D(v,s)]   = sigma(r,s) ((u|s) D(v, r+s) - (v|r) D(u, r+s))

The outer-outer sign here is the one under which the module action below is
a representation (the classically compatible one); see
:func:`outer_bracket_sign_oracle`, which verifies that choice and rejects
the opposite sign.

The module on C_q tensor V acts by

    (c ad t^m) . (t^n x v) = c [t^m, t^n] x v
    D(u, r) . (t^n x v)    = sigma(r, n) t^{r+n} x ((u | n + alpha) + r u^T) v

The outer-outer bracket and the outer action are the classical ones of
:mod:`divalg.witt` and :mod:`divalg.modules` with sigma as their cocycle;
this module adds the inner terms.  For block-normal q the congruence
classes of degrees modulo the radical decompose the module; class 0 is
annihilated by all inner terms and the remaining classes sum to the
irreducible complement.
"""

from __future__ import annotations

from functools import lru_cache

from .closure import (
    Box,
    ClosureResult,
    Generator,
    Label,
    Shape,
    _close,
    match,
    pair_generators,
    unit_generators,
)
from .modules import GradedVec, ModuleParams, act, apply_operator, graded, operator
from .reps import RepHandle
from .scalars import Cyc, Rat
from .qtorus import (QMatrix, block_structure, cocycle, commutator_coeff, commutator_exponents,
                     in_rad, sigma_exponent)
from .witt import AlgElem, DegVec, bracket_witt, in_L, in_Lhat, pairing

#: Global sign of the outer-outer bracket; +1 is the convention validated by
#: the representation oracle (and the only one degenerating to the classical
#: bracket at l = (1, ..., 1)).
OUTER_SIGN = 1

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


def outer_bracket_sign_oracle(q: QMatrix, samples) -> int:
    """Select the outer-outer bracket sign by requiring the representation
    property on the supplied (x, y, v) samples; returns +1 or -1.

    Raises if neither or both signs pass (which would signal a broken setup).
    """
    verdict = {}
    for sign in (1, -1):
        ok = True
        for x, y, v in samples:
            if not module_axiom_residual_q(q, x, y, v, sign).is_zero():
                ok = False
                break
        verdict[sign] = ok
    if verdict[1] == verdict[-1]:
        raise ValueError(f"sign oracle is inconclusive: {verdict}")
    return 1 if verdict[1] else -1


def in_Lq(q: QMatrix, x: QDerElem) -> bool:
    """Inner terms free; outer terms divergence-zero with no degree-0 part."""
    x.validate(q)
    return in_L(x.outer)


def in_Lqhat(q: QMatrix, x: QDerElem) -> bool:
    """Like in_Lq but the degree-0 outer part is unrestricted."""
    x.validate(q)
    return in_Lhat(x.outer)


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


def g_q_component(q: QMatrix, v: GradedVec) -> GradedVec:
    """The part of v supported on nonzero congruence classes."""
    l = _require_block(q)
    zero = (0,) * q.d
    fib = {n: c for n, c in v.fibers.items() if class_of(l, n) != zero}
    return GradedVec(v.params, fib)


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
    """All inner derivations kill every class-0 fiber: sigma(m, n) = sigma(n, m)
    for every off-radical m and radical n of a degree box, checked exactly.

    sigma(m, n) / sigma(n, m) is bimultiplicative, so it is 1 for every m
    once it is 1 at each unit vector e_i; a radical e_i commutes with
    everything, so taking it in changes nothing.  Comparing the exponents
    at (e_i, n) for each radical n of the box thus gives the verdict over
    all pairs of the box in d passes over its radical degrees.  Each
    off-radical m of the box is also spot-checked through the module
    action itself."""
    _require_block(q)
    box = Box.radius(q.d, radius)
    rad_degrees = [n for n in box.degrees() if in_rad(q, n)]
    units = [tuple(int(i == j) for j in range(q.d)) for i in range(q.d)]
    for n in rad_degrees:
        for e in units:
            if sigma_exponent(q, e, n) != sigma_exponent(q, n, e):
                return False
    w = graded(params, rad_degrees[0], (1,) * params.rep.dim)
    for m in box.degrees():
        if not in_rad(q, m) and not act_q(q, QDerElem.ad(m), w).is_zero():
            return False
    return True


# ---------------------------------------------------------------------------
# q-side closure
# ---------------------------------------------------------------------------

Q_ALGEBRAS = ("Lq", "Lqhat")


def _inner_generator(q: QMatrix, m: DegVec) -> Generator:
    """ad t^m as a closure generator: on the fiber at n it is the scalar
    ``commutator_coeff(q, m, n)`` times the identity, so the image of w is
    the line of w where that scalar is nonzero and 0 where it is zero.  The
    map returns w or None accordingly; whether the scalar is zero depends
    only on m and n mod N, so it is read off the matrix's memo of
    :func:`~divalg.qtorus.commutator_exponents`, without building it."""
    N = q.N
    m_mod = tuple(x % N for x in m)

    def block_apply(n, w):
        return None if commutator_exponents(q, m_mod, tuple(x % N for x in n)) is None else w
    return Generator(m, block_apply)


def qder_generators(q: QMatrix, params: ModuleParams, gen_radius: int,
                    algebra: str) -> list[Generator]:
    """Inner generators ad t^m off the radical (:func:`_inner_generator`)
    plus divergence-zero outer generators at radical degrees (with the
    degree derivations for Lqhat).  An outer generator acts on the fiber at
    n as sigma(r, n) times the classical map, so it is given by the
    classical pair generator, whose images span the same lines."""
    if algebra not in Q_ALGEBRAS:
        raise ValueError(f"algebra must be one of {Q_ALGEBRAS}")
    zero = (0,) * q.d
    gens = unit_generators(params, zero) if algebra == "Lqhat" else []
    for m in sorted(Box.radius(q.d, gen_radius).degrees()):
        if m == zero:
            continue
        if in_rad(q, m):
            gens += pair_generators(params, m)
        else:
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


def closure_q(q: QMatrix, params: ModuleParams, seeds: list[GradedVec], gen_radius: int,
              working: Box, target: Box, max_iters: int, algebra: str) -> ClosureResult:
    """Saturate the seeds under the chosen q-algebra inside the working box and
    report canonical fiber bases over the target box."""
    return _close(params, seeds, working, target, max_iters,
                  lambda: qder_generators(q, params, gen_radius, algebra),
                  lambda result: classify_q(result, q, params))
