"""Box-truncated submodule-closure engine.

Saturates a list of seed vectors under a family of homogeneous generators,
tracking the exact linear span of everything reached.  A generator maps the
fiber at degree n to a fiber at degree n + shift and is applied only when
both endpoints lie inside the working box, so the computed space is always a
subspace of the true submodule's restriction to the box.

The modules are Z^d-graded and every seed sits at one degree, as every CLI
config's seeds do, so the closure is graded: every row is a pair
``(degree index, dense coordinates)``, a fiber vector, and each fiber keeps
rows spanning the annihilator of its vectors, starting from the identity.  As
(V^⊥)^⊥ = V over any field, a vector lies in the span exactly when the
annihilator kills it, so no insert needs elimination: a vector the annihilator
does not kill is kept as it stands, rescaled to a primitive integer row (only
the span is tracked), and the annihilator is updated from the same dot
products.  The frontier thus carries each accepted image, not its reduction
against the span; after round k the span is that of the in-box words of
length at most k either way.  Every generator is the fiber map of a D(u, r)
(:func:`divalg.modules.term_map`) or an ``ad t^m``.  On the q side a
generator acts on a fiber as a scalar times a plain map: ``commutator_coeff(q,
m, n)`` times the identity for ``ad t^m``, sigma(r, n) times the plain map for
a twisted D(u, r).  The image of a fiber vector is then the scalar times the
plain image, the same line, so the engine applies only the plain map, and
q-closures run on the same integer rows as the classical ones.

These facts keep the work small without changing any span.  The box's degrees
are indexed in lexicographic order, so a shift moves an index by a fixed offset
and a row visits only the shifts that keep it inside the box
(:class:`Neighbours`).  A fiber whose rank reaches its upper bound is full, so
a generator whose image lands in a full fiber is skipped before it is
applied; the generators of one shift are consecutive in the family, so a row
checks its target fiber once per shift, and again only after one of that
shift's images is accepted, the one event that can fill a fiber.  That bound
is ``dim``; or the fiber dimension of the wedge submodule W when every seed
lies in W (:func:`w_bound`): W is invariant under the whole Witt algebra, so
the closure of such seeds never leaves it; or, on the q side, ``dim`` on the
seeds' side of the radical and 0 on the other when every seed lies on one
side (:func:`divalg.qder.radical_bound`): the radical fibers and the
off-radical fibers each form a submodule.  A row that fills its fiber empties
that fiber's annihilator rather than updating it.  The state counts its open
(not yet full) fibers, and saturation stops as soon as none is left: every
generator would be skipped from then on, so the rows still queued would add
nothing.  And D(u, r) is linear in u, so each degree component of L is
represented by one basis of its pair terms (:func:`pair_basis`) rather than by
all of them.

The per-degree report at the end is canonical (RREF fiber bases), so results
do not depend on generator scheduling.  A full fiber's rows are independent,
so its RREF is the identity, read off without elimination.  ``iterations``
counts the rounds of :func:`saturate`.

Off the radical a q-closure needs no saturation at all
(:func:`divalg.qder.off_radical_closure`).  ``ad t^m`` acts on the fiber at n
as ``commutator_coeff(q, m, n)`` times the identity, nonzero exactly when
f(m, n) != 1; f is bimultiplicative with f(m, m) = 1, so f(-m, n + m) =
f(m, n)^-1, and the generator box holds -m with m.  So a saturated closure has
one fiber on each component of the graph that joins off-radical degrees n and
n + m of the working box when f(m, n) != 1 (a radical degree has no such
edge).  Let every seed lie off the radical and those degrees form one
component, with fiber S'.  An outer generator D(u, r), r radical, maps v in S'
at n to (u|alpha + n) v + rho(r u^T) v in S' at n + r, so rho(r u^T) S' lies
in S' whenever some off-radical n has n and n + r in the box.  Conversely S,
the span of the seed coordinates closed under those rho(r u^T) with u in
:func:`pair_basis` (r), placed at every off-radical degree and 0 at every
radical one, holds the seeds and is invariant under every generator (the
degree derivations of Lqhat act by scalars).  So S' = S: every off-radical
fiber is S and every radical one is 0, one problem of size ``dim V`` whatever
the box.  ``iterations`` there is K + 1 for the last round K of that fixpoint
in V that added a row, counted as :func:`saturate` counts rounds, so it is not
the engine's count for the same closure.  Seeds on the radical, seeds on both
sides and boxes of several off-radical components run on this engine.
"""

from __future__ import annotations

import re
from collections import namedtuple
from functools import cache
from itertools import product
from math import comb, prod
from operator import mul

from .linalg import SpanBasis, _primitive, basis_of, same_span
from .modules import (GradedVec, ModuleParams, _wedge_power, term_map, w_fiber_basis,
                      w_membership)
from .witt import ALGEBRAS, DegVec


class Box(namedtuple("Box", "lo hi")):
    """A product of integer intervals [lo_i, hi_i] in Z^d, from its corners."""

    __slots__ = ()

    def __new__(cls, lo: DegVec, hi: DegVec):
        if len(lo) != len(hi):
            raise ValueError("box corner dimension mismatch")
        if any(a > b for a, b in zip(lo, hi)):
            raise ValueError("empty box")
        return super().__new__(cls, lo, hi)

    @staticmethod
    def radius(d: int, r: int) -> "Box":
        return Box((-r,) * d, (r,) * d)

    @property
    def d(self) -> int:
        return len(self.lo)

    @property
    def sides(self) -> tuple[int, ...]:
        """The side lengths, whose product is the number of degrees."""
        return tuple(b - a + 1 for a, b in zip(self.lo, self.hi))

    @property
    def strides(self) -> tuple[int, ...]:
        """The index step of each coordinate in :meth:`degrees`' order: a
        shift s moves the index of a degree whose shift stays inside by
        s . strides."""
        sides = self.sides
        return tuple(prod(sides[c + 1:]) for c in range(self.d))

    def contains(self, n) -> bool:
        return all(a <= x <= b for a, x, b in zip(self.lo, n, self.hi))

    def contains_box(self, other: "Box") -> bool:
        return self.contains(other.lo) and self.contains(other.hi)

    def degrees(self):
        """The box's degrees in lexicographic order: the product of the
        coordinate ranges, each increasing, with the last coordinate
        fastest."""
        return product(*(range(a, b + 1) for a, b in zip(self.lo, self.hi)))


# A row of a shape table, read by :func:`match`.
Shape = namedtuple("Shape", "name fiber free counted", defaults=(None, False))


class Label(namedtuple("Label", "kind vprime_dim", defaults=(None,))):
    """Classification of a saturated closure against the known submodules:
    ``kind`` names the first Shape of the table that fits, or Other, and
    ``vprime_dim`` is the free rank of a counted Shape, else None."""

    __slots__ = ()

    def __str__(self):
        return self.kind if self.vprime_dim is None else f"{self.kind}({self.vprime_dim})"

    @staticmethod
    def parse(text: str, shapes: list[Shape]) -> "Label | None":
        """The label printed as ``text``, if a row of ``shapes``, applicable
        or not, or Other gives it; None otherwise."""
        m = re.fullmatch(r"(\w+)(?:\(([1-9][0-9]*)\))?", text, re.ASCII)
        rows = [*shapes, Shape("Other", None)]
        fits = m and any(s.name == m[1] and s.counted == bool(m[2]) for s in rows)
        return Label(m[1], m[2] and int(m[2])) if fits else None


# A closure's outcome: fiber_bases maps each target degree to its SpanBasis
# and fiber_dims to its rank; label is None unless saturated.
ClosureResult = namedtuple("ClosureResult",
                           "target_box fiber_bases fiber_dims label iterations saturated")


# ---------------------------------------------------------------------------
# graded span state
# ---------------------------------------------------------------------------


def _annihilate(ann: list[list], dots: list) -> list[list]:
    """Rows spanning the vectors of span(``ann``) orthogonal to a vector w,
    given the dots of w with the rows of ``ann``, not all 0: with a0 the first
    row whose dot c0 is not 0, every other row a, of dot c, becomes c0 a - c
    a0, kept primitive, and a0 is dropped."""
    k = 0
    while not dots[k]:
        k += 1
    a0, c0 = ann[k], dots[k]
    return [_primitive([c0 * x - c * y for x, y in zip(a, a0)]) if c else a
            for t, (a, c) in enumerate(zip(ann, dots)) if t != k]


class SpanState:
    """The span of fiber vectors over the degrees of a box.

    ``fibers[i]`` holds the primitive rows accepted at degree index i, and
    ``annihilators[i]`` rows spanning the vectors orthogonal to all of them,
    starting from the identity.  ``bound(n)`` is an upper bound on the
    dimension at degree n of the submodule being spanned, ``dim`` when none
    is given.  Fiber i is full (every image landing in it lies in the span)
    once its rank meets the bound, and its annihilator is then emptied; the
    row that fills it skips the annihilator update.  ``open`` counts the
    fibers that are not full, starting from those with a nonzero bound, and
    is 0 once the whole box is full.
    """

    def __init__(self, box: Box, dim: int, bound=None):
        self.box = box
        self.dim = dim
        self.deg_list = list(box.degrees())
        self.deg_index = {n: i for i, n in enumerate(self.deg_list)}
        self.fibers: list[list[list]] = [[] for _ in self.deg_list]
        self.bound = [dim if bound is None else bound(n) for n in self.deg_list]
        # rows are never changed in place, so every fiber can share one identity
        identity = [[int(t == b) for t in range(dim)] for b in range(dim)]
        self.annihilators = [identity if b else [] for b in self.bound]
        self.open = sum(1 for b in self.bound if b)

    def insert(self, i: int, w: list) -> tuple[int, list] | None:
        """Add the fiber vector w at degree index i to the span; return the
        row ``(i, primitive w)`` kept for it, or None when the annihilator of
        fiber i kills w, that is, when w lies in the span already."""
        ann = self.annihilators[i]
        # the identity (no row in fiber i yet) has the dots w itself
        dots = w if len(ann) == self.dim else [sum(map(mul, a, w)) for a in ann]
        if not any(dots):
            return None
        row = _primitive(w)
        self.fibers[i].append(row)
        # the rank is dim - len(ann) before this row
        if self.dim - len(ann) + 1 < self.bound[i]:
            self.annihilators[i] = _annihilate(ann, dots)
        else:
            self.annihilators[i] = []
            self.open -= 1
        return i, row

    def rank(self) -> int:
        return sum(map(len, self.fibers))


class Generator:
    """A homogeneous operator: the fiber at n maps into the fiber at n + shift.

    ``block_apply(n, coords)`` returns the image coordinates (any nonzero
    multiple is acceptable, as only spans are tracked), or None when the
    image vanishes identically.  An operator that acts on each fiber as a
    scalar times a plain map, as the q generators do, is given by the plain
    map: the scalar does not change the line of an image.
    """

    __slots__ = ("shift", "block_apply")

    def __init__(self, shift: DegVec, block_apply):
        self.shift = shift
        self.block_apply = block_apply


class Neighbours:
    """In-box neighbours of the degrees of a box under a list of shifts.

    The box's degrees are indexed in lexicographic order, so the shift at
    position s takes index i to ``i + offsets[s]``, the shift dotted with
    the box strides, whenever the target stays inside the box.  One bitmask
    per coordinate value marks the shifts that keep that coordinate inside,
    built from the shifts grouped by their value there, and a degree's mask
    is the AND of its coordinates' masks, formed over their product in the
    box's order.
    """

    def __init__(self, box: Box, shifts: list[DegVec]):
        strides = box.strides
        self.offsets = [sum(x * t for x, t in zip(s, strides)) for s in shifts]
        self._deg_masks = [(1 << len(shifts)) - 1]  # every shift, at the one degree of Z^0
        for c, (lo, hi) in enumerate(zip(box.lo, box.hi)):
            # the shifts by their value x at coordinate c; v + x must stay inside
            by_value: dict[int, int] = {}
            for g, s in enumerate(shifts):
                by_value[s[c]] = by_value.get(s[c], 0) | 1 << g
            masks = [sum(m for x, m in by_value.items() if lo <= v + x <= hi)
                     for v in range(lo, hi + 1)]
            self._deg_masks = [a & m for a in self._deg_masks for m in masks]
        self._lists: dict[int, tuple[int, ...]] = {}

    def of(self, i: int) -> tuple[int, ...]:
        """Indices, in list order, of the shifts that keep the degree of
        index i inside the box."""
        mask = self._deg_masks[i]
        found = self._lists.get(mask)
        if found is None:
            shifts, rest = [], mask
            while rest:  # the set bits, lowest first
                low = rest & -rest
                shifts.append(low.bit_length() - 1)
                rest ^= low
            found = self._lists[mask] = tuple(shifts)
        return found


def saturate(state: SpanState, seeds: list[tuple[int, list]], generators: list[Generator],
             max_rounds: int) -> tuple[int, bool]:
    """Worklist saturation; returns (rounds executed, reached fixed point).

    Every row newly added to the span is queued, and each queued row is hit
    once with every generator that keeps it inside the box; linearity makes
    this equivalent to sweeping whole fibers.  Consecutive generators with
    one shift form a group, applied in list order.  A row checks its target
    fiber once per group, and again only after an image is accepted, the one
    event that can fill a fiber; a group whose target is full is skipped
    unapplied, as its images lie in the span already.

    Once ``state.open`` is 0 the round stops taking rows: every generator
    would be skipped.  Rounds and the fixed-point flag stay those of running
    every row: the rows queued so far stay queued, so the next round, if
    ``max_rounds`` allows it, runs over no row and finds the fixed point,
    just as a round over the queued rows would, since it could add nothing.
    """
    deg_list, annihilators = state.deg_list, state.annihilators
    shifts, groups = [], []
    for gen in generators:
        if shifts and shifts[-1] == gen.shift:
            groups[-1].append(gen)
        else:
            shifts.append(gen.shift)
            groups.append([gen])
    neighbours = Neighbours(state.box, shifts)
    offsets = neighbours.offsets

    frontier = []
    for i, w in seeds:
        added = state.insert(i, w)
        if added is not None:
            frontier.append(added)

    rounds = 0
    while frontier and rounds < max_rounds:
        rounds += 1
        next_frontier = []
        for i, coords in frontier:
            if not state.open:
                break  # every fiber is full: no generator applies to any row
            n = deg_list[i]
            for s in neighbours.of(i):
                j = i + offsets[s]
                if not annihilators[j]:
                    continue  # the target fiber is full
                for gen in groups[s]:
                    out = gen.block_apply(n, coords)
                    if out is not None:
                        added = state.insert(j, out)
                        if added is not None:
                            next_frontier.append(added)
                            if not annihilators[j]:
                                break  # this image filled the target fiber
        frontier = next_frontier
    return rounds, not frontier


# ---------------------------------------------------------------------------
# fiber extraction and classification
# ---------------------------------------------------------------------------


def extract_fibers(state: SpanState, target: Box) -> dict[DegVec, SpanBasis]:
    """Canonical per-degree bases of the computed span, over the target box:
    the RREF of each fiber's rows.  :meth:`SpanState.insert` keeps only rows
    independent of those before them, so a fiber of ``dim`` rows spans the
    whole fiber, whose RREF is the identity, shared by every such fiber."""
    dim, fibers, index = state.dim, state.fibers, state.deg_index
    identity = identity_basis(dim)
    out = {}
    for n in target.degrees():
        rows = fibers[index[n]]
        out[n] = identity if len(rows) == dim else basis_of(rows, dim)
    return out


def identity_basis(dim: int) -> SpanBasis:
    """The RREF basis of the whole space, without elimination."""
    return SpanBasis(dim, tuple(tuple(int(t == b) for t in range(dim)) for b in range(dim)),
                     tuple(range(dim)))


def match(result: ClosureResult, shapes: list[Shape]) -> Label:
    """The label of the first shape that the saturated fiber bases fit, or
    Other; the one place where fiber bases meet shapes.  A shape has a name,
    a ``fiber(n)``, the rank (0 or dim) or SpanBasis the fiber at n must have
    (None for a shape that does not apply), and ``free`` degrees whose fibers
    may hold anything but not only 0, so a box without one does not fit; a
    ``counted`` shape's label carries their rank, as WPrime(k)."""
    if not result.saturated:
        raise ValueError("cannot classify an unsaturated closure")
    for name, fiber, free, counted in (s for s in shapes if s.fiber):
        free_rank = 0
        for n, b in result.fiber_bases.items():
            if free and free(n):
                free_rank += b.rank
                continue
            want = fiber(n)
            if not (b.rank == want if isinstance(want, int) else same_span(b, want)):
                break
        else:
            if free is None or free_rank:
                return Label(name, free_rank if counted else None)
    return Label("Other")


def classical_shapes(params: ModuleParams, target: Box) -> list[Shape]:
    """Full; W when the rep has a wedge submodule; WPrime, W off -alpha and free
    at -alpha, when alpha is integral and -alpha lies in the target box."""
    dim, k = params.rep.dim, _wedge_power(params.rep)
    w = None if k is None else cache(lambda n: w_fiber_basis(params.d, k, params.alpha, n))
    neg = tuple(-int(a) for a in params.alpha) if params.alpha_integral() else None
    prime = w if neg is not None and target.contains(neg) else None
    return [Shape("Full", lambda n: dim), Shape("W", w),
            Shape("WPrime", prime, lambda n: n == neg, counted=True)]


def classify(result: ClosureResult, params: ModuleParams) -> Label:
    """Match saturated fiber bases against the classical shape table."""
    return match(result, classical_shapes(params, result.target_box))


# ---------------------------------------------------------------------------
# generating families and the closure driver
# ---------------------------------------------------------------------------


def pair_basis(r: DegVec) -> list[tuple[int, int, tuple]]:
    """(i, j, u) for a greedy basis, in i < j order, of the pair terms
    t^r (r_j d_i - r_i d_j) at a degree r != 0.

    The d - 1 kept terms span the whole divergence-zero component
    {u : (u|r) = 0}, which the C(d, 2) pair terms span with repeats.  With p
    the first index where r_p != 0, the greedy pass keeps exactly (i, p) for
    i < p, then (p, j) for j > p: a pair of indices below p has u = 0; (i, p)
    gives r_p e_i, a new coordinate vector, and every later (i, j) gives
    r_j e_i, a multiple of it; (p, j) is the first term to involve e_j, with
    the coefficient -r_p; and the d - 1 terms kept by then span the
    component, so no pair after them is independent.  So u is r_p e_i for
    (i, p) and r_j e_p - r_p e_j for (p, j), written down directly.
    """
    d = len(r)
    p = next((t for t, x in enumerate(r, 1) if x), None)
    if p is None:
        return []  # every pair term vanishes at r = 0
    rp = r[p - 1]
    return ([(i, p, tuple(rp if t == i else 0 for t in range(1, d + 1)))
             for i in range(1, p)]
            + [(p, j, tuple(r[j - 1] if t == p else -rp if t == j else 0
                            for t in range(1, d + 1)))
               for j in range(p + 1, d + 1)])


def unit_generators(params: ModuleParams, r: DegVec) -> list[Generator]:
    """D(e_j, r) for j = 1..d: the W generators at degree r.  Each map is
    built at D u, D = ``params.alpha_den``, so it is D times that of D(u, r),
    which the closure may use as it tracks only spans: (D u | alpha) is an
    integer, and integer rows give integer images on an integer matrix."""
    d, D = params.d, params.alpha_den
    return [Generator(r, term_map(params, tuple(D * (t == j) for t in range(d)), r))
            for j in range(d)]


def pair_generators(params: ModuleParams, r: DegVec) -> list[Generator]:
    """D(u, r) for the u of :func:`pair_basis` at a degree r != 0, a basis of
    the degree-r component of L, at D u as in :func:`unit_generators`, each
    written down from its closed form.  On the q side they stand for the
    sigma-twisted D(u, r), sigma(r, n) times these maps on the fiber at n."""
    d, D = params.d, params.alpha_den
    p = 0
    while not r[p]:
        p += 1
    # D u is D r_p e_i for i < p and D (r_i e_p - r_p e_i) for i > p
    rp = D * r[p]
    gens = []
    for i in range(d):
        if i != p:
            u = [0] * d
            if i < p:
                u[i] = rp
            else:
                u[p], u[i] = D * r[i], -rp
            gens.append(Generator(r, term_map(params, u, r)))
    return gens


def classical_generators(params: ModuleParams, gen_radius: int, algebra: str) -> list[Generator]:
    """Homogeneous generating family of the chosen algebra up to the radius.

    L: at every nonzero degree r in the radius box, the d - 1 pair elements
    of :func:`pair_generators`, a basis of the degree-r component; D(u, r)
    is linear in u, so the remaining pair elements add no image outside their
    span.  Lhat has the same family: its degree derivations D(e_j, 0) act on
    the fiber at n as the scalar (alpha + n)_j, so every image they make lies
    in the graded span already.  W: D(e_j, r) for every j and every degree (u
    is free by linearity).
    """
    if algebra not in ALGEBRAS:
        raise ValueError(f"algebra must be one of {tuple(ALGEBRAS)}")
    zero = (0,) * params.d
    gens = []
    for r in Box.radius(params.d, gen_radius).degrees():
        if algebra == "W":
            gens += unit_generators(params, r)
        elif r != zero:
            gens += pair_generators(params, r)
    return gens


def seed_fibers(params: ModuleParams, seeds: list[GradedVec], working: Box,
                target: Box) -> list[tuple[DegVec, tuple]]:
    """The ``(degree, coords)`` of each seed, once the input of a closure is
    checked, on either side and before any work: at least one seed, boxes of
    dimension d with the target inside the working box, and every seed
    nonzero at one degree of the working box."""
    if not seeds:
        raise ValueError("need at least one seed")
    if working.d != params.d or target.d != params.d:
        raise ValueError("box dimension mismatch")
    if not working.contains_box(target):
        raise ValueError("target box must lie inside the working box")
    fibers = []
    for s in seeds:
        if s.is_zero():
            raise ValueError("zero seed")
        if len(s.fibers) > 1:
            raise ValueError(f"seed on {len(s.fibers)} degrees: the closure takes seeds "
                             f"at one degree each")
        ((n, coords),) = s.fibers.items()
        if not working.contains(n):
            raise ValueError(f"seed degree {n} outside the working box")
        fibers.append((n, coords))
    return fibers


def _close(params: ModuleParams, seeds: list[GradedVec], working: Box, target: Box,
           max_iters: int, generators, classifier, bound=None) -> ClosureResult:
    """The closure driver of both sides: saturate the seeds under
    ``generators()`` inside the working box, extract canonical fiber bases
    over the target box and, when saturated, label them with
    ``classifier(result)``.  ``bound`` is the per-degree upper bound of
    :class:`SpanState`; it must hold for the closure of the seeds: ``dim``
    when None, the W fiber (:func:`w_bound`) or the radical split
    (:func:`divalg.qder.radical_bound`)."""
    fibers = seed_fibers(params, seeds, working, target)
    state = SpanState(working, params.rep.dim, bound)
    rows = [(state.deg_index[n], list(coords)) for n, coords in fibers]
    iterations, saturated = saturate(state, rows, generators(), max_iters)
    bases = extract_fibers(state, target)
    result = ClosureResult(target, bases, {n: b.rank for n, b in bases.items()}, None,
                           iterations, saturated)
    return result._replace(label=classifier(result)) if saturated else result


def w_bound(params: ModuleParams, seeds: list[GradedVec]):
    """The fiber dimension of the wedge submodule W at each degree,
    C(d-1, k-1) where alpha + n != 0 and 0 where alpha + n = 0, when every
    seed lies in W; None otherwise.  alpha + n = 0 only at n = -alpha for an
    integral alpha, so the bound is read per degree without arithmetic.

    W is invariant under the whole Witt algebra, so it bounds the closure of
    such seeds under W, Lhat and L.  Only the natural and exterior reps
    qualify: on the trivial rep the Witt algebra acts through the trace, and
    W is not a submodule there.
    """
    if params.rep.kind not in ("natural", "exterior") or not all(map(w_membership, seeds)):
        return None
    rank = comb(params.d - 1, _wedge_power(params.rep) - 1)
    if not params.alpha_integral():
        return lambda n: rank
    neg = tuple(-int(a) for a in params.alpha)
    return lambda n: 0 if n == neg else rank


def closure(params: ModuleParams, seeds: list[GradedVec], gen_radius: int,
            working: Box, target: Box, max_iters: int, algebra: str) -> ClosureResult:
    """Saturate the seeds under the chosen algebra inside the working box and
    report canonical fiber bases over the target box."""
    return _close(params, seeds, working, target, max_iters,
                  lambda: classical_generators(params, gen_radius, algebra),
                  lambda result: classify(result, params), w_bound(params, seeds))
