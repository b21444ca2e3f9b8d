"""Seeded randomized verification suites.

Each suite draws its samples from a caller-supplied random.Random, runs the
relevant exact residual checks, and returns a JSON-able summary dict with
``checks`` and ``violations`` counts (plus suite-specific extras).  The CLI
wraps these into reports; the acceptance tests call them directly.  With a
fixed seed every suite is fully deterministic.

Every draw goes through :func:`randbelow` (written out inline in the
hottest samplers), which reads ``rng.getrandbits`` by CPython's own rule
for ``randrange``: a seed gives exactly the samples that ``randint`` and
``randrange`` would draw, without their three Python frames per draw.

The algebra samplers return 6 times a random element with coefficients
a / b (|a| <= 6, 1 <= b <= 3), so every coordinate is a Python integer, and
the module suites scale each sampled element by D, the lcm of the
denominators of alpha, so that (u | alpha) is an integer for every term of
the element and of its brackets.  Each check is multilinear in its algebra
elements and membership is in subspaces, so neither multiple changes a
verdict, and the brackets and actions run on integers instead of Fractions.

The samplers build their elements through ``_trusted``, unvalidated: their
keys are int tuples and their entries ints or roots, and a q sample's inner
degrees are drawn off the radical and its outer ones on it.  A q element is
validated where it enters a check, once per q (:mod:`divalg.qder`).
"""

from __future__ import annotations

from math import lcm
from operator import add, mul, sub
from random import Random

from .closure import Box
from .linalg import _reduce_into
from .modules import (
    GradedVec,
    ModuleParams,
    _wedge_power,
    act,
    act_d_basis,
    graded,
    in_wedge_fiber,
    module_axiom_residual,
    w_fiber_basis,
    wedge,
    wedge_terms,
)
from .qder import (
    OUTER_SIGN,
    Q_OUTER,
    QDerElem,
    bracket_qder,
    equivariance_residual,
    in_q_algebra,
    module_axiom_residual_q,
)
from .qtorus import (
    QMatrix,
    _rad_basis,
    block_structure,
    cocycle_identities_residual,
    in_rad,
    rad_q,
    sigma_cocycle_residual,
)
from .reps import act_matrix
from .scalars import format_rat, root
from .witt import (
    ALGEBRAS,
    AlgElem,
    add_term,
    bracket_witt,
    d_basis,
    lemma_orthg,
    pair_term,
    pairing,
)


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------


def randbelow(rng: Random, n: int) -> int:
    """A draw from range(n), n >= 1, on the stream of ``rng.randrange(n)``:
    ``rng.getrandbits(n.bit_length())``, drawn again while it is >= n, which
    is CPython's own rule, so a width-1 range consumes a draw too.
    ``rng.randint(a, b)`` is ``a + randbelow(rng, b - a + 1)``."""
    if n < 1:
        raise ValueError(f"empty range for randbelow ({n})")
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return r


def sample_degree(rng: Random, d: int, radius: int, nonzero: bool = False) -> tuple:
    """A degree of the radius box, redrawn until nonzero when ``nonzero``;
    a box with no nonzero degree raises ValueError before any draw."""
    if nonzero and radius < 1:
        raise ValueError(f"the radius-{radius} box has no nonzero degree")
    # randbelow(rng, width) - radius per coordinate, inline
    bits = rng.getrandbits
    width = 2 * radius + 1
    k = width.bit_length()
    while True:
        n = []
        for _ in range(d):
            x = bits(k)
            while x >= width:
                x = bits(k)
            n.append(x - radius)
        if not nonzero or any(n):
            return tuple(n)


def sample_rat6(rng: Random) -> int:
    """6 times a random a / b (|a| <= 6, 1 <= b <= 3), as an integer."""
    # a = randbelow(rng, 13) - 6 and b = randbelow(rng, 3) + 1, inline
    bits = rng.getrandbits
    a = bits(4)
    while a >= 13:
        a = bits(4)
    b = bits(2)
    while b >= 3:
        b = bits(2)
    return (a - 6) * (6 // (b + 1))


def sample_div_zero(rng: Random, r) -> tuple:
    """A random integer u with (u|r) = 0: a :func:`sample_rat6` multiple of
    each pair term t^r (r_j d_i - r_i d_j), drawn in i < j order."""
    d = len(r)
    u = [0] * d
    for i in range(d):
        for j in range(i + 1, d):
            c = sample_rat6(rng)
            if c:
                u[i] += c * r[j]
                u[j] -= c * r[i]
    return tuple(u)


def sample_algelem(rng: Random, d: int, algebra: str, radius: int = 3) -> AlgElem:
    """A random element of W_d, Lhat_d, or L_d with one or two terms of
    degree in the box, on integer coordinates (6 times a rational sample)."""
    terms: dict = {}
    for _ in range(1 + randbelow(rng, 2)):
        if algebra == "W":
            r = sample_degree(rng, d, radius)
            add_term(terms, r, tuple(sample_rat6(rng) for _ in range(d)))
            continue
        r = sample_degree(rng, d, radius, nonzero=True)
        add_term(terms, r, sample_div_zero(rng, r))
    if algebra == "Lhat" and rng.random() < 0.5:
        add_term(terms, (0,) * d, tuple(sample_rat6(rng) for _ in range(d)))
    return AlgElem._trusted(d, terms)


def sample_rad_degree(rng: Random, q: QMatrix, radius: int, nonzero: bool = False) -> tuple:
    """A radical degree, as a small combination of the radical basis."""
    basis = _rad_basis(q)
    bound = max(radius, 1) * max(max(abs(e) for e in row) for row in basis)
    bits = rng.getrandbits
    while True:
        n = [0] * q.d
        for row in basis:
            # the coefficient randbelow(rng, 3) - 1 of the row, inline
            c = bits(2)
            while c >= 3:
                c = bits(2)
            if c == 0:
                n = list(map(sub, n, row))
            elif c == 2:
                n = list(map(add, n, row))
        if max(map(abs, n)) <= bound and (not nonzero or any(n)):
            return tuple(n)


def sample_qder(rng: Random, q: QMatrix, algebra: str, radius: int = 2) -> QDerElem:
    """A random element of Der(C_q), L(q), or Lhat(q) from one or two term
    draws, on integer coordinates (6 times a rational sample)."""
    d = q.d
    inner: dict = {}
    outer: dict = {}
    for _ in range(1 + randbelow(rng, 2)):
        if rng.random() < 0.5:
            m = sample_degree(rng, d, radius, nonzero=True)
            if in_rad(q, m):
                continue
            c = root(q.N, randbelow(rng, q.N)) * (6 * (1 + randbelow(rng, 3)))
            inner[m] = inner[m] + c if m in inner else c
        else:
            r = sample_rad_degree(rng, q, radius, nonzero=(algebra != "Der"))
            if algebra == "Der":
                u = tuple(sample_rat6(rng) for _ in range(d))
            elif not any(r):
                continue
            else:
                u = sample_div_zero(rng, r)
            add_term(outer, r, u)
    if algebra in ("Der", "Lqhat") and rng.random() < 0.4:
        add_term(outer, (0,) * d, tuple(sample_rat6(rng) for _ in range(d)))
    return QDerElem._trusted(d, inner, AlgElem._trusted(d, outer))


def sample_graded(rng: Random, params: ModuleParams, radius: int = 2) -> GradedVec:
    """A random module vector on one or two fibers of degree in the box."""
    fibers = {}
    for _ in range(1 + randbelow(rng, 2)):
        n = sample_degree(rng, params.d, radius)
        fibers[n] = tuple(randbelow(rng, 7) - 3 for _ in range(params.rep.dim))
    return GradedVec._trusted(params, fibers)


# ---------------------------------------------------------------------------
# Lie-algebra suites
# ---------------------------------------------------------------------------


def _lie_violations(triples: int, draw, bracket, member) -> int:
    """Antisymmetry, Jacobi, and subalgebra closure on ``triples`` triples of
    ``draw()``, all exact; [x, y] is computed once per triple and shared by
    the three checks.  A triple with an element outside the algebra counts
    one violation and is not bracketed."""
    violations = 0
    for _ in range(triples):
        x, y, z = draw(), draw(), draw()
        if not (member(x) and member(y) and member(z)):
            violations += 1
            continue
        xy = bracket(x, y)
        violations += not (xy + bracket(y, x)).is_zero()
        violations += not (bracket(x, bracket(y, z)) + bracket(y, bracket(z, x))
                           + bracket(z, xy)).is_zero()
        violations += not member(xy)
    return violations


def lie_suite_classical(d: int, algebra: str, triples: int, rng: Random,
                        radius: int = 3) -> dict:
    if algebra not in ALGEBRAS:
        raise ValueError(f"unknown classical algebra {algebra!r}")
    violations = _lie_violations(triples, lambda: sample_algelem(rng, d, algebra, radius),
                                 bracket_witt, ALGEBRAS[algebra])
    return {"name": "lie-axioms", "algebra": algebra, "d": d, "checks": 3 * triples,
            "violations": violations}


def lie_suite_q(q: QMatrix, algebra: str, triples: int, rng: Random,
                radius: int = 2) -> dict:
    if algebra not in Q_OUTER:
        raise ValueError(f"unknown q algebra {algebra!r}")
    violations = _lie_violations(triples, lambda: sample_qder(rng, q, algebra, radius),
                                 lambda x, y: bracket_qder(q, x, y),
                                 lambda x: in_q_algebra(q, algebra, x))
    return {"name": "lie-axioms", "algebra": algebra, "q_order": q.N, "checks": 3 * triples,
            "violations": violations}


def _pair_echelon(r) -> dict:
    """The fraction-free echelon (:func:`~divalg.linalg._reduce_into`) of
    the nonzero pair terms at r; its size is their rank."""
    d = len(r)
    echelon: dict = {}
    for i in range(1, d + 1):
        for j in range(i + 1, d + 1):
            u = pair_term(r, i, j)
            if any(u):
                _reduce_into(echelon, list(u))
    return echelon


def _in_echelon(echelon: dict, u) -> bool:
    """Whether u lies in the span of the echelon's rows: it reduces to zero
    against them (on a copy, which keeps a remainder)."""
    return not any(u) or _reduce_into(dict(echelon), list(u)) is None


def d_basis_span_suite(d: int, radius: int = 2) -> dict:
    """At every nonzero degree r in the box, the pair elements span the full
    orthogonal complement {u : (u|r) = 0} (rank d - 1); the adjacent-index
    elements d_{r,i} always lie inside it.  Both are decided on the
    fraction-free echelon of the pair terms."""
    violations = 0
    checks = 0
    for r in Box.radius(d, radius).degrees():
        if not any(r):
            continue
        checks += 1
        echelon = _pair_echelon(r)
        if len(echelon) != d - 1:
            violations += 1
            continue
        for i in range(1, d):
            u = d_basis(r, i)
            if any(u):
                if pairing(u, r) != 0 or not _in_echelon(echelon, u):
                    violations += 1
    return {"name": "pair-element-span", "d": d, "checks": checks, "violations": violations}


def lemma_orthg_suite(d: int, count: int, rng: Random) -> dict:
    """The transplanted vector satisfies both orthogonality identities for 5
    distinct scalar substitutions (a degree-2 identity needs 3)."""
    violations = 0
    for _ in range(count):
        n = sample_degree(rng, d, 3, nonzero=True)
        m = sample_degree(rng, d, 3)
        u = sample_div_zero(rng, n)
        up = lemma_orthg(m, n, u)
        if pairing(up, m) != 0:
            violations += 1
            continue
        for x in (-2, -1, 0, 1, 3):
            lhs = tuple(a - x * b for a, b in zip(up, u))
            rhs = tuple(a - x * b for a, b in zip(m, n))
            if pairing(lhs, rhs) != 0:
                violations += 1
                break
    return {"name": "orthogonal-transplant", "checks": count, "violations": violations}


# ---------------------------------------------------------------------------
# module suites
# ---------------------------------------------------------------------------


def module_suite_classical(params: ModuleParams, algebra: str, pairs: int,
                           rng: Random, radius: int = 2) -> dict:
    violations = 0
    D = params.alpha_den
    for _ in range(pairs):
        x, y = (sample_algelem(rng, params.d, algebra, radius).scale(D) for _ in range(2))
        v = sample_graded(rng, params, radius)
        if not module_axiom_residual(params, x, y, v).is_zero():
            violations += 1
    return {
        "name": "module-axioms",
        "algebra": algebra,
        "rep": params.rep.kind,
        "d": params.d,
        "checks": pairs,
        "violations": violations,
    }


def _sign_probe(q: QMatrix, params: ModuleParams):
    """A (x, y, v) triple whose module-axiom residual distinguishes the two
    outer-outer bracket signs: [D(e_a, 0), D(u, s)] = s_a D(u, s) with the
    validated convention and its negative with the other."""
    s = tuple(rad_q(q)[0])
    a = next(i for i in range(q.d) if s[i])
    j = (a + 1) % q.d
    i, j = (a, j) if a < j else (j, a)
    u = pair_term(s, i + 1, j + 1)
    x = QDerElem.douter(tuple(1 if k == a else 0 for k in range(q.d)), (0,) * q.d)
    y = QDerElem.douter(u, s)
    for n in Box.radius(q.d, 2).degrees():
        if sum(ua * (na + aa) for ua, na, aa in zip(u, n, params.alpha)):
            return x, y, graded(params, n, (1,) * params.rep.dim)
    raise AssertionError("no probe degree found")


def module_suite_q(q: QMatrix, params: ModuleParams, algebra: str, pairs: int,
                   rng: Random, radius: int = 2) -> dict:
    """The module axiom on each sampled pair, and the outer-bracket sign: the
    one under which :func:`_sign_probe` and every sample have a zero
    residual.  Under +1 (``OUTER_SIGN``) the samples' residuals are the
    loop's own; under -1 each sample with a nonzero vector is rerun, only
    when the probe passes there.  No sign, or both, gives None and one
    violation."""
    probe = _sign_probe(q, params)
    passes = {s: module_axiom_residual_q(q, *probe, s).is_zero() for s in (1, -1)}
    kept = []
    violations = 0
    D = params.alpha_den
    for _ in range(pairs):
        x, y = (sample_qder(rng, q, algebra, radius).scale(D) for _ in range(2))
        v = sample_graded(rng, params, radius)
        violations += not module_axiom_residual_q(q, x, y, v).is_zero()
        if passes[-1] and not v.is_zero():
            kept.append((x, y, v))
    passes[1] = passes[1] and not violations
    if passes[-1]:
        passes[-1] = all(module_axiom_residual_q(q, x, y, v, -1).is_zero()
                         for x, y, v in kept)
    sign = None if passes[1] == passes[-1] else 1 if passes[1] else -1
    violations += sign is None
    return {
        "name": "module-axioms",
        "algebra": algebra,
        "rep": params.rep.kind,
        "q_order": q.N,
        "checks": pairs,
        "violations": violations,
        "outer_bracket_sign": sign,
        "outer_bracket_sign_convention": OUTER_SIGN,
    }


def act_crosscheck_suite(params: ModuleParams, count: int, rng: Random,
                         radius: int = 2) -> dict:
    """act through the generic element path equals the direct basis-element
    action on random inputs."""
    violations = 0
    for _ in range(count):
        r = sample_degree(rng, params.d, radius)
        i = 1 + randbelow(rng, params.d - 1)
        v = sample_graded(rng, params, radius)
        via_elem = act(params, AlgElem.term(d_basis(r, i), r), v)
        direct = act_d_basis(params, r, i, v)
        if not (via_elem - direct).is_zero():
            violations += 1
    return {"name": "basis-action-crosscheck", "checks": count, "violations": violations}


def _wedge_rows(params: ModuleParams, box_radius: int):
    """Each wedge basis row of the rep's exterior power k at each degree n in
    the box, with the integer data of its images: yields
    (n, row, wn, src, cols), where wn = D (alpha + n) with D = lcm(alpha
    denominators), src is the row scaled by lcm(row denominators), and
    cols[j - 1][b] holds D (E_ij src)_b over i = 1..d, so that D times the
    fiber at n + r of D(e_j, r).(src x t^n) is
    wn_j src + sum_i r_i D E_ij src (:func:`_row_images`)."""
    d, rep = params.d, params.rep
    k = _wedge_power(rep)
    D = params.alpha_den
    # units[i - 1][j - 1]: the matrix unit E_ij, acting through act_matrix
    units = [[[[int(a == i and b == j) for b in range(d)] for a in range(d)]
              for j in range(d)] for i in range(d)]
    for n in Box.radius(d, box_radius).degrees():
        wn = tuple(int(D * (a + ni)) for a, ni in zip(params.alpha, n))
        for row in w_fiber_basis(d, k, params.alpha, n).rows:
            c = lcm(*(x.denominator for x in row))
            src = tuple(int(c * x) for x in row)
            cols = [list(zip(*(tuple(D * x for x in act_matrix(rep, units[i][j], src))
                               for i in range(d))))
                    for j in range(d)]
            yield n, row, wn, src, cols


def _row_images(wn: tuple, src: tuple, cols: list, D: int, gens):
    """(r, j, img, w) for each r in ``gens`` and j = 1..d, in that order,
    for a :func:`_wedge_rows` row: img = wn_j src + sum_i r_i D E_ij src and
    w = wn + D r = D (alpha + n + r)."""
    for r in gens:
        w = tuple(a + D * ri for a, ri in zip(wn, r))
        for j, (wj, col) in enumerate(zip(wn, cols), 1):
            yield r, j, tuple(wj * x + sum(map(mul, r, c)) for x, c in zip(src, col)), w


def _row_invariant(terms: tuple, wn: tuple, src: tuple, cols: list, D: int,
                   box: Box) -> bool:
    """True when every image of a :func:`_wedge_rows` row lies in its wedge
    fiber, for every r in the generator box and j = 1..d at once.

    img_j(r) = a_0 + sum_i r_i a_i and w(r) = w_0 + sum_i r_i w_i are affine
    in r (a_0 = wn_j src, a_i = D E_ij src, w_0 = wn, w_i = D e_i), so with
    r_0 = 1 the coordinates of img_j(r) ^ w(r) are the quadratic form
    sum_{i, l} r_i r_l a_i ^ w_l.  It vanishes at every r when each
    a_i ^ w_l + a_l ^ w_i (i <= l) does: its constant, linear and quadratic
    coefficients.  That covers every r with w(r) != 0.  At the one r0 with
    w(r0) = 0, if the box holds it, the fiber is 0 and img_j(r0) must be 0.
    False says only that a coefficient or some img_j(r0) is not zero; which
    checks fail is left to the check-by-check loop.
    """
    d = len(wn)
    w = [wn] + [tuple(D * (t == i) for t in range(d)) for i in range(d)]
    for wj, col in zip(wn, cols):
        a = [tuple(wj * x for x in src)] + list(zip(*col))
        for i in range(d + 1):
            for l in range(i, d + 1):
                if any(map(add, wedge(terms, a[i], w[l]), wedge(terms, a[l], w[i]))):
                    return False
    if any(x % D for x in wn):
        return True
    r0 = tuple(-x // D for x in wn)
    return not box.contains(r0) or not any(
        any(img) for _, _, img, _ in _row_images(wn, src, cols, D, [r0]))


def w_invariance_suite(params: ModuleParams, gen_radius: int = 2,
                       box_radius: int = 2) -> dict:
    """Exhaustive exact check: every algebra generator maps every wedge-fiber
    basis vector back into the wedge fibers (no truncation error; the wedge
    submodule is graded and invariant under the full vector-field algebra).

    The wedge basis rows and the membership test both come from the exterior
    power k of the coefficient representation.  Each row is certified for
    all its |gens| x d checks at once by :func:`_row_invariant`; a row it
    does not certify runs the checks one by one, to count and locate the
    violations.  A violation report carries ``first_violation``: the first
    failing degree n, basis row, generator degree r and index j of
    D(e_j, r), which replays as
    ``act(params, AlgElem.term(e_j, r), graded(params, n, row))``.
    """
    power = _wedge_power(params.rep)
    if power is None:
        raise ValueError("wedge membership is defined for exterior-power reps only")
    terms = wedge_terms(params.d, power)
    D = params.alpha_den
    box = Box.radius(params.d, gen_radius)
    gens = list(box.degrees())
    violations = 0
    checks = 0
    first = None
    for n, row, wn, src, cols in _wedge_rows(params, box_radius):
        if _row_invariant(terms, wn, src, cols, D, box):
            checks += len(gens) * params.d
            continue
        for r, j, img, w in _row_images(wn, src, cols, D, gens):
            checks += 1
            if not in_wedge_fiber(terms, img, w):
                violations += 1
                if first is None:
                    first = {"n": list(n), "row": [format_rat(x) for x in row],
                             "r": list(r), "j": j}
    out = {"name": "wedge-invariance", "checks": checks, "violations": violations}
    if first is not None:
        out["first_violation"] = first
    return out


# ---------------------------------------------------------------------------
# quantum-torus suites
# ---------------------------------------------------------------------------


def qtorus_suite(q: QMatrix, triples: int, rng: Random, radius: int = 3) -> dict:
    """Four exact identities per degree triple (m, n, r): the sigma cocycle
    identity, which is the associativity of t^m t^n t^r,
    f(m, n) = sigma(m, n)/sigma(n, m), which is t^m t^n = f(m, n) t^n t^m,
    and f multiplicative in each argument."""
    violations = 0
    for _ in range(triples):
        m = sample_degree(rng, q.d, radius)
        n = sample_degree(rng, q.d, radius)
        r = sample_degree(rng, q.d, radius)
        violations += sum(map(bool, cocycle_identities_residual(q, m, n, r)))
        violations += bool(sigma_cocycle_residual(q, m, n, r))
    return {"name": "torus-identities", "q_order": q.N, "checks": 4 * triples,
            "violations": violations}


def equivariance_suite(q: QMatrix, params: ModuleParams, count: int,
                       rng: Random, radius: int = 2) -> dict:
    """iso_algebra/iso_module intertwine the actions on random samples.

    Each element is scaled by D = lcm(alpha denominators); that also clears
    the classical side, where iso_algebra's L u pairs with alpha_i to
    (L u | alpha_i) = (u | alpha + i).
    """
    l = block_structure(q)
    D = params.alpha_den
    violations = 0
    checks = 0
    for _ in range(count):
        # an outer element of Lqhat(q) (iso domain), random class-i vector
        r = sample_rad_degree(rng, q, radius, nonzero=True)
        terms = {r: sample_div_zero(rng, r)}
        if rng.random() < 0.4:
            terms[(0,) * q.d] = tuple(sample_rat6(rng) for _ in range(q.d))
        x = QDerElem(q.d, outer=terms).scale(D)
        if x.is_zero():
            continue
        i_class = tuple(randbelow(rng, li) for li in l)
        base = sample_rad_degree(rng, q, radius)
        n = tuple(b + ii for b, ii in zip(base, i_class))
        v = graded(params, n, tuple(randbelow(rng, 7) - 3 for _ in range(params.rep.dim)))
        if v.is_zero():
            continue
        checks += 1
        if not equivariance_residual(q, i_class, x, v).is_zero():
            violations += 1
    return {"name": "iso-equivariance", "checks": checks, "violations": violations}
