"""Quantum-torus cocycles, products, commutators, and the radical lattice.

The cocycle sigma is cross-checked against an independent oracle that
multiplies monomials letter by letter, reordering single generators with the
defining relations t_i t_j = q_ij t_j t_i and collecting the scalar.
"""

from itertools import product
from random import Random

import pytest

import divalg.qtorus
from divalg.qtorus import (
    QMatrix,
    ad_form,
    block_normal_q,
    block_structure,
    cocycle,
    cocycle_identities_residual,
    commutator_coeff,
    f_exponent,
    f_form,
    in_rad,
    rad_q,
    sigma,
    sigma_cocycle_residual,
    sigma_exponent,
)
from divalg.closure import Box
from divalg.scalars import Cyc
from divalg.verify import qtorus_suite, sample_degree
from test_lattices import in_lattice


Q3 = QMatrix.from_exps(3, [[0, -1], [1, 0]])  # q_21 = zeta_3


def torus_commutator(q: QMatrix, m, n) -> tuple:
    """[t^m, t^n] = (sigma(m,n) - sigma(n,m)) t^{m+n}, as the coefficient
    (possibly zero) and the degree m + n."""
    return sigma(q, m, n) - sigma(q, n, m), tuple(x + y for x, y in zip(m, n))


def sigma_oracle_exponent(q: QMatrix, m, n) -> int:
    """Reorder the concatenated word t^m t^n into sorted-variable form one
    adjacent transposition at a time; t_i^e t_j^f = q_ij^{e f} t_j^f t_i^e."""
    word = []
    for vec in (m, n):
        for i, x in enumerate(vec):
            letter = (i, 1 if x > 0 else -1)
            word.extend([letter] * abs(x))
    exp = 0
    changed = True
    while changed:
        changed = False
        for p in range(len(word) - 1):
            (i, e), (j, f) = word[p], word[p + 1]
            if i > j:
                exp += q.exps[i][j] * e * f
                word[p], word[p + 1] = word[p + 1], word[p]
                changed = True
    return exp % q.N


def test_sigma_examples():
    assert sigma(Q3, (0, 1), (1, 0)) == Cyc.zeta(3, 1)
    assert sigma(Q3, (1, 0), (0, 1)) == 1
    assert sigma(Q3, (2, 5), (0, 0)) == 1


def test_torus_mul_examples():
    # t^m t^n = sigma(m, n) t^(m+n): the torus product is read off sigma.
    # t^(0,1) t^(1,0) = zeta_3 t^(1,1) and t^(1,0) t^(0,1) = t^(1,1)
    assert sigma(Q3, (0, 1), (1, 0)) == Cyc.zeta(3, 1)
    assert sigma(Q3, (1, 0), (0, 1)) == 1
    # t^0 is a two-sided unit
    for n in ((2, 5), (0, 1), (-3, 4)):
        assert sigma(Q3, n, (0, 0)) == sigma(Q3, (0, 0), n) == 1
    # t^(2,-1) t^(-2,1) = zeta_3^2 t^0, frozen from the reordering oracle
    assert sigma(Q3, (2, -1), (-2, 1)) == Cyc.zeta(3, 2)


def test_f_examples():
    assert f_form(Q3, (0, 1), (1, 0)) == Cyc.zeta(3, 1)
    assert f_form(Q3, (3, -4), (3, -4)) == 1
    assert f_form(Q3, (0, 0), (5, 7)) == 1


def test_sigma_against_reordering_oracle():
    rng = Random(31)
    for q in (Q3, block_normal_q((2, 2)), block_normal_q((3, 3, 1))):
        for _ in range(40):
            m = tuple(rng.randint(-2, 2) for _ in range(q.d))
            n = tuple(rng.randint(-2, 2) for _ in range(q.d))
            assert sigma_exponent(q, m, n) == sigma_oracle_exponent(q, m, n), (m, n)


def test_torus_commutator_value():
    # [t^(0,1), t^(1,0)] = t2 t1 - t1 t2 = (q21 - 1) t^(1,1); frozen from the
    # reordering oracle (sigma((0,1),(1,0)) = zeta_3, sigma((1,0),(0,1)) = 1)
    c, n = torus_commutator(Q3, (0, 1), (1, 0))
    assert n == (1, 1)
    assert c == Cyc.zeta(3, 1) - 1


def test_torus_commutator_zero_cases():
    assert not torus_commutator(Q3, (1, 2), (1, 2))[0]
    # second argument in the radical
    assert in_rad(Q3, (3, -3))
    assert not torus_commutator(Q3, (1, 2), (3, -3))[0]


def test_rad_examples():
    assert rad_q(Q3) == [[3, 0], [0, 3]]
    trivial = QMatrix.from_exps(1, [[0, 0], [0, 0]])
    assert rad_q(trivial) == [[1, 0], [0, 1]]
    assert rad_q(block_normal_q((2, 2, 1))) == [[2, 0, 0], [0, 2, 0], [0, 0, 1]]


def test_rad_matches_f_characterization():
    # lattice read off one HNF == the direct f(n, e_i) = 1 test
    for q in (Q3, block_normal_q((2, 2)), block_normal_q((3, 3, 1))):
        basis = rad_q(q)
        for n in product(range(-3, 4), repeat=q.d):
            direct = all(
                f_form(q, n, tuple(1 if t == i else 0 for t in range(q.d))) == 1
                for i in range(q.d)
            )
            assert direct == in_rad(q, n) == in_lattice(basis, n)


# not block-normal: q_12, q_13 and q_23 are all nontrivial
Q_MIXED = QMatrix.from_exps(4, [[0, 1, 2], [3, 0, 1], [2, 3, 0]])
# every pair of coordinates anticommutes
Q_ANTICOMMUTING = QMatrix.from_exps(2, [[0, 1, 1], [1, 0, 1], [1, 1, 0]])
# column 1 of k is (4, 0, 0): nonzero as integers, but 0 mod 4
Q_ZERO_COLUMN = QMatrix.from_exps(4, [[0, 4, 1], [-4, 0, 0], [-1, 0, 0]])


def f_formula_in_rad(q, n) -> bool:
    """n is radical iff f(n, e_i) = 1 for every i."""
    return all(f_form(q, n, tuple(int(t == i) for t in range(q.d))) == 1 for i in range(q.d))


def f_exponent_reference(q, m, n) -> int:
    """m^T k n mod N, as a double loop over the rows of exps."""
    e = 0
    for i in range(q.d):
        for j in range(q.d):
            e += m[i] * q.exps[i][j] * n[j]
    return e % q.N


@pytest.mark.parametrize("q", [block_normal_q((2, 2, 1)), block_normal_q((3, 3)), Q_MIXED,
                               Q_ZERO_COLUMN], ids=["221", "33", "mixed", "zero-column"])
def test_in_rad_matches_f_formula(q):
    """in_rad, read off the column table, equals the f(n, e_i) formula, and
    f_exponent, and the ad_form of m at n, equal the double loop over exps;
    ad_form is empty exactly on the radical."""
    assert block_structure(Q_MIXED) is None
    box = list(product(range(-4, 5), repeat=q.d))
    for n in box:
        assert in_rad(q, n) == in_rad(q, list(n)) == f_formula_in_rad(q, n) == (not ad_form(q, n))
    assert any(in_rad(q, n) for n in box if any(n))
    small = list(product(range(-2, 3), repeat=q.d))
    for m in small[::2]:
        form = ad_form(q, m)
        for n in small:
            assert f_exponent(q, m, n) == f_exponent_reference(q, m, n), (m, n)
            assert sum(c * n[i] for i, c in form) % q.N == f_exponent(q, m, n), (m, n)
    # equality and hashing ignore the column table
    assert q == QMatrix(q.d, q.N, q.exps) and hash(q) == hash(QMatrix(q.d, q.N, q.exps))


@pytest.mark.parametrize("q", [block_normal_q((2, 2, 1)), block_normal_q((3, 3)), Q_MIXED,
                               Q_ANTICOMMUTING, Q_ZERO_COLUMN],
                         ids=["221", "33", "mixed", "anticommuting", "zero-column"])
def test_commutator_coeff_matches_sigma(q):
    """The coefficients equal sigma(m, n) - sigma(n, m) built from the two
    exponents, and zero coefficients are None.  A coefficient is an int
    exactly when both roots are rational (zeta_N^e = +-1)."""
    box = list(product(range(-2, 3), repeat=q.d))
    for m in box[::3]:
        for n in box:
            e1, e2 = sigma_exponent(q, m, n), sigma_exponent(q, n, m)
            c = commutator_coeff(q, m, n)
            if e1 == e2:
                assert c is None
            else:
                assert c == Cyc.zeta(q.N, e1) - Cyc.zeta(q.N, e2) and c
                assert (type(c) is int) == (2 * e1 % q.N == 2 * e2 % q.N == 0)
            assert (e1 - e2) % q.N == f_exponent(q, m, n) == f_exponent_reference(q, m, n)
    assert q == QMatrix(q.d, q.N, q.exps) and hash(q) == hash(QMatrix(q.d, q.N, q.exps))


@pytest.mark.parametrize("q", [block_normal_q((2, 2)), block_normal_q((2, 2, 1)),
                               block_normal_q((3, 3)), Q_MIXED, Q_ANTICOMMUTING],
                         ids=["22", "221", "33", "mixed", "anticommuting"])
def test_cocycle_is_sigma_with_int_signs(q):
    """sigma and f_form are zeta_N^e for their exponents e: the int 1 at
    exponent 0, the int -1 where zeta_N^e = -1, and a Cyc elsewhere.
    cocycle(q) stands for sigma on Rad_q x Z^d, where its callers call it.
    It is None when sigma is 1 there, as for every block-normal q, and else
    equals sigma everywhere, by the same rule."""
    box = list(product(range(-2, 3), repeat=q.d))

    def kind(e):
        return 1 if e == 0 else -1 if 2 * e == q.N else "cyc"

    def follows_rule(c, e):
        k = kind(e)
        return c == Cyc.zeta(q.N, e) and (
            type(c) is int and c == k if k != "cyc" else isinstance(c, Cyc))

    for m in box:
        for n in box:
            assert follows_rule(sigma(q, m, n), sigma_exponent(q, m, n))
            assert follows_rule(f_form(q, m, n), f_exponent(q, m, n))
    sig = cocycle(q)
    if block_structure(q) is not None:
        assert sig is None
        assert not any(sigma_exponent(q, r, n) for r in box if in_rad(q, r) for n in box)
        return
    seen = set()
    for m in box:
        for n in box:
            c, e = sig(m, n), sigma_exponent(q, m, n)
            assert c == sigma(q, m, n) and follows_rule(c, e)
            seen.add(kind(e))
    assert seen == ({1, -1} if q.N == 2 else {1, "cyc"} if q.N % 2 else {1, -1, "cyc"})
    # sigma is not 1 on the radical, so the cocycle is kept
    assert any(sig(r, n) != 1 for r in box if in_rad(q, r) for n in box)


def test_block_normal_examples():
    b = block_normal_q((2, 2))
    assert (b.d, b.N) == (2, 2) and b.exps == ((0, 1), (-1, 0))
    ones = block_normal_q((1, 1, 1))
    assert all(x % ones.N == 0 for row in ones.exps for x in row)
    b3 = block_normal_q((3, 3, 1))
    assert b3.N == 3 and b3.exps[0][1] == 1 and b3.exps[1][0] == -1
    assert all(b3.exps[i][j] == 0 for i in range(3) for j in range(3)
               if (i, j) not in ((0, 1), (1, 0)))


def test_block_normal_rejects_malformed():
    with pytest.raises(ValueError):
        block_normal_q((2, 3))
    with pytest.raises(ValueError):
        block_normal_q((1, 2, 2))  # pairs must lead
    with pytest.raises(ValueError):
        block_normal_q((2,))


def test_block_structure_roundtrip():
    for l in ((2, 2), (3, 3), (2, 2, 1), (6, 6), (1, 1)):
        assert block_structure(block_normal_q(l)) == l
    # a non-block matrix: entry outside the leading pairs
    q = QMatrix.from_exps(2, [[0, 0], [0, 0]])
    assert block_structure(q) == (1, 1)
    nb = QMatrix.from_exps(4, (
        (0, 0, 0, 1), (0, 0, 0, 0), (0, 0, 0, 0), (-1, 0, 0, 0)))
    assert block_structure(nb) is None


def test_qmatrix_invariants_enforced():
    with pytest.raises(ValueError):
        QMatrix.from_exps(3, [[1, 0], [0, 0]])   # nonzero diagonal
    with pytest.raises(ValueError):
        QMatrix.from_exps(3, [[0, 1], [1, 0]])   # not skew mod 3


def test_cocycle_residuals():
    rng = Random(5)
    for q in (Q3, block_normal_q((3, 3))):
        for _ in range(50):
            m, n, r = (tuple(rng.randint(-3, 3) for _ in range(q.d)) for _ in range(3))
            assert cocycle_identities_residual(q, m, n, r) == (0, 0, 0)
            assert sigma_cocycle_residual(q, m, n, r) == 0
    assert cocycle_identities_residual(Q3, (0, 0), (2, 1), (1, 1)) == (0, 0, 0)


def test_associativity_random():
    assert qtorus_suite(Q3, 120, Random(9))["violations"] == 0
    assert qtorus_suite(block_normal_q((2, 2)), 120, Random(9))["violations"] == 0


TRUE_F_EXPONENT = divalg.qtorus.f_exponent
TRUE_SIGMA_EXPONENT = divalg.qtorus.sigma_exponent
BROKEN_FORMS = {
    # bilinear, but f(e_1, e_1) = zeta_N where sigma's commutator gives 1
    "f-not-commutator": ("f_exponent",
                         lambda q, m, n: (TRUE_F_EXPONENT(q, m, n) + m[0] * n[0]) % q.N),
    # sigma times zeta_N^g(m) with g not constant: no longer a 2-cocycle
    "sigma-not-bilinear": ("sigma_exponent",
                           lambda q, m, n: (TRUE_SIGMA_EXPONENT(q, m, n) + (m[0] > 0)) % q.N),
}


@pytest.mark.parametrize("broken", [None, *BROKEN_FORMS])
@pytest.mark.parametrize("q", [Q3, block_normal_q((2, 2)), block_normal_q((3, 3, 1)),
                               Q_ANTICOMMUTING], ids=["3", "22", "331", "anticommuting"])
def test_qtorus_suite_catches_a_broken_form(monkeypatch, broken, q):
    """The suite's four identities, each counted once per triple, pass on
    the true forms and catch an f that is not sigma's commutator and a
    sigma that is not a cocycle."""
    if broken is not None:
        monkeypatch.setattr(divalg.qtorus, *BROKEN_FORMS[broken])
    out = qtorus_suite(q, 60, Random(21))
    assert out["checks"] == 4 * 60
    assert (out["violations"] > 0) == (broken is not None)


def test_commutator_spans_off_radical():
    # a sampled degree n carries a nonzero commutator [t^m, t^(n - m)] for
    # some m in the box exactly when n is off the radical
    for q in (block_normal_q((2, 2)), Q3):
        rng = Random(3)
        probes = [sample_degree(rng, q.d, 2) for _ in range(25)]
        box = list(Box.radius(q.d, 3).degrees())
        for n in probes:
            hit = any(torus_commutator(q, m, tuple(a - b for a, b in zip(n, m)))[0]
                      for m in box)
            assert hit != in_rad(q, n), (q, n)
