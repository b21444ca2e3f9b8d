"""Matrix-unit actions on natural, exterior, symmetric, tensor, trivial, and
twisted representations."""

from fractions import Fraction
from random import Random

import pytest

from divalg.linalg import basis_of
from divalg.reps import RepHandle, act_matrix
from test_linalg import span_extend


def identity(d):
    return [[1 if i == j else 0 for j in range(d)] for i in range(d)]


def basis_vector(rep, idx):
    return tuple(int(t == idx) for t in range(rep.dim))


def act_E(rep, i, j, v):
    """The matrix unit E_ij (1-based) through act_matrix."""
    return act_matrix(rep, [[int((a, b) == (i, j)) for b in range(1, rep.d + 1)]
                            for a in range(1, rep.d + 1)], v)


def weight(rep, idx):
    """The E_ii-eigenvalues of a basis vector of a natural, exterior,
    symmetric or trivial rep: how often each index occurs in its label."""
    return tuple(rep.basis_labels[idx].count(i) for i in range(1, rep.d + 1))


def cyclic_closure(rep, seed):
    """The smallest subspace containing ``seed`` and stable under every
    E_ij with i != j."""
    basis, grew = basis_of([seed], rep.dim), True
    while grew:
        basis, grew = span_extend(basis, [
            act_E(rep, i, j, tuple(w)) for w in basis.rows
            for i in range(1, rep.d + 1) for j in range(1, rep.d + 1) if i != j])
    return basis


# -- matrix-unit examples ------------------------------------------------------

def test_natural_matrix_unit():
    r = RepHandle.natural(2)
    assert act_E(r, 1, 2, basis_vector(r, 1)) == (1, 0)
    assert act_E(r, 1, 2, basis_vector(r, 0)) == (0, 0)


def test_exterior_leibniz_sign():
    r = RepHandle.exterior(3, 2)
    e12 = basis_vector(r, r._index[(1, 2)])
    # E_31 (e1^e2) = e3^e2 = -e2^e3
    assert act_E(r, 3, 1, e12) == (0, 0, -1)
    # E_12 (e1^e2) = e1^e1 = 0
    assert not any(act_E(r, 1, 2, e12))


def test_identity_scalar_on_exterior():
    r = RepHandle.exterior(3, 2)
    e12 = basis_vector(r, 0)
    assert act_matrix(r, identity(3), e12) == (2, 0, 0)


def test_act_matrix_zero_and_sum():
    r = RepHandle.natural(2)
    e1 = basis_vector(r, 0)
    assert not any(act_matrix(r, [[0, 0], [0, 0]], e1))
    b = [[0, 1], [1, 0]]  # E_12 + E_21
    assert act_matrix(r, b, e1) == (0, 1)


def test_symmetric_multiplicity():
    r = RepHandle.symmetric(2, 2)
    e22 = basis_vector(r, r._index[(2, 2)])
    # E_12 (e2 e2) = 2 e1 e2
    assert act_E(r, 1, 2, e22) == (0, 2, 0)


def test_index_bounds():
    # act_matrix takes a d x d matrix and a vector of the rep's dimension
    r = RepHandle.natural(2)
    with pytest.raises(ValueError):
        act_matrix(r, identity(3), basis_vector(r, 0))
    with pytest.raises(ValueError):
        act_matrix(r, [[1, 0], [0]], basis_vector(r, 0))
    for coords in ((1,), (1, 0, 0)):
        with pytest.raises(ValueError, match="coordinate length"):
            act_matrix(r, identity(2), coords)


# -- weights -------------------------------------------------------------------

def test_weights():
    # every basis vector is an E_ii-eigenvector with the eigenvalues of its
    # label: e1 ^ e3 has weight (1, 0, 1), e1 e1 e2 has (2, 1)
    r = RepHandle.exterior(3, 2)
    assert weight(r, r._index[(1, 3)]) == (1, 0, 1)
    s = RepHandle.symmetric(2, 3)
    assert weight(s, s._index[(1, 1, 2)]) == (2, 1)
    for rep in (r, s, RepHandle.natural(4), RepHandle.trivial(3)):
        for b in range(rep.dim):
            v = basis_vector(rep, b)
            for i, mu in enumerate(weight(rep, b), 1):
                assert act_E(rep, i, i, v) == tuple(mu * x for x in v)


def test_weight_additivity():
    # E_ij maps the weight-mu space into weight mu + e_i - e_j
    rng = Random(3)
    for rep in (RepHandle.exterior(3, 2), RepHandle.symmetric(3, 2)):
        for _ in range(20):
            b = rng.randrange(rep.dim)
            i = rng.randint(1, 3)
            j = rng.randint(1, 3)
            img = act_E(rep, i, j, basis_vector(rep, b))
            mu = weight(rep, b)
            expect = tuple(
                m + (1 if t == i - 1 else 0) - (1 if t == j - 1 else 0)
                for t, m in enumerate(mu)
            )
            for t, c in enumerate(img):
                if c:
                    assert weight(rep, t) == expect


# -- highest weight vectors ----------------------------------------------------

def test_highest_weight_vectors():
    # e1, e1 ^ e2 and e1 e1 are killed by every raising operator E_{i,i+1};
    # e2 is not
    for rep, label in ((RepHandle.natural(3), (1,)), (RepHandle.exterior(3, 2), (1, 2)),
                       (RepHandle.symmetric(2, 2), (1, 1))):
        v = basis_vector(rep, rep._index[label])
        for i in range(1, rep.d):
            assert not any(act_E(rep, i, i + 1, v))
    r = RepHandle.natural(3)
    assert any(act_E(r, 1, 2, basis_vector(r, 1)))


# -- representation property ----------------------------------------------------

@pytest.mark.parametrize("rep", [
    RepHandle.natural(3),
    RepHandle.exterior(3, 2),
    RepHandle.symmetric(2, 2),
    RepHandle.trivial(2),
    RepHandle.tensor([RepHandle.natural(2), RepHandle.natural(2)]),
    RepHandle.twisted(RepHandle.exterior(3, 2), (2, 3, 1)),
])
def test_commutator_relation(rep):
    # E_ij E_kl - E_kl E_ij = delta_jk E_il - delta_li E_kj
    rng = Random(5)
    d = rep.d
    for _ in range(30):
        v = tuple(rng.randint(-2, 2) for _ in range(rep.dim))
        i, j, k, l = (rng.randint(1, d) for _ in range(4))
        lhs = [a - b for a, b in zip(act_E(rep, i, j, act_E(rep, k, l, v)),
                                     act_E(rep, k, l, act_E(rep, i, j, v)))]
        rhs_coords = [0] * rep.dim
        if j == k:
            rhs_coords = [a + b for a, b in zip(rhs_coords, act_E(rep, i, l, v))]
        if l == i:
            rhs_coords = [a - b for a, b in zip(rhs_coords, act_E(rep, k, j, v))]
        assert lhs == rhs_coords


def test_twist_is_conjugation():
    base = RepHandle.exterior(3, 2)
    l = (2, 2, 1)
    tw = RepHandle.twisted(base, l)
    rng = Random(9)
    lmat = [[l[i] if i == j else 0 for j in range(3)] for i in range(3)]
    linv = [[Fraction(1, l[i]) if i == j else 0 for j in range(3)] for i in range(3)]
    for _ in range(20):
        v = [rng.randint(-2, 2) for _ in range(base.dim)]
        b = [[rng.randint(-2, 2) for _ in range(3)] for _ in range(3)]
        conj = [[sum(lmat[i][k] * b[k][t] * linv[t][j] for k in range(3) for t in range(3))
                 for j in range(3)] for i in range(3)]
        assert act_matrix(tw, b, tuple(v)) == act_matrix(base, conj, tuple(v))


def test_top_exterior_power_is_trivial_as_sl():
    # exterior(d) is one-dimensional; traceless matrices act by zero on it
    # (the identity still acts by d, unlike the honest trivial module)
    r = RepHandle.exterior(3, 3)
    assert r.dim == 1
    v = basis_vector(r, 0)
    for i in range(1, 4):
        for j in range(1, 4):
            if i != j:
                assert not any(act_E(r, i, j, v))
    h = [[1, 0, 0], [0, -1, 0], [0, 0, 0]]  # E_11 - E_22
    assert not any(act_matrix(r, h, v))
    assert act_matrix(r, identity(3), v) == (3,)


# -- the flat matrix-unit table against the dict form ---------------------------

def dict_structure(rep, i, j):
    """E_{ij} as the sparse map src index -> [(dst index, coeff)], built from
    the basis labels: the form the flat table replaced, kept as its
    reference."""
    index, out = rep._index, {}
    if rep.kind == "natural":
        out[index[(j,)]] = [(index[(i,)], 1)]
    elif rep.kind == "exterior":
        for idx, lab in enumerate(rep.basis_labels):
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
            out[idx] = [(index[tuple(sorted(rest + (i,)))], sign)]
    elif rep.kind == "symmetric":
        for idx, lab in enumerate(rep.basis_labels):
            c = lab.count(j)
            if c == 0:
                continue
            rest = list(lab)
            rest.remove(j)
            out[idx] = [(index[tuple(sorted(rest + [i]))], c)]
    elif rep.kind == "tensor":
        factors = rep.params["factors"]
        structs = [dict_structure(f, i, j) for f in factors]
        for idx, lab in enumerate(rep.basis_labels):
            terms = []
            for pos, f in enumerate(factors):
                for dst_sub, coeff in structs[pos].get(f._index[lab[pos]], ()):
                    new_lab = lab[:pos] + (f.basis_labels[dst_sub],) + lab[pos + 1:]
                    terms.append((index[new_lab], coeff))
            if terms:
                out[idx] = terms
    elif rep.kind == "twisted":
        l = rep.params["l"]
        scale = Fraction(l[i - 1], l[j - 1])
        for src, terms in dict_structure(rep.params["parent"], i, j).items():
            out[src] = [(dst, coeff * scale) for dst, coeff in terms]
    return out


def table_matrix(rep, i, j):
    """E_{ij} as a dense matrix, read from the flat table."""
    mat = [[0] * rep.dim for _ in range(rep.dim)]
    for dst, src, m in rep._e_structure(i, j):
        mat[dst][src] += m
    return mat


def label_degree(lab):
    """How many indices a basis label holds, summed over the factors of a
    tensor label."""
    return sum(map(label_degree, lab)) if lab and isinstance(lab[0], tuple) else len(lab)


def matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


TABLE_REPS = [
    RepHandle.natural(3),
    RepHandle.exterior(4, 2),
    RepHandle.exterior(3, 3),
    RepHandle.symmetric(3, 2),
    RepHandle.trivial(3),
    RepHandle.tensor([RepHandle.natural(3), RepHandle.exterior(3, 2)]),
    RepHandle.tensor([RepHandle.natural(2)] * 3),
    RepHandle.twisted(RepHandle.exterior(3, 2), (2, 3, 1)),
    RepHandle.twisted(RepHandle.tensor([RepHandle.natural(2), RepHandle.symmetric(2, 2)]),
                      (3, 1)),
]


def table_rep_id(rep):
    return f"{rep.kind}-d{rep.d}-dim{rep.dim}"


@pytest.mark.parametrize("rep", TABLE_REPS, ids=table_rep_id)
def test_flat_table_matches_the_dict_form(rep):
    units = [(i, j) for i in range(1, rep.d + 1) for j in range(1, rep.d + 1)]
    for i, j in units:
        table = rep._e_structure(i, j)
        assert rep._e_structure(i, j) is table  # built once and kept
        by_src = {}
        for dst, src, m in table:
            by_src.setdefault(src, []).append((dst, m))
        assert by_src == dict_structure(rep, i, j), (i, j)
        srcs = [src for _, src, _ in table]
        assert srcs == sorted(srcs)
        # a twisted entry is an int where l_j divides l_i, a Fraction
        # l_i / l_j otherwise; every other kind has int entries
        exact = int
        if rep.kind == "twisted":
            l = rep.params["l"]
            exact = int if l[i - 1] % l[j - 1] == 0 else Fraction
        assert all(type(m) is exact for _, _, m in table), (i, j)


@pytest.mark.parametrize("rep", TABLE_REPS, ids=table_rep_id)
def test_flat_table_satisfies_every_gl_relation(rep):
    # [E_ij, E_kl] = delta_jk E_il - delta_li E_kj, on every quadruple
    d, dim = rep.d, rep.dim
    mats = {(i, j): table_matrix(rep, i, j) for i in range(1, d + 1) for j in range(1, d + 1)}
    for (i, j), a in mats.items():
        for (k, l), b in mats.items():
            ab, ba = matmul(a, b), matmul(b, a)
            want = [[int(j == k) * x - int(l == i) * y
                     for x, y in zip(r1, r2)] for r1, r2 in zip(mats[i, l], mats[k, j])]
            got = [[x - y for x, y in zip(r1, r2)] for r1, r2 in zip(ab, ba)]
            assert got == want, (i, j, k, l)
    # and the table is not all zero: the identity acts by the label degree
    degree = label_degree(rep.basis_labels[0])
    ident = [[sum(mats[i, i][a][b] for i in range(1, d + 1)) for b in range(dim)]
             for a in range(dim)]
    assert ident == [[degree * (a == b) for b in range(dim)] for a in range(dim)]


# -- irreducibility: the cyclic span of any seed -----------------------------------

@pytest.mark.parametrize("rep,seed,expect", [
    (RepHandle.exterior(3, 2), (1, 1, 0), 3),
    (RepHandle.exterior(4, 2), (0, 1, 0, 0, 0, 0), 6),
    (RepHandle.symmetric(2, 2), (0, 1, 0), 3),
    (RepHandle.trivial(2), (1,), 1),
])
def test_cyclic_closure_irreducible(rep, seed, expect):
    assert cyclic_closure(rep, seed).rank == expect


def test_cyclic_rep_tensor_component():
    # Lambda^2 C^3 (x) C^3 = V(w1 + w2) + V(w3); the cyclic hull of the
    # highest weight line is the 8-dimensional component
    t = RepHandle.tensor([RepHandle.exterior(3, 2), RepHandle.natural(3)])
    seed = basis_vector(t, t._index[((1, 2), (1,))])
    assert cyclic_closure(t, seed).rank == 8
    # the lowest weight vector e2 ^ e3 (x) e3 of V(w1 + w2) reaches it too
    low = basis_vector(t, t._index[((2, 3), (3,))])
    assert cyclic_closure(t, low).rank == 8
