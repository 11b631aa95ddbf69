import random
from collections import Counter

import pytest

from rsexact.errors import TooLarge
from rsexact.finitefield import gf
from rsexact.matgroups import (
    FiniteMatrix,
    classify_conjugacy,
    embed_block,
    enumerate_group,
    enumerate_unitriangular,
    matrix_rank,
    n_coset_reps,
    n_orbit_rep,
    order_gl,
)


@pytest.mark.parametrize(
    "q,n,size",
    [(2, 2, 6), (3, 2, 48), (5, 2, 480), (2, 3, 168)],
)
def test_group_sizes(q, n, size):
    assert order_gl(q, n) == size
    assert len(enumerate_group(gf(q), n)) == size


def test_group_size_gl3_f3():
    assert order_gl(3, 3) == 11232
    assert len(enumerate_group(gf(3), 3)) == 11232


def test_enumeration_guard():
    with pytest.raises(TooLarge):
        enumerate_group(gf(101), 2)


def test_matrix_inverse_and_product():
    F = gf(3)
    G = enumerate_group(F, 2)
    eye = FiniteMatrix.identity(F, 2)
    for g in G:
        assert g * g.inverse() == eye
    rng = random.Random(1)
    for _ in range(50):
        a, b = rng.choice(G), rng.choice(G)
        assert (a * b).det() == a.det() * b.det()
        assert (a * b).inverse() == b.inverse() * a.inverse()


def test_matrix_inverse_n3():
    F = gf(2)
    G = enumerate_group(F, 3)
    eye = FiniteMatrix.identity(F, 3)
    rng = random.Random(2)
    for _ in range(60):
        g = rng.choice(G)
        assert g * g.inverse() == eye


def test_unitriangular_enumeration():
    assert len(enumerate_unitriangular(gf(3), 2)) == 3
    assert len(enumerate_unitriangular(gf(3), 3)) == 27
    assert len(enumerate_unitriangular(gf(5), 2)) == 5
    for u in enumerate_unitriangular(gf(3), 3):
        assert u.det() == gf(3).one()


def test_matrix_rank():
    F = gf(3)
    assert matrix_rank(FiniteMatrix.identity(F, 3)) == 3
    assert matrix_rank(FiniteMatrix(F, [[0, 0, 0], [0, 0, 0], [0, 0, 0]])) == 0
    assert matrix_rank(FiniteMatrix(F, [[1, 2, 0], [2, 4, 0], [0, 0, 1]])) == 2
    assert matrix_rank(FiniteMatrix(F, [[0, 1], [0, 0]])) == 1


def test_classify_gl2_f3_label_counts():
    F = gf(3)
    labels = Counter(classify_conjugacy(g)[0] for g in enumerate_group(F, 2))
    assert labels == {"central": 2, "unipotent": 16, "split": 12, "elliptic": 18}


def test_classify_gl2_f2_label_counts():
    F = gf(2)
    labels = Counter(classify_conjugacy(g)[0] for g in enumerate_group(F, 2))
    assert labels == {"central": 1, "unipotent": 3, "elliptic": 2}


def test_classify_gl3_f2_label_counts():
    F = gf(2)
    labels = Counter(classify_conjugacy(g)[0] for g in enumerate_group(F, 3))
    assert labels == {"central": 1, "u21": 21, "u3": 42, "elliptic": 48, "other": 56}


def test_classify_is_conjugation_invariant():
    F = gf(3)
    G = enumerate_group(F, 2)
    rng = random.Random(3)
    for _ in range(80):
        g, h = rng.choice(G), rng.choice(G)
        assert classify_conjugacy(h * g * h.inverse()) == classify_conjugacy(g)


def test_classify_elliptic_orbit_structure():
    # elliptic eigenvalue sets are Frobenius orbits of size n
    F = gf(3)
    for g in enumerate_group(F, 2):
        kind, data = classify_conjugacy(g)
        if kind == "elliptic":
            (x, y) = sorted(data, key=lambda e: e.c)
            assert y == x**3 or x == y**3


def test_classify_central_matches_scalar():
    F = gf(5)
    for z in F.units():
        g = FiniteMatrix.identity(F, 2) * z
        assert classify_conjugacy(g) == ("central", z)


def test_n_orbit_rep_invariance():
    F = gf(3)
    G = enumerate_group(F, 2)
    rng = random.Random(4)
    N = enumerate_unitriangular(F, 2)
    for _ in range(60):
        g = rng.choice(G)
        u = rng.choice(N)
        assert n_orbit_rep(u * g) == n_orbit_rep(g)


def test_matrices_over_different_fields_are_unequal():
    # the identities over F_2 and F_3 hash alike but are different matrices
    a = FiniteMatrix.identity(gf(2), 2)
    b = FiniteMatrix.identity(gf(3), 2)
    assert hash(a) == hash(b)
    assert a != b
    assert len({a, b}) == 2
    assert n_orbit_rep(a) == a and n_orbit_rep(b) == b


@pytest.mark.parametrize("q,k,count", [(2, 2, 3), (3, 2, 16), (5, 2, 96)])
def test_n_coset_rep_counts(q, k, count):
    assert len(n_coset_reps(gf(q), k)) == count


def test_embed_block():
    F = gf(3)
    G2 = enumerate_group(F, 2)
    rng = random.Random(5)
    for _ in range(30):
        a, b = rng.choice(G2), rng.choice(G2)
        ea, eb = embed_block(a, 3), embed_block(b, 3)
        assert ea.n == 3
        assert ea.rows[2] == (F.zero(), F.zero(), F.one())
        assert ea * eb == embed_block(a * b, 3)
