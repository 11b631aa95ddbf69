import itertools
import random
from collections import Counter
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rsexact.errors import TooLarge
from rsexact.finitefield import gf
from rsexact.matgroups import (
    _eigenvalue_pattern,
    _elliptic_roots,
    bruhat_cell,
    classify_conjugacy,
    enumerate_group,
    enumerate_unitriangular,
    identity,
    mat_inverse,
    mat_mul,
    mirabolic_reps,
    order_gl,
    small_det,
)

from reference import n_coset_reps

PRIMES = (2, 3, 5, 7)
KERNEL = settings(max_examples=100, deadline=None)


# -- FFElement references for the int kernel ------------------------------


def ff_rows(F, ints):
    return [[F.constant(e) for e in row] for row in ints]


def ref_mul(a, b):
    n = len(a)
    return [[sum((a[i][k] * b[k][j] for k in range(1, n)), a[i][0] * b[0][j])
             for j in range(n)] for i in range(n)]


def ref_det(a):
    if len(a) == 1:
        return a[0][0]
    terms = [(-1) ** j * a[0][j] * ref_det([row[:j] + row[j + 1:] for row in a[1:]])
             for j in range(len(a))]
    return sum(terms[1:], terms[0])


def ref_inverse(a):
    """Gauss-Jordan elimination over the field."""
    F = a[0][0].field
    n = len(a)
    m = [list(row) + [F.constant(int(i == j)) for j in range(n)] for i, row in enumerate(a)]
    for c in range(n):
        r = next(r for r in range(c, n) if m[r][c])
        m[c], m[r] = m[r], m[c]
        piv = m[c][c].inverse()
        m[c] = [e * piv for e in m[c]]
        for r in range(n):
            if r != c and m[r][c]:
                f = m[r][c]
                m[r] = [e - f * ec for e, ec in zip(m[r], m[c])]
    return [row[n:] for row in m]


@st.composite
def int_matrices(draw, count=2):
    """(p, [rows, ...]): `count` n x n matrices of arbitrary ints, n in {2, 3}."""
    p = draw(st.sampled_from(PRIMES))
    n = draw(st.sampled_from((2, 3)))
    square = st.lists(st.lists(st.integers(-50, 50), min_size=n, max_size=n),
                      min_size=n, max_size=n)
    return p, [draw(square) for _ in range(count)]


def rows_mod(a, p):
    """The int rows of a matrix of arbitrary ints, reduced into [0, p)."""
    return tuple(tuple(e % p for e in row) for row in a)


@given(int_matrices())
@KERNEL
def test_int_kernel_products_match_reference(data):
    p, (a, b) = data
    F = gf(p)
    got = mat_mul(rows_mod(a, p), rows_mod(b, p), p)
    assert all(0 <= e < p for row in got for e in row)
    assert ff_rows(F, got) == ref_mul(ff_rows(F, a), ff_rows(F, b))


@given(int_matrices(count=1))
@KERNEL
def test_int_kernel_det_and_inverse_match_reference(data):
    p, (a,) = data
    F = gf(p)
    g = rows_mod(a, p)
    det = ref_det(ff_rows(F, a))
    assert F.constant(small_det(g)) == det
    if not det:
        with pytest.raises(ZeroDivisionError):
            mat_inverse(g, p)
        return
    g_inv = mat_inverse(g, p)
    assert all(0 <= e < p for row in g_inv for e in row)
    assert ff_rows(F, g_inv) == ref_inverse(ff_rows(F, a))


@given(int_matrices())
@KERNEL
def test_int_kernel_key_orders_like_the_coefficient_tuples(data):
    p, (a, b) = data
    F = gf(p)

    def ref_key(rows):
        return tuple(e.c for row in rows for e in row)

    ka, kb = ref_key(ff_rows(F, a)), ref_key(ff_rows(F, b))
    ra, rb = rows_mod(a, p), rows_mod(b, p)
    assert (ra < rb) == (ka < kb)
    assert (ra == rb) == (ka == kb)


@pytest.mark.parametrize(
    "q,n,size",
    [(2, 2, 6), (3, 2, 48), (5, 2, 480), (2, 3, 168)],
)
def test_group_sizes(q, n, size):
    assert order_gl(q, n) == size
    G = enumerate_group(q, n)
    assert len(G) == len(set(G)) == size
    # every element is invertible by the FFElement reference
    F = gf(q)
    assert all(ref_det(ff_rows(F, g)) for g in G)


def test_group_size_gl3_f3():
    assert order_gl(3, 3) == 11232
    assert len(enumerate_group(3, 3)) == 11232


def test_enumeration_guard():
    with pytest.raises(TooLarge):
        enumerate_group(101, 2)


def test_identity_rows():
    assert identity(2) == ((1, 0), (0, 1))
    assert identity(3) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_matrix_inverse_and_product():
    F = gf(3)
    G = enumerate_group(3, 2)
    eye = identity(2)
    for g in G:
        g_inv = mat_inverse(g, 3)
        assert mat_mul(g, g_inv, 3) == mat_mul(g_inv, g, 3) == eye
        assert ff_rows(F, g_inv) == ref_inverse(ff_rows(F, g))
    rng = random.Random(1)
    for _ in range(50):
        a, b = rng.choice(G), rng.choice(G)
        ab = mat_mul(a, b, 3)
        assert ff_rows(F, ab) == ref_mul(ff_rows(F, a), ff_rows(F, b))
        assert small_det(ab) % 3 == small_det(a) * small_det(b) % 3
        assert mat_inverse(ab, 3) == mat_mul(mat_inverse(b, 3), mat_inverse(a, 3), 3)


def test_matrix_inverse_n3():
    F = gf(2)
    G = enumerate_group(2, 3)
    eye = identity(3)
    rng = random.Random(2)
    for _ in range(60):
        g = rng.choice(G)
        g_inv = mat_inverse(g, 2)
        assert mat_mul(g, g_inv, 2) == eye
        assert ff_rows(F, g_inv) == ref_inverse(ff_rows(F, g))


def test_unitriangular_enumeration():
    assert len(enumerate_unitriangular(3, 2)) == 3
    assert len(enumerate_unitriangular(3, 3)) == 27
    assert len(enumerate_unitriangular(5, 2)) == 5
    for u in enumerate_unitriangular(3, 3):
        assert small_det(u) % 3 == 1


def test_classify_gl2_f3_label_counts():
    labels = Counter(classify_conjugacy(g, 3)[0] for g in enumerate_group(3, 2))
    assert labels == {"central": 2, "unipotent": 16, "split": 12, "elliptic": 18}


def test_classify_gl2_f2_label_counts():
    labels = Counter(classify_conjugacy(g, 2)[0] for g in enumerate_group(2, 2))
    assert labels == {"central": 1, "unipotent": 3, "elliptic": 2}


@pytest.mark.parametrize("q,counts", [
    (2, {"central": 1, "u21": 21, "u3": 42, "elliptic": 48, "other": 56}),
    (3, {"central": 2, "u21": 208, "u3": 1248, "elliptic": 3456, "other": 6318}),
])
def test_classify_gl3_label_counts(q, counts):
    labels = Counter(classify_conjugacy(g, q)[0] for g in enumerate_group(q, 3))
    assert labels == counts


@pytest.mark.parametrize("q,counts", [
    (5, {"central": 4, "unipotent": 96, "split": 180, "elliptic": 200}),
    (7, {"central": 6, "unipotent": 288, "split": 840, "elliptic": 882}),
])
def test_classify_gl2_label_counts(q, counts):
    labels = Counter(classify_conjugacy(g, q)[0] for g in enumerate_group(q, 2))
    assert labels == counts


def test_classify_is_conjugation_invariant():
    # h g h^-1 is formed by the FFElement reference, not by mat_mul
    rng = random.Random(3)
    for q, n in ((3, 2), (2, 3)):
        F = gf(q)
        G = enumerate_group(q, n)
        for _ in range(80):
            g, h = rng.choice(G), rng.choice(G)
            ff_h = ff_rows(F, h)
            conj = ref_mul(ref_mul(ff_h, ff_rows(F, g)), ref_inverse(ff_h))
            rows = tuple(tuple(e.c[0] for e in row) for row in conj)
            assert classify_conjugacy(rows, q) == classify_conjugacy(g, q)


def test_classify_elliptic_orbit_structure():
    # elliptic eigenvalue sets are Frobenius orbits of size n
    for g in enumerate_group(3, 2):
        kind, data = classify_conjugacy(g, 3)
        if kind == "elliptic":
            (x, y) = sorted(data, key=lambda e: e.c)
            assert y == x**3 or x == y**3


@pytest.mark.parametrize("q,n", [(q, 2) for q in (2, 3, 5, 7, 11, 13)]
                         + [(q, 3) for q in (2, 3, 5)])
def test_elliptic_table_matches_a_root_scan(q, n):
    """Every monic polynomial of degree n over F_q: an irreducible one reads
    the root set a scan of F_{q^n} finds, in the same iteration order, and
    one with a root in F_q is not in the Frobenius-orbit table."""
    big = gf(q, n)
    table = _elliptic_roots(q, n)
    irreducible = 0
    for tail in itertools.product(range(q), repeat=n):
        coeffs = (*tail, 1)

        def at(x):
            acc = big.zero()
            for c in reversed(coeffs):
                acc = acc * x + c
            return acc

        if any(not at(big.constant(x)) for x in range(q)):
            assert coeffs not in table, coeffs
            continue
        irreducible += 1
        scan = frozenset(x for x in big if not at(x))
        assert len(scan) == n
        assert table[coeffs] == scan and list(table[coeffs]) == list(scan), coeffs
        assert _eigenvalue_pattern(q, coeffs) == ("elliptic", scan)
    # (q^n - q) / n monic irreducibles of prime degree n
    assert irreducible == len(table) == (q**n - q) // n


def test_classify_central_matches_scalar():
    for q, n in ((5, 2), (3, 3)):
        for z in range(1, q):
            g = tuple(tuple(z * e for e in row) for row in identity(n))
            assert classify_conjugacy(g, q) == ("central", z)


@pytest.mark.parametrize("q,n", [(3, 2), (2, 3), (3, 3)])
def test_classify_data_is_int_except_elliptic(q, n):
    # eigenvalues in F_q are ints mod q; only elliptic ones live in F_{q^n}
    big = gf(q, n)
    for g in enumerate_group(q, n):
        kind, data = classify_conjugacy(g, q)
        if kind == "elliptic":
            assert len(data) == n and all(x.field is big for x in data)
        elif kind == "split":
            assert len(data) == 2 and all(type(x) is int and 0 <= x < q for x in data)
        elif kind == "other":
            assert data is None
        else:
            assert type(data) is int and 0 < data < q


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("n", (2, 3))
def test_mirabolic_reps_are_an_orbit_transversal_with_inverses(p, n):
    reps = mirabolic_reps(p, n)
    assert mirabolic_reps(p, n) is reps
    k = n - 1
    # the blocks sit in the top-left corner, the identity elsewhere
    assert all(m[k] == (0,) * k + (1,) and all(row[k] == 0 for row in m[:k])
               for m, _ in reps)
    blocks = [tuple(row[:k] for row in m[:k]) for m, _ in reps]
    # one block in every N_k-orbit of GL_k(F_p), in the order of the reference
    assert blocks == n_coset_reps(p, k)
    N = enumerate_unitriangular(p, k)
    orbits = [{mat_mul(u, b, p) for u in N} for b in blocks]
    assert sum(map(len, orbits)) == len(set().union(*orbits)) == order_gl(p, k)
    assert len(reps) == order_gl(p, k) // p ** (k * (k - 1) // 2)
    eye = identity(n)
    assert all(mat_mul(m, m_inv, p) == eye for m, m_inv in reps)


# -- the Bruhat decomposition g = u_1 m u_2 ---------------------------------


def is_monomial(rows):
    """One nonzero entry in every row and every column."""
    return all(sum(1 for e in line if e) == 1 for line in (*rows, *zip(*rows)))


def psi_argument(u):
    return sum(u[i][i + 1] for i in range(len(u) - 1))


@pytest.mark.parametrize("q,n", [(2, 2), (3, 2), (5, 2), (7, 2), (2, 3)])
def test_bruhat_cell_rebuilds_every_element(q, n):
    # for each u_1 in N, u_2 = m^-1 u_1^-1 g; the decomposition holds when
    # some u_2 is unitriangular and x is the psi-argument of such a u_1 u_2
    N = set(enumerate_unitriangular(q, n))
    cells = set()
    for g in enumerate_group(q, n):
        m, x = bruhat_cell(g, q)
        assert is_monomial(m) and 0 <= x < q, g
        m_inv = mat_inverse(m, q)
        arguments = set()
        for u1 in N:
            u2 = mat_mul(mat_mul(m_inv, mat_inverse(u1, q), q), g, q)
            if u2 in N:
                assert mat_mul(mat_mul(u1, m, q), u2, q) == g
                arguments.add((psi_argument(u1) + psi_argument(u2)) % q)
        assert x in arguments, g
        cells.add(m)
    # every monomial matrix is its own cell
    assert len(cells) == factorial(n) * (q - 1) ** n
