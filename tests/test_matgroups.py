import itertools
import random
from collections import Counter
from math import factorial

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rsexact.errors import TooLarge
from rsexact.finitefield import gf
from rsexact.matgroups import (
    FiniteMatrix,
    _eigenvalue_pattern,
    _elliptic_roots,
    bruhat_cell,
    classify_conjugacy,
    enumerate_group,
    enumerate_unitriangular,
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


def as_ff(g):
    """The int rows of g as FFElements, for comparison with the references."""
    return ff_rows(g.field, g.ints)


@given(int_matrices())
@KERNEL
def test_int_kernel_storage_and_boundary(data):
    p, (a, _) = data
    F = gf(p)
    g = FiniteMatrix(F, a)
    assert g.ints == tuple(tuple(e % p for e in row) for row in a)
    assert all(0 <= e < p for row in g.ints for e in row)
    assert as_ff(g) == ff_rows(F, a)
    assert FiniteMatrix(F, g.ints) == g


@given(int_matrices())
@KERNEL
def test_int_kernel_products_match_reference(data):
    p, (a, b) = data
    F = gf(p)
    ga, gb = FiniteMatrix(F, a), FiniteMatrix(F, b)
    assert as_ff(ga * gb) == ref_mul(ff_rows(F, a), ff_rows(F, b))
    z = b[0][0]
    scaled = [[e * F.constant(z) for e in row] for row in ff_rows(F, a)]
    assert as_ff(ga * z) == as_ff(z * ga) == scaled


@given(int_matrices(count=1))
@KERNEL
def test_int_kernel_det_and_inverse_match_reference(data):
    p, (a,) = data
    F = gf(p)
    g = FiniteMatrix(F, a)
    det = ref_det(ff_rows(F, a))
    assert F.constant(small_det(g.ints)) == det
    if not det:
        with pytest.raises(ZeroDivisionError):
            g.inverse()
        return
    assert as_ff(g.inverse()) == ref_inverse(ff_rows(F, a))


@given(int_matrices())
@KERNEL
def test_int_kernel_key_orders_like_the_coefficient_tuples(data):
    p, (a, b) = data
    F = gf(p)
    ga, gb = FiniteMatrix(F, a), FiniteMatrix(F, b)

    def ref_key(rows):
        return tuple(e.c for row in rows for e in row)

    ka, kb = ref_key(ff_rows(F, a)), ref_key(ff_rows(F, b))
    assert (ga.ints < gb.ints) == (ka < kb)
    assert (ga.ints == gb.ints) == (ka == kb) == (ga == gb)


@given(int_matrices(), st.sampled_from(PRIMES))
@KERNEL
def test_int_kernel_equality_and_hash_across_fields(data, other):
    p, (a, _) = data
    assume(other != p)
    same = FiniteMatrix(gf(p), a)
    assert same == FiniteMatrix(gf(p), [[e + p for e in row] for row in a])
    assert hash(same) == hash(FiniteMatrix(gf(p), same.ints))
    elsewhere = FiniteMatrix(gf(other), a)
    assert same != elsewhere
    assert len({same, elsewhere}) == 2
    with pytest.raises(ValueError):
        same * elsewhere


def test_extension_fields_are_refused():
    F4 = gf(2, 2)
    with pytest.raises(ValueError):
        FiniteMatrix(F4, [[1, 0], [0, 1]])
    with pytest.raises(ValueError):
        FiniteMatrix.identity(gf(3, 2), 2)
    with pytest.raises(ValueError):
        enumerate_group(F4, 2)
    with pytest.raises(ValueError):
        enumerate_unitriangular(F4, 2)


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
        assert small_det((a * b).ints) % 3 == small_det(a.ints) * small_det(b.ints) % 3
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
        assert small_det(u.ints) % 3 == 1


def test_classify_gl2_f3_label_counts():
    F = gf(3)
    labels = Counter(classify_conjugacy(g)[0] for g in enumerate_group(F, 2))
    assert labels == {"central": 2, "unipotent": 16, "split": 12, "elliptic": 18}


def test_classify_gl2_f2_label_counts():
    F = gf(2)
    labels = Counter(classify_conjugacy(g)[0] for g in enumerate_group(F, 2))
    assert labels == {"central": 1, "unipotent": 3, "elliptic": 2}


@pytest.mark.parametrize("q,counts", [
    (2, {"central": 1, "u21": 21, "u3": 42, "elliptic": 48, "other": 56}),
    (3, {"central": 2, "u21": 208, "u3": 1248, "elliptic": 3456, "other": 6318}),
])
def test_classify_gl3_label_counts(q, counts):
    labels = Counter(classify_conjugacy(g)[0] for g in enumerate_group(gf(q), 3))
    assert labels == counts


@pytest.mark.parametrize("q,counts", [
    (5, {"central": 4, "unipotent": 96, "split": 180, "elliptic": 200}),
    (7, {"central": 6, "unipotent": 288, "split": 840, "elliptic": 882}),
])
def test_classify_gl2_label_counts(q, counts):
    labels = Counter(classify_conjugacy(g)[0] for g in enumerate_group(gf(q), 2))
    assert labels == counts


def test_classify_is_conjugation_invariant():
    rng = random.Random(3)
    for q, n in ((3, 2), (2, 3)):
        G = enumerate_group(gf(q), n)
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
        assert _eigenvalue_pattern(gf(q), coeffs) == ("elliptic", scan)
    # (q^n - q) / n monic irreducibles of prime degree n
    assert irreducible == len(table) == (q**n - q) // n


def test_classify_central_matches_scalar():
    for q, n in ((5, 2), (3, 3)):
        for z in range(1, q):
            g = FiniteMatrix.identity(gf(q), n) * z
            assert classify_conjugacy(g) == ("central", z)


@pytest.mark.parametrize("q,n", [(3, 2), (2, 3), (3, 3)])
def test_classify_data_is_int_except_elliptic(q, n):
    # eigenvalues in F_q are ints mod q; only elliptic ones live in F_{q^n}
    big = gf(q, n)
    for g in enumerate_group(gf(q), n):
        kind, data = classify_conjugacy(g)
        if kind == "elliptic":
            assert len(data) == n and all(x.field is big for x in data)
        elif kind == "split":
            assert len(data) == 2 and all(type(x) is int and 0 <= x < q for x in data)
        elif kind == "other":
            assert data is None
        else:
            assert type(data) is int and 0 < data < q


def test_matrices_over_different_fields_are_unequal():
    # the identities over F_2 and F_3 hash alike but are different matrices
    a = FiniteMatrix.identity(gf(2), 2)
    b = FiniteMatrix.identity(gf(3), 2)
    assert hash(a) == hash(b)
    assert a != b
    assert len({a, b}) == 2


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("n", (2, 3))
def test_mirabolic_reps_are_an_orbit_transversal_with_inverses(p, n):
    F = gf(p)
    reps = mirabolic_reps(F, n)
    assert mirabolic_reps(F, n) is reps
    k = n - 1
    # the blocks sit in the top-left corner, the identity elsewhere
    assert all(m.ints[k] == (0,) * k + (1,) and all(row[k] == 0 for row in m.ints[:k])
               for m, _ in reps)
    blocks = [FiniteMatrix(F, [row[:k] for row in m.ints[:k]]) for m, _ in reps]
    # one block in every N_k-orbit of GL_k(F_p), in the order of the reference
    assert blocks == n_coset_reps(F, k)
    N = enumerate_unitriangular(F, k)
    orbits = [{u * b for u in N} for b in blocks]
    assert sum(map(len, orbits)) == len(set().union(*orbits)) == order_gl(p, k)
    assert len(reps) == order_gl(p, k) // p ** (k * (k - 1) // 2)
    eye = FiniteMatrix.identity(F, n)
    assert all(m * m_inv == eye for m, m_inv in reps)


# -- the Bruhat decomposition g = u_1 m u_2 ---------------------------------


def is_monomial(rows):
    """One nonzero entry in every row and every column."""
    return all(sum(1 for e in line if e) == 1 for line in (*rows, *zip(*rows)))


def psi_argument(u):
    return sum(u.ints[i][i + 1] for i in range(u.n - 1))


@pytest.mark.parametrize("q,n", [(2, 2), (3, 2), (5, 2), (7, 2), (2, 3)])
def test_bruhat_cell_rebuilds_every_element(q, n):
    # for each u_1 in N, u_2 = m^-1 u_1^-1 g; the decomposition holds when
    # some u_2 is unitriangular and x is the psi-argument of such a u_1 u_2
    F = gf(q)
    N = set(enumerate_unitriangular(F, n))
    cells = set()
    for g in enumerate_group(F, n):
        m_rows, x = bruhat_cell(g.ints, q)
        assert is_monomial(m_rows) and 0 <= x < q, g
        m = FiniteMatrix(F, m_rows)
        assert m.ints == m_rows
        m_inv = m.inverse()
        arguments = set()
        for u1 in N:
            u2 = m_inv * u1.inverse() * g
            if u2 in N:
                assert u1 * m * u2 == g
                arguments.add((psi_argument(u1) + psi_argument(u2)) % q)
        assert x in arguments, g
        cells.add(m_rows)
    # every monomial matrix is its own cell
    assert len(cells) == factorial(n) * (q - 1) ** n
