"""Property tests for the integer p-adic kernel.

PadicMatrix stores integer numerators over one common denominator; every
operation here is compared with a plain Fraction reference written out in
this file.  Entries carry denominators with p-powers and with primes other
than p, so both the p-part and the unit part of the common denominator are
exercised.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rsexact.errors import DepthExceeded
from rsexact.padic import PadicMatrix, iwasawa_NAK, theta_class
from rsexact.simpletypes import DEPTH_ZERO, make_type

from reference import entry_val, int_mod, val_p

PRIMES = (2, 3, 5)
OTHER_DENOMINATORS = (1, 7, 11, 13)


# -- Fraction references -------------------------------------------------


def ref_val(x: Fraction, p: int):
    """The v with x / p^v a p-unit, found by search."""
    if not x:
        return math.inf
    for v in range(-40, 41):
        y = x / Fraction(p) ** v
        if y.numerator % p and y.denominator % p:
            return v
    raise AssertionError("valuation out of range")


def ref_int_mod(x: Fraction, p: int, m: int) -> int:
    """The r in [0, p^m) with val(x - r) >= m."""
    return next(r for r in range(p**m) if ref_val(x - r, p) >= m)


def ref_mul(a, b):
    n = len(a)
    return [[sum((a[i][k] * b[k][j] for k in range(n)), Fraction(0)) for j in range(n)]
            for i in range(n)]


def ref_det(a) -> Fraction:
    if len(a) == 1:
        return a[0][0]
    return sum(
        (-1) ** j * a[0][j] * ref_det([row[:j] + row[j + 1:] for row in a[1:]])
        for j in range(len(a))
    )


def ref_inverse(a):
    """Gauss-Jordan elimination over Q."""
    n = len(a)
    m = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(a)]
    for c in range(n):
        r = next(r for r in range(c, n) if m[r][c])
        m[c], m[r] = m[r], m[c]
        piv = m[c][c]
        m[c] = [e / piv for e in m[c]]
        for r in range(n):
            if r != c and m[r][c]:
                f = m[r][c]
                m[r] = [e - f * ec for e, ec in zip(m[r], m[c])]
    return [row[n:] for row in m]


def ref_in_K(a, p: int) -> bool:
    return all(ref_val(e, p) >= 0 for row in a for e in row) and ref_val(ref_det(a), p) == 0


def as_lists(g: PadicMatrix):
    return [list(row) for row in g.rows]


# -- strategies ----------------------------------------------------------


def entries(p: int):
    return st.builds(
        lambda a, f, e, q: Fraction(a * p**f, p**e * q),
        st.integers(-40, 40),
        st.integers(0, 2),
        st.integers(0, 3),
        st.sampled_from(OTHER_DENOMINATORS),
    )


@st.composite
def matrix_pairs(draw, sizes=(2, 3)):
    """(p, rows_a, rows_b): two n x n rational matrices, n in `sizes`."""
    p = draw(st.sampled_from(PRIMES))
    n = draw(st.sampled_from(sizes))
    square = st.lists(st.lists(entries(p), min_size=n, max_size=n), min_size=n, max_size=n)
    return p, draw(square), draw(square)


KERNEL = settings(max_examples=100, deadline=None)


# -- storage and arithmetic ----------------------------------------------


@given(matrix_pairs())
@KERNEL
def test_storage_is_lowest_terms(data):
    _, a, _ = data
    g = PadicMatrix(a)
    assert g.den > 0
    assert math.gcd(g.den, *(e for row in g.num for e in row)) == 1
    assert as_lists(g) == a
    scaled = PadicMatrix.from_ints([[-6 * e for e in row] for row in g.num], -6 * g.den)
    assert scaled == g and hash(scaled) == hash(g)


@given(matrix_pairs())
@KERNEL
def test_products_match_reference(data):
    _, a, b = data
    ga, gb = PadicMatrix(a), PadicMatrix(b)
    assert as_lists(ga * gb) == ref_mul(a, b)
    x = b[0][0]
    assert as_lists(ga * x) == [[e * x for e in row] for row in a]
    assert as_lists(ga.scale_row(1, x)) == [
        [e * x for e in row] if i == 1 else row for i, row in enumerate(a)
    ]


@given(matrix_pairs())
@KERNEL
def test_det_and_inverse_match_reference(data):
    _, a, _ = data
    g = PadicMatrix(a)
    assert g.det() == ref_det(a)
    assume(g.det())
    assert as_lists(g.inverse()) == ref_inverse(a)


@given(st.sampled_from(PRIMES), st.integers(-200, 200), st.integers(1, 200),
       st.integers(1, 30), st.integers(0, 3))
@KERNEL
def test_theta_class_reads_any_scale(p, a, b, scale, cap):
    """theta_class(p, num, den) depends on num / den only, and agrees with
    the Fraction definition (p^(m+1), p^m x mod p^(m+1)), also at x = 0,
    where m = 0 and the class is (p, 0)."""
    x = Fraction(a, b)
    m = max(0, -ref_val(x, p))
    if m > cap:
        with pytest.raises(DepthExceeded):
            theta_class(p, a * scale, b * scale, cap)
        return
    want = (p ** (m + 1), ref_int_mod(x * p**m, p, m + 1))
    assert theta_class(p, a * scale, b * scale, cap) == want
    assert theta_class(p, x.numerator, x.denominator, cap) == want


@given(matrix_pairs())
@KERNEL
def test_valuations_and_residues_match_reference(data):
    p, a, _ = data
    g = PadicMatrix(a)
    for i, row in enumerate(a):
        for j, e in enumerate(row):
            assert entry_val(g, i, j, p) == val_p(e, p) == ref_val(e, p)
            if ref_val(e, p) >= 0:
                assert int_mod(e, p, 2) == ref_int_mod(e, p, 2)
    integral = all(ref_val(e, p) >= 0 for row in a for e in row)
    assert g.is_integral(p) == integral
    assert g.in_K(p) == ref_in_K(a, p)
    if integral:
        # the depth-zero kernel class is the reduction mod p
        t = make_type(DEPTH_ZERO, p, n=len(a), theta=1)
        assert [list(row) for row in t.kernel_class(g)] == [
            [ref_int_mod(e, p, 1) for e in row] for row in a
        ]


# -- Iwasawa decomposition -----------------------------------------------


@given(matrix_pairs())
@KERNEL
def test_iwasawa_factors(data):
    p, a, _ = data
    assume(ref_det(a))
    n_mat, vals, k = iwasawa_NAK(PadicMatrix(a), p)
    n = len(a)
    nm = as_lists(n_mat)
    assert all(nm[i][i] == 1 and all(nm[i][j] == 0 for j in range(i)) for i in range(n))
    assert all(isinstance(v, int) for v in vals)
    diag = [[Fraction(p) ** vals[i] if i == j else Fraction(0) for j in range(n)]
            for i in range(n)]
    assert ref_in_K(as_lists(k), p)
    assert ref_mul(ref_mul(nm, diag), as_lists(k)) == a

