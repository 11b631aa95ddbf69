"""Matrices over a prime field F_p and the group enumerations behind the
finite-level construction: GL_n(F_p) for n <= 3, unipotent subgroups,
conjugacy classification by eigenvalue pattern, and the Bruhat
decomposition g = u_1 m u_2 into unitriangular and monomial factors.

The N\\GL_2 cells have one enumeration, the closed form n_cell_rows of
(N cap K)\\K/K^m: padic.nk_cell_reps wraps its rows as the p-adic
representatives the engine and the oracle integrate over, and at m = 1
they are the N_2-orbits of GL_2(F_p) that mirabolic_reps embeds for the
GL_3 Bessel convolution.

An element of GL_n(F_p) is its int rows: a tuple of row tuples with
entries in [0, p), and p is passed beside it as an int.  p is prime: it
comes from a field built by finitefield.gf or from a flag that
cli._validate has checked.  Products, determinants, inverses and the
enumerations are integer arithmetic on the rows.

Eigenvalues in F_p are located by scanning the field for roots of the
characteristic polynomial, once per polynomial, which avoids any
discriminant casework and works uniformly in characteristic 2.  The roots
of an irreducible one are read from a table of the Frobenius orbits of the
degree-n extension, built in one pass per (p, n).
"""

from __future__ import annotations

import itertools
import operator
from functools import cache
from math import comb

from .errors import TooLarge
from .finitefield import gf

_ENUM_LIMIT = 10**8


def small_det(r):
    """Determinant of an n x n matrix, n in {2, 3}, given by its rows over
    any commutative ring."""
    if len(r) == 2:
        return r[0][0] * r[1][1] - r[0][1] * r[1][0]
    if len(r) == 3:
        return (
            r[0][0] * (r[1][1] * r[2][2] - r[1][2] * r[2][1])
            - r[0][1] * (r[1][0] * r[2][2] - r[1][2] * r[2][0])
            + r[0][2] * (r[1][0] * r[2][1] - r[1][1] * r[2][0])
        )
    raise ValueError("only n in {2, 3} supported")


def small_adjugate(r):
    """The adjugate of an n x n matrix, n in {2, 3}, over any commutative
    ring: adj(r) * r = det(r) * Id."""
    if len(r) == 2:
        return [[r[1][1], -r[0][1]], [-r[1][0], r[0][0]]]
    if len(r) == 3:
        (a, b, c), (d, e, f), (g, h, i) = r
        return [
            [e * i - f * h, c * h - b * i, b * f - c * e],
            [f * g - d * i, a * i - c * g, c * d - a * f],
            [d * h - e * g, b * g - a * h, a * e - b * d],
        ]
    raise ValueError("only n in {2, 3} supported")


def identity(n: int):
    """The int rows of the n x n identity matrix."""
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def mat_mul(a, b, p: int):
    """The int rows of a * b mod p."""
    cols = tuple(zip(*b))
    mul = operator.mul
    return tuple(tuple(sum(map(mul, row, col)) % p for col in cols) for row in a)


def mat_inverse(a, p: int):
    """The int rows of a^-1 mod p, for a in GL_n(F_p), n in {2, 3}."""
    d = small_det(a) % p
    if not d:
        raise ZeroDivisionError("singular matrix")
    di = pow(d, -1, p)
    return tuple(tuple(e * di % p for e in row) for row in small_adjugate(a))


def order_gl(q: int, n: int) -> int:
    out = 1
    for i in range(n):
        out *= q**n - q**i
    return out


@cache
def enumerate_group(p: int, n: int):
    """All of GL_n(F_p), n in {2, 3}, in deterministic order."""
    if p ** (n * n) > _ENUM_LIMIT:
        raise TooLarge(f"GL_{n}(F_{p}) enumeration exceeds the guard")
    out = []
    for entries in itertools.product(range(p), repeat=n * n):
        rows = tuple(entries[i * n : (i + 1) * n] for i in range(n))
        if small_det(rows) % p:
            out.append(rows)
    return out


@cache
def enumerate_unitriangular(p: int, n: int):
    """The upper unitriangular matrices of GL_n(F_p), deterministic order."""
    pos = [(i, j) for i in range(n) for j in range(i + 1, n)]
    out = []
    for vals in itertools.product(range(p), repeat=len(pos)):
        rows = [[int(i == j) for j in range(n)] for i in range(n)]
        for (i, j), v in zip(pos, vals):
            rows[i][j] = v
        out.append(tuple(map(tuple, rows)))
    return out


def _horner(coeffs, x):
    """The polynomial with int coefficients `coeffs`, low to high, at the
    int x."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


# sort key: the coordinates of a field element, in enumeration order
_coords = operator.attrgetter("c")


@cache
def _elliptic_roots(p: int, n: int) -> dict:
    """The root sets of the monic irreducible polynomials of degree n in
    {2, 3} over F_p, keyed by their int coefficients mod p, low to high.

    One pass over the Frobenius orbits {x, x^p, .., x^(p^(n-1))} of the
    elements x of F_{p^n} outside F_p, its only proper subfield for n
    prime: the orbit is the root set of prod(X - x^(p^i)), whose
    coefficients lie in F_p.  Each set is built in the field's enumeration
    order, the order a scan of the field finds its roots in.
    """
    field = gf(p, n)
    table = {}
    seen = set()
    for x in field:
        if x in seen or not any(x.c[1:]):
            continue
        orbit = [x]
        for _ in range(n - 1):
            orbit.append(orbit[-1] ** p)
        seen.update(orbit)
        poly = [field.one()]  # low to high
        for root in orbit:  # times (X - root)
            poly = [-root * poly[0]] + [
                a - root * b for a, b in zip(poly, poly[1:])] + [poly[-1]]
        table[tuple(c.c[0] for c in poly)] = frozenset(sorted(orbit, key=_coords))
    return table


@cache
def _eigenvalue_pattern(p: int, coeffs: tuple):
    """(kind, data) for the monic characteristic polynomial of an n x n
    matrix over the prime field, given by its int coefficients mod p, low
    to high: ("repeated", z) for (x - z)^n, ("split", roots) for two
    distinct roots in the field (n = 2), both as ints mod p;
    ("elliptic", roots) for an irreducible polynomial, its roots as
    elements of the degree-n extension; and ("other", None) for every
    remaining cubic."""
    n = len(coeffs) - 1
    roots = [x for x in range(p) if not _horner(coeffs, x) % p]
    if not roots:
        return ("elliptic", _elliptic_roots(p, n)[coeffs])
    z = roots[0]
    power = tuple(comb(n, k) * (-z) ** (n - k) % p for k in range(n + 1))  # (x - z)^n
    if len(roots) == 1 and coeffs == power:
        return ("repeated", z)
    if n == 2:
        return ("split", frozenset(roots))
    return ("other", None)


def classify_conjugacy(r, p: int):
    """Conjugacy class label by eigenvalue pattern of the element of
    GL_n(F_p) with int rows r.

    n=2 kinds: ("central", z), ("unipotent", z) for non-scalar with double
    eigenvalue z, ("split", {a, b}), ("elliptic", {x, x^q}).
    n=3 kinds: ("central", z), ("u21", z), ("u3", z) for the two nontrivial
    unipotent shapes around the scalar z, ("elliptic", {x, x^q, x^q^2}),
    and ("other", None) for every remaining (split or mixed) class.
    Eigenvalues in F_p are ints mod p; elliptic ones are elements of
    gf(p, n).

    The pattern is read off the characteristic polynomial alone; only a
    repeated eigenvalue z looks at the matrix itself: it is central when it
    is z * Id, and for n = 3 the 2 x 2 minors of r - z tell u21 from u3.
    """
    n = len(r)
    if n not in (2, 3):
        raise ValueError("only n in {2, 3} supported")
    t1 = sum(r[i][i] for i in range(n))
    t3 = small_det(r)
    if n == 2:
        coeffs = (t3 % p, -t1 % p, 1)
    else:
        # the trace of the adjugate, summed from the principal 2 x 2 minors
        t2 = sum(r[i][i] * r[j][j] - r[i][j] * r[j][i] for i, j in ((0, 1), (0, 2), (1, 2)))
        coeffs = (-t3 % p, t2 % p, -t1 % p, 1)
    kind, data = _eigenvalue_pattern(p, coeffs)
    if kind != "repeated":
        return kind, data
    if all(e == (data if i == j else 0) for i, row in enumerate(r) for j, e in enumerate(row)):
        return "central", data
    if n == 2:
        return "unipotent", data
    # g - z is singular and nonzero: it has rank 1 exactly when all its
    # 2 x 2 minors, the entries of its adjugate, vanish
    shifted = [[e - data * (i == j) for j, e in enumerate(row)] for i, row in enumerate(r)]
    if any(x % p for row in small_adjugate(shifted) for x in row):
        return "u3", data
    return "u21", data


def n_cell_rows(p: int, m: int) -> list:
    """The int rows of representatives of (N cap K)\\K/K^m for GL_2 and
    K = GL_2(Z_p), which at m = 1 are the N-orbits of GL_2(F_p).

    Two branches by the reduction of the bottom-left entry: c = 0 mod p
    forces d to be a unit and the representative [[a, 0], [c, d]] with a a
    unit; c a unit gives [[0, b], [c, d]] with b a unit and d free.
    """
    mod = p**m
    units = [x for x in range(mod) if x % p]
    out = [((a, 0), (c, d)) for a in units for c in range(0, mod, p) for d in units]
    out += [((0, b), (c, d)) for b in units for c in units for d in range(mod)]
    return out


@cache
def mirabolic_reps(p: int, n: int):
    """The pairs (m, m^-1), as int rows, for m the representatives of
    N_{n-1}\\GL_{n-1}(F_p) embedded in the top-left block of GL_n, n in
    {2, 3}, in the order of their int rows: diag(a, 1) for n = 2, and the
    blocks n_cell_rows(p, 1) for n = 3."""
    if n == 2:
        blocks = [((a, 0), (0, 1)) for a in range(1, p)]
    else:
        blocks = [(r1 + (0,), r2 + (0,), (0, 0, 1)) for r1, r2 in sorted(n_cell_rows(p, 1))]
    return tuple((m, mat_inverse(m, p)) for m in blocks)


def bruhat_cell(rows, p: int):
    """The Bruhat decomposition g = u_1 m u_2 of g in GL_n(F_p), n <= 3,
    with u_1, u_2 upper unitriangular and m monomial.

    `rows` are the int rows of g, in [0, p).  Returns the int rows of m and
    the psi-argument x of u_1 u_2, the sum of its superdiagonal entries mod
    p.  Rows are cleared from the bottom up: the leftmost nonzero entry of a
    row is its pivot; the entries to its right are cleared by adding
    multiples of the pivot column to later columns (right multiplication by
    N), then the entries above it by adding multiples of the pivot row to
    earlier rows (left multiplication by N).  Rows below already hold only
    their own pivots, in other columns, so neither step disturbs them.  An
    operation on adjacent rows or columns adds its multiplier to x.
    """
    n = len(rows)
    r = [list(row) for row in rows]
    x = 0
    for i in range(n - 1, -1, -1):
        row = r[i]
        c = next(j for j, e in enumerate(row) if e)
        inv = pow(row[c], -1, p)
        for j in range(c + 1, n):
            if row[j]:
                b = row[j] * inv % p
                if j == c + 1:
                    x += b
                for k in range(i + 1):
                    r[k][j] = (r[k][j] - b * r[k][c]) % p
        for k in range(i):
            if r[k][c]:
                if k == i - 1:
                    x += r[k][c] * inv
                r[k][c] = 0
    return tuple(map(tuple, r)), x % p
