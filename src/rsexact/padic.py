"""Exact p-adic linear algebra over Q (viewed inside Q_p) and the measure
bookkeeping for GL_n.

A matrix is stored as integer numerators over one positive common
denominator, in lowest terms, so equal matrices have equal storage.
Products, determinants and inverses are integer arithmetic followed by a
single gcd; valuations and residues are read off the integers, so every
decomposition here is exact.  iwasawa_NAK produces g = n * a * k with n
upper unitriangular, a = diag(p^{v_i}) and k in GL_n(Z_p) by column
reduction over the valuation ring.

Every integral in the package is stated against the Haar measures that
give K^1 = 1 + p M_n(Z_p) volume 1 on G, and its intersection volume 1 on
P, Z and N; so K = GL_n(Z_p) has volume |GL_n(F_q)|.  The quotient measure
on (P cap K)\\K gives each (P cap K)\\K/K^m cell mass q^{-(m-1)n}
(RSPair.nu), and ng_cell_volume gives each N\\G cell its volume.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from operator import mul

from .cyclo import CYC
from .errors import DepthExceeded
from .matgroups import n_cell_rows, small_adjugate, small_det


def vp_int(n: int, p: int) -> int:
    """Exponent of p in a nonzero integer.

    Almost every call has a small exponent, so p is stripped one factor at
    a time; past 8 factors the rest is left to _vp_deep.
    """
    v = 0
    while not n % p:
        n //= p
        v += 1
        if v == 8:
            return v + _vp_deep(n, p)
    return v


def _vp_deep(n: int, p: int) -> int:
    """Exponent of p in a nonzero integer, in O(log v) divisions: p^8,
    p^16, p^32, ... are stripped while they divide, then each smaller one
    at most once on the way back down, and the last few factors singly."""
    v = 0
    powers = [(8, p**8)]
    while not n % powers[-1][1]:
        step, pk = powers[-1]
        n //= pk
        v += step
        powers.append((2 * step, pk * pk))
    for step, pk in reversed(powers[:-1]):
        if not n % pk:
            n //= pk
            v += step
    while not n % p:
        n //= p
        v += 1
    return v


def theta_class(p: int, num: int, den: int, cap: int):
    """The class of theta at num / den, for integers num and den != 0 in any
    common scale: (p^(m+1), k) with theta(num / den) = zeta_{p^(m+1)}^k and
    m = max(0, -val(num / den)).

    An argument that is exactly 0 has m = 0 and reads (p, 0), the class of
    every argument in pZ_p, so theta_at gives it the same zeta_p^0.  Raises
    DepthExceeded when m exceeds the session cap.
    """
    if not num:
        return p, 0
    vden = vp_int(den, p)
    m = max(0, vden - vp_int(num, p))
    if m > cap:
        raise DepthExceeded(f"theta argument needs zeta_{p}^{m + 1} but cap is {cap}")
    mod = p ** (m + 1)
    # num * p^m / den = (num * p^m / p^vden) / u with u = den / p^vden a unit
    pden = p**vden
    return mod, num * p**m // pden * pow(den // pden, -1, mod) % mod


def theta_at(cls, scal=CYC, sign: int = 1):
    """theta on a class of theta_class, raised to the power sign (+-1)."""
    mod, k = cls
    return scal.root_of_unity(mod, sign * k % mod)


class PadicMatrix:
    """Immutable rational matrix, n <= 3: integer numerators `num` over one
    common denominator `den > 0`, with gcd(den, every numerator) = 1."""

    __slots__ = ("num", "den")

    def __init__(self, rows):
        rows = [[e if isinstance(e, int) else Fraction(e) for e in row] for row in rows]
        den = math.lcm(*(e.denominator for row in rows for e in row))
        self.num = tuple(
            tuple(e.numerator * (den // e.denominator) for e in row) for row in rows
        )
        self.den = den

    @classmethod
    def from_ints(cls, num, den: int = 1) -> "PadicMatrix":
        """The matrix num / den for integer rows `num` and a nonzero integer
        `den`, reduced to lowest terms with one gcd."""
        g = math.gcd(den, *itertools.chain.from_iterable(num))
        if den < 0:
            g = -g
        self = object.__new__(cls)
        if g == 1:
            self.num = tuple(map(tuple, num))
        else:
            self.num = tuple(tuple(e // g for e in row) for row in num)
        self.den = den // g
        return self

    @classmethod
    def identity(cls, n: int) -> "PadicMatrix":
        return cls.from_ints([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def diagonal(cls, entries) -> "PadicMatrix":
        n = len(entries)
        return cls([[entries[i] if i == j else 0 for j in range(n)] for i in range(n)])

    @property
    def n(self) -> int:
        return len(self.num)

    @property
    def rows(self) -> tuple:
        """The entries as Fractions."""
        return tuple(tuple(Fraction(e, self.den) for e in row) for row in self.num)

    def entry(self, i: int, j: int) -> Fraction:
        return Fraction(self.num[i][j], self.den)

    def __eq__(self, other):
        if not isinstance(other, PadicMatrix):
            return NotImplemented
        return self.den == other.den and self.num == other.num

    def __hash__(self):
        return hash((self.num, self.den))

    def __mul__(self, other):
        if isinstance(other, PadicMatrix):
            cols = tuple(zip(*other.num))
            return PadicMatrix.from_ints(
                [[sum(map(mul, row, col)) for col in cols] for row in self.num],
                self.den * other.den,
            )
        if isinstance(other, (int, Fraction)):
            return PadicMatrix.from_ints(
                [[e * other.numerator for e in row] for row in self.num],
                self.den * other.denominator,
            )
        return NotImplemented

    def scale_row(self, i: int, x) -> "PadicMatrix":
        """diag(1, .., x, .., 1) * self: row i multiplied by x, an int or a
        Fraction."""
        xn, xd = x.numerator, x.denominator
        return PadicMatrix.from_ints(
            [
                [e * xn for e in row] if r == i else row if xd == 1 else [e * xd for e in row]
                for r, row in enumerate(self.num)
            ],
            self.den * xd,
        )

    def det(self) -> Fraction:
        return Fraction(small_det(self.num), self.den**self.n)

    def inverse(self) -> "PadicMatrix":
        # (num / den)^{-1} = den * adj(num) / det(num)
        d = small_det(self.num)
        if not d:
            raise ZeroDivisionError("singular matrix")
        den = self.den
        return PadicMatrix.from_ints(
            [[e * den for e in row] for row in small_adjugate(self.num)], d
        )

    def is_integral(self, p: int) -> bool:
        # in lowest terms, some entry carries the full p-part of den
        return self.den % p != 0

    def in_K(self, p: int) -> bool:
        return self.is_integral(p) and small_det(self.num) % p != 0

    def __repr__(self):
        body = "; ".join(",".join(str(e) for e in row) for row in self.rows)
        return f"[{body}]"


def iwasawa_NAK(g: PadicMatrix, p: int):
    """Exact decomposition g = n * a * k, a = diag(p^{v_i}), k in GL_n(Z_p).

    Column reduction over Z_p, in place on integers: in each row (bottom
    up) the entry of least valuation among the still-free columns is moved
    to the diagonal, the other entries are cleared by integral column
    operations (column j -= (w_ij / w_ii) column i) and the column is
    scaled by the inverse unit of the pivot; k takes the inverse row
    operations.  Throughout, work = w / dw and k = kk / dk with
    work * k = g, and multiplying through by the pivot's unit numerator u
    keeps all entries integral.  Returns (n, vals, k).
    """
    if not small_det(g.num):
        raise ValueError("matrix is singular")
    nn = g.n
    w = [list(r) for r in g.num]
    dw = g.den
    kk = [[int(i == j) for j in range(nn)] for i in range(nn)]
    dk = 1
    vden = vp_int(g.den, p)
    pden = p**vden
    vals = [0] * nn
    for i in range(nn - 1, -1, -1):
        row = w[i]
        vs = [vp_int(row[j], p) if row[j] else math.inf for j in range(i + 1)]
        vmin = min(vs)
        jstar = max(j for j in range(i + 1) if vs[j] == vmin)
        if jstar != i:
            for r in w:
                r[i], r[jstar] = r[jstar], r[i]
            kk[i], kk[jstar] = kk[jstar], kk[i]
        pv = p**vmin
        u = w[i][i] // pv
        coef = [w[i][j] // pv for j in range(i)]  # w_ij / w_ii = coef_j / u
        du = dw // pden  # unit part of dw; the pivot's unit part is u / du
        for r in w:
            ci = r[i]
            for j in range(i):
                r[j] = u * r[j] - coef[j] * ci
            r[i] = du * ci
            for j in range(i + 1, nn):
                r[j] *= u
        dw *= u
        new_i = [u * x for x in kk[i]]
        for j in range(i):
            new_i = [x + coef[j] * y for x, y in zip(new_i, kk[j])]
        kk = [new_i if r == i else [x * du for x in kk[r]] for r in range(nn)]
        dk *= du
        vals[i] = vmin - vden
    vals = tuple(vals)
    # n = work * a^{-1}: column j of w / dw divided by p^{vals[j]}
    e = max(0, *vals)
    n_mat = PadicMatrix.from_ints(
        [[x * p ** (e - v) for x, v in zip(row, vals)] for row in w], dw * p**e
    )
    return n_mat, vals, PadicMatrix.from_ints(kk, dk)


# -- measures -------------------------------------------------------------


def ng_cell_volume(q: int, n: int, m: int, v) -> Fraction:
    """Volume of the N\\G cell indexed by (p^v, kbar) at level m.

    dg-bar assigns q^{sum_{i<j}(v_i - v_j)} * q^{-(m-1) n(n+1)/2} to each
    cell of {p^v kbar : kbar in (N cap K)\\K/K^m}.
    """
    shift = sum(v[i] - v[j] for i in range(n) for j in range(i + 1, n))
    base = Fraction(q) ** shift
    return base * Fraction(1, q ** ((m - 1) * n * (n + 1) // 2))


# -- coset cell enumerations ----------------------------------------------


def unimodular_rows(p: int, n: int, m: int):
    """Rows in (Z/p^m)^n with at least one unit entry."""
    mod = p**m
    out = []
    for r in itertools.product(range(mod), repeat=n):
        if any(x % p for x in r):
            out.append(r)
    return out


def pk_cell_reps(p: int, n: int, m: int):
    """Representatives of (P cap K)\\K/K^m: one per unimodular bottom row.

    Returns (row, matrix) pairs; the matrix completes the row with standard
    basis rows, giving det = +- (unit entry).
    """
    out = []
    for r in unimodular_rows(p, n, m):
        j = next(i for i in range(n) if r[i] % p)
        rows = [[1 if k == i else 0 for k in range(n)] for i in range(n) if i != j]
        rows.append(list(r))
        out.append((r, PadicMatrix(rows)))
    return out


def nk_cell_count(p: int, m: int) -> int:
    """len(nk_cell_reps(p, m)), without building the representatives."""
    units = p**m - p ** (m - 1)
    return units * units * (p ** (m - 1) + p**m)


@functools.cache
def nk_cell_reps(p: int, m: int) -> tuple:
    """Representatives of (N cap K)\\K/K^m for GL_2, the rows
    matgroups.n_cell_rows(p, m) in that order, built once per (p, m).

    The cache holds nk_cell_count(p, m) matrices per (p, m), which
    cli.ORACLE_POINT_LIMIT bounds for every oracle run.
    """
    return tuple(PadicMatrix.from_ints(rows) for rows in n_cell_rows(p, m))


def ng_shell(p: int, m: int, v):
    """The N\\G cells diag(p^v_1, p^v_2) * kbar of one valuation vector
    v = (v_1, v_2), one per kbar in nk_cell_reps(p, m), in that order, built
    one at a time.

    Every kbar is integral with denominator 1, so each point is the integer
    rows of kbar scaled by p^(v_i + e) over p^e, e = max(0, -v_1, -v_2),
    reduced once.
    """
    v1, v2 = v
    e = max(0, -v1, -v2)
    s1, s2, den = p ** (v1 + e), p ** (v2 + e), p**e
    return (PadicMatrix.from_ints([[x * s1 for x in r1], [x * s2 for x in r2]], den)
            for r1, r2 in (kbar.num for kbar in nk_cell_reps(p, m)))
