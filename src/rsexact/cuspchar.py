"""Cuspidal characters of GL_n(F_q) and their Bessel functions.

A regular character Theta of F_{q^n}^x determines an irreducible cuspidal
character chi_Theta; its values depend only on the eigenvalue pattern of the
argument, so evaluation goes through classify_conjugacy.  The Bessel
function attached to (chi, psi) is the psi-average of chi over the upper
unitriangular subgroup N; it is the finite-level Whittaker kernel.  As chi
is a class function, J(u_1 g u_2) = psi(u_1) psi(u_2) J(g) for u_1, u_2 in
N, so the |N|-sum runs once per monomial matrix m and every other value is
psi(x) J(m), read off the Bruhat decomposition g = u_1 m u_2.

The same law turns the mirabolic reproducing identity
sum_{m in N\\M} J(g_1 m^-1) J(m g_2) = J(g_1 g_2) into a question about
cells.  Write (m_1, x_1) for the Bruhat coordinates of g_1 m^-1, (m_2, x_2)
for those of m g_2 (both depend on m) and (m_3, x_3) for those of g_1 g_2.
The identity reads sum_m psi(x_1 + x_2) J(m_1) J(m_2) = psi(x_3) J(m_3).
psi(-x_3) is a unit, so it holds exactly when
sum_m psi(x_1 + x_2 - x_3) J(m_1) J(m_2) = J(m_3).  Addition commutes, so
this depends only on the multiset of terms (m_1, m_2, x_1 + x_2 - x_3) and
on m_3.  Pairs with the same key have the same verdict, and
bessel_convolution_holds sums one pair per key: 104 sums for the 2 304
pairs of GL_2(F_3).

Elements of GL_n(F_q) are int rows with entries in [0, q), the
convention of matgroups, with q the prime order of the base field.

Correctness of the value tables is certified in the test-suite, by
tests/reference.py::character_invariants, through structural invariants
(irreducibility, vanishing of all Borel-induction pairings, unipotent-sum
vanishing, degree, central character) rather than by the formulas
themselves; at q = 2 the GL_2 character is also pinned against the sign
character of S_3.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache

from .cyclo import CYC
from .errors import NotRegular
from .finitefield import AddChar, MultChar, gf
from .matgroups import (
    bruhat_cell,
    classify_conjugacy,
    enumerate_unitriangular,
    mat_mul,
    mirabolic_reps,
)


class CuspidalCharacter:
    """chi_Theta on GL_n(F_q), for Theta regular on F_{q^n}."""

    __slots__ = ("theta", "n", "base_field", "big_field")

    def __init__(self, theta: MultChar):
        d = theta.field.degree
        if d not in (2, 3):
            raise ValueError("only GL_2 and GL_3 are supported")
        if not theta.is_regular():
            raise NotRegular(
                f"t={theta.t} is fixed by a power of Frobenius on F_{theta.field.order}"
            )
        self.theta = theta
        self.n = d
        self.big_field = theta.field
        self.base_field = gf(theta.field.p, 1)

    @property
    def q(self) -> int:
        return self.base_field.order

    def value(self, g, scal=CYC):
        """chi(g) for g the int rows of an element of GL_n(F_q)."""
        q = self.q
        kind, data = classify_conjugacy(g, q)
        if self.n == 2:
            if kind == "central":
                return scal.from_fraction(q - 1) * self.central_value(data, scal)
            if kind == "unipotent":
                return -self.central_value(data, scal)
            if kind == "split":
                return scal.zero()
            return -scal.sum(self.theta.value(x, scal) for x in data)
        if kind == "central":
            c = (q - 1) * (q * q - 1)
            return scal.from_fraction(c) * self.central_value(data, scal)
        if kind == "u21":
            return -(scal.from_fraction(q - 1) * self.central_value(data, scal))
        if kind == "u3":
            return self.central_value(data, scal)
        if kind == "elliptic":
            return scal.sum(self.theta.value(x, scal) for x in data)
        return scal.zero()

    def dual(self) -> "CuspidalCharacter":
        return CuspidalCharacter(self.theta.inverse())

    def central_value(self, z: int, scal=CYC):
        """The central character omega(z) = Theta(z) for z in F_q^x, an int
        mod q."""
        return self.theta.value(self.big_field.constant(z), scal)

    def __repr__(self):
        return f"<CuspidalCharacter n={self.n} q={self.q} t={self.theta.t}>"


def psi_of_unipotent(psi: AddChar, u, scal=CYC):
    """psi applied to the sum of the superdiagonal entries of u, given by its
    int rows."""
    return psi.value(sum(u[i][i + 1] for i in range(len(u) - 1)), scal)


class BesselFunction:
    """J(g) = |N|^{-1} sum_u psi(u)^{-1} chi(g u), the finite Whittaker kernel,
    with values in the scalar context `scal`.

    For g = u_1 m u_2 with m monomial (matgroups.bruhat_cell), J(g) is
    psi(x) J(m), x the psi-argument of u_1 u_2, so the sum itself runs once
    per monomial m.  This is the direct sum rearranged, not only its value:
    u -> u_2 u u_1 permutes N and g u is conjugate to m u_2 u u_1, so the
    terms of J(g) are psi(x) times the terms of J(m).  psi(x) has modulus
    p, which every term already carries, so each value has the raw modulus
    the direct sum would give it, and at x = 0 the value is J(m) itself.

    The pairs (u, psi(u)^{-1}) and the scalar 1/|N| are built once.  Each
    g's coordinates (m, x) are memoized by its int rows (coordinates), one
    shared pair per (m, x), and each cell m keeps its values psi(x) J(m) by
    x, so every g with the same (m, x) shares one value.
    """

    __slots__ = ("chi", "psi", "scal", "_memo", "_coords", "_cells", "_terms",
                 "_inv_order")

    def __init__(self, chi: CuspidalCharacter, psi: AddChar, scal=CYC):
        if psi.field is not chi.base_field:
            raise ValueError("psi must live on the base field F_q")
        if psi.is_trivial():
            raise ValueError("psi must be nontrivial")
        self.chi = chi
        self.psi = psi
        self.scal = scal
        self._memo = {}
        self._coords = {}
        self._cells = {}
        psi_inv = psi.inverse()
        self._terms = [(u, psi_of_unipotent(psi_inv, u, scal))
                       for u in enumerate_unitriangular(chi.q, chi.n)]
        self._inv_order = scal.from_fraction(Fraction(1, len(self._terms)))

    @property
    def field(self):
        return self.chi.base_field

    @property
    def n(self):
        return self.chi.n

    def value(self, g):
        """J(g) for g the int rows of an element of GL_n(F_q)."""
        return self.cell_value(*self.coordinates(g))

    def coordinates(self, rows):
        """The Bruhat coordinates (m, x) of the matrix with int rows `rows`
        (matgroups.bruhat_cell), computed once per rows; every rows with the
        same (m, x) keeps the same pair."""
        out = self._memo.get(rows)
        if out is None:
            out = bruhat_cell(rows, self.field.p)
            out = self._memo[rows] = self._coords.setdefault(out, out)
        return out

    def cell_value(self, m, x: int):
        """psi(x) J(m), the value at every g with Bruhat coordinates (m, x):
        m the int rows of a monomial matrix, x in [0, p)."""
        cell = self._cells.get(m)
        if cell is None:
            j_m = self._cell_sum(m)
            cell = self._cells[m] = [j_m] + [None] * (self.field.p - 1)
        out = cell[x]
        if out is None:
            out = cell[x] = self.psi.value(x, self.scal) * cell[0]
        return out

    def _cell_sum(self, m):
        """J(m) by its definition, the |N|-sum."""
        scal, p = self.scal, self.field.p
        return self._inv_order * scal.sum(psi_inv_u * self.chi.value(mat_mul(m, u, p), scal)
                                          for u, psi_inv_u in self._terms)

    def __repr__(self):
        return f"<BesselFunction {self.chi!r}>"


def bessel_convolution_holds(J: BesselFunction, pairs) -> bool:
    """Does the mirabolic convolution of J with itself reproduce J at g1 g2
    for every pair (g1, g2)?

    The verdict is that of checking sum_m J(g1 m^-1) J(m g2) == J(g1 g2) pair
    by pair, m over mirabolic_reps: the representatives of N\\M, that is
    N_{n-1}\\GL_{n-1} in the top-left block, diag(a, 1) for n = 2 and the
    N\\GL_2 cells of matgroups.n_cell_rows for n = 3.  Each Bruhat class of
    pairs is summed once (module docstring): the key of a pair is the
    multiset of terms (m1, m2, x1 + x2 - x3) with the cell m3 of g1 g2, and
    only the first pair of each key is summed, as sum psi(s) J(m1) J(m2)
    against J(m3).  The cells of g1 m^-1 and m g2 are listed once per distinct
    g1 and g2, each from J.coordinates, J's one memo of them, and the check
    stops at the first key that fails.  Every value is J.cell_value, the
    lookup J.value makes, so the key cannot drift from the table.  The
    lists live for one call; the products psi(s) J(m1) * J(m2) are not
    kept, because few recur across keys once the pairs are sampled.
    """
    p = J.field.p
    reps = mirabolic_reps(p, J.n)

    @cache
    def left(g1):
        return [J.coordinates(mat_mul(g1, m_inv, p)) for _, m_inv in reps]

    @cache
    def right(g2):
        return [J.coordinates(mat_mul(m, g2, p)) for m, _ in reps]

    checked = set()
    for g1, g2 in pairs:
        m3, x3 = J.coordinates(mat_mul(g1, g2, p))
        terms = tuple(sorted((m1, m2, (x1 + x2 - x3) % p)
                             for (m1, x1), (m2, x2) in zip(left(g1), right(g2))))
        if (terms, m3) in checked:
            continue
        checked.add((terms, m3))
        total = J.scal.sum(J.cell_value(m1, s) * J.cell_value(m2, 0) for m1, m2, s in terms)
        if not total == J.cell_value(m3, 0):
            return False
    return True
