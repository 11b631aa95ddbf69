"""Cuspidal characters of GL_n(F_q) and their Bessel functions.

A regular character Theta of F_{q^n}^x determines an irreducible cuspidal
character chi_Theta; its values depend only on the eigenvalue pattern of the
argument, so evaluation goes through classify_conjugacy.  The Bessel
function attached to (chi, psi) is the psi-average of chi over the upper
unitriangular subgroup N; it is the finite-level Whittaker kernel.  As chi
is a class function, J(u_1 g u_2) = psi(u_1) psi(u_2) J(g) for u_1, u_2 in
N, so the |N|-sum runs once per monomial matrix m and every other value is
psi(x) J(m), read off the Bruhat decomposition g = u_1 m u_2.

Correctness of the value tables is certified in the test-suite by structural
invariants (irreducibility, vanishing of all Borel-induction pairings,
unipotent-sum vanishing, degree, central character) rather than by the
formulas themselves; at q = 2 the GL_2 character is also pinned against the
sign character of S_3.
"""

from __future__ import annotations

from fractions import Fraction

from .cyclo import CYC
from .errors import NotRegular
from .finitefield import AddChar, MultChar, gf
from .matgroups import (
    FiniteMatrix,
    bruhat_cell,
    classify_conjugacy,
    enumerate_group,
    enumerate_unitriangular,
    mirabolic_reps,
    n_right_coset_canonical,
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

    def degree_value(self) -> int:
        out = 1
        for i in range(1, self.n):
            out *= self.q**i - 1
        return out

    def value(self, g: FiniteMatrix, scal=CYC):
        kind, data = classify_conjugacy(g)
        q = self.q
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

    __call__ = value

    def dual(self) -> "CuspidalCharacter":
        return CuspidalCharacter(self.theta.inverse())

    def central_value(self, z: int, scal=CYC):
        """The central character omega(z) = Theta(z) for z in F_q^x, an int
        mod q."""
        return self.theta.value(self.big_field.constant(z), scal)

    def __repr__(self):
        return f"<CuspidalCharacter n={self.n} q={self.q} t={self.theta.t}>"


def cuspidal_character(theta: MultChar) -> CuspidalCharacter:
    return CuspidalCharacter(theta)


def psi_of_unipotent(psi: AddChar, u: FiniteMatrix, scal=CYC):
    """psi applied to the sum of the superdiagonal entries of u."""
    return psi.value(sum(u.ints[i][i + 1] for i in range(u.n - 1)), scal)


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
    cell m keeps its values psi(x) J(m) by x, so every g with the same
    (m, x) shares one value, and each value is memoized by the int rows of
    g.
    """

    __slots__ = ("chi", "psi", "scal", "_memo", "_cells", "_terms", "_inv_order")

    def __init__(self, chi: CuspidalCharacter, psi: AddChar, scal=CYC):
        if psi.field is not chi.base_field:
            raise ValueError("psi must live on the base field F_q")
        if psi.is_trivial():
            raise ValueError("psi must be nontrivial")
        self.chi = chi
        self.psi = psi
        self.scal = scal
        self._memo = {}
        self._cells = {}
        psi_inv = psi.inverse()
        self._terms = [(u, psi_of_unipotent(psi_inv, u, scal))
                       for u in enumerate_unitriangular(chi.base_field, chi.n)]
        self._inv_order = scal.from_fraction(Fraction(1, len(self._terms)))

    @property
    def field(self):
        return self.chi.base_field

    @property
    def n(self):
        return self.chi.n

    def value(self, g: FiniteMatrix):
        cached = self._memo.get(g.ints)
        if cached is not None:
            return cached
        p = self.field.p
        m, x = bruhat_cell(g.ints, p)
        cell = self._cells.get(m)
        if cell is None:
            j_m = self._cell_sum(FiniteMatrix._of(self.field, m))
            cell = self._cells[m] = [j_m] + [None] * (p - 1)
        out = cell[x]
        if out is None:
            out = cell[x] = self.psi.value(x, self.scal) * cell[0]
        self._memo[g.ints] = out
        return out

    def _cell_sum(self, m: FiniteMatrix):
        """J(m) by its definition, the |N|-sum."""
        scal = self.scal
        return self._inv_order * scal.sum(psi_inv_u * self.chi.value(m * u, scal)
                                          for u, psi_inv_u in self._terms)

    __call__ = value

    def __repr__(self):
        return f"<BesselFunction {self.chi!r}>"


def finite_bessel(chi: CuspidalCharacter, psi: AddChar) -> BesselFunction:
    return BesselFunction(chi, psi)


def mirabolic_convolution(b1: BesselFunction, b2: BesselFunction, g1, g2):
    """sum over N\\M of J1(g1 m^{-1}) J2(m g2), M the mirabolic subgroup."""
    return b1.scal.sum(b1.value(g1 * m_inv) * b2.value(m * g2)
                       for m, m_inv in mirabolic_reps(b1.field, b1.n))


def character_invariants(chi: CuspidalCharacter) -> dict:
    """Exhaustive structural certification of the character table.

    Builds the full value table over GL_n(F_q) once and checks:

    - ``norm_one``: the self inner product is 1, i.e. chi is (plus or minus)
      an irreducible character; combined with positive degree it is a genuine
      irreducible;
    - ``degree``: chi(1) = prod_{i<n} (q^i - 1);
    - ``sum_zero``: chi is orthogonal to the trivial character;
    - ``central_character``: chi(z g) = Theta(z) chi(g) for every central z
      and every g;
    - ``cuspidal_vanishing``: sum of chi over every right coset g N is zero,
      which is exactly the vanishing of the N-coinvariants (cuspidality).

    The GL_3 value table is accepted purely on the strength of this suite.
    """
    F = chi.base_field
    n = chi.n
    G = enumerate_group(F, n)
    val = {g: chi.value(g) for g in G}
    eye = FiniteMatrix.identity(F, n)

    norm_one = CYC.sum(val[g] * val[g.inverse()] for g in G) == len(G)
    degree_ok = val[eye] == chi.degree_value()
    sum_zero = CYC.sum(val.values()).is_zero()

    central_ok = True
    for z in range(1, chi.q):
        tz = chi.central_value(z)
        for g in G:
            if not val[g * z] == tz * val[g]:
                central_ok = False
                break
        if not central_ok:
            break

    cosets: dict = {}
    for g in G:
        cosets.setdefault(n_right_coset_canonical(g), []).append(val[g])
    n_size = len(enumerate_unitriangular(F, n))
    cuspidal = len(cosets) == len(G) // n_size and all(
        CYC.sum(values).is_zero() for values in cosets.values()
    )

    return {
        "norm_one": norm_one,
        "degree": degree_ok,
        "sum_zero": sum_zero,
        "central_character": central_ok,
        "cuspidal_vanishing": cuspidal,
    }


def bessel_convolution_check(b1: BesselFunction, b2, g1, g2) -> bool:
    """Does the mirabolic convolution of J1 and J2 reproduce J1 at g1 g2?

    Used with b2 the Bessel function of the same character; the identity is
    the finite-level analogue of the Whittaker-coefficient reproducing
    formula.
    """
    return mirabolic_convolution(b1, b2, g1, g2) == b1.value(g1 * g2)
