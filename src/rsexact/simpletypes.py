"""Cuspidal type data for GL_n(Q_p) and the explicit Whittaker test vectors.

Two families are implemented:

* depth zero (e = 1, n in {2, 3}): the inducing datum is a regular character
  of F_{q^n}^x; the compact piece is J = GL_n(Z_p), the extended group is
  generated by p * Id over J, and the kernel on J is the finite Bessel
  function of the associated cuspidal character.

* minimally ramified GL_2 (e = 2, p odd): the hereditary order A consists of
  integral matrices with upper-right entry divisible by p, with radical P_A
  and uniformizer w_E = [[0, p], [1, 0]] (w_E^2 = p).  J = o_E^x (1 + P_A)
  is the subgroup of A^x whose diagonal entries agree mod p; the character
  lambda on J is sigma-bar on the residue torus times
  theta(s * tr(w_E^{-1} y)) on 1 + P_A, where the orientation s = +-1 decides
  whether lambda matches psi_t or its inverse on N cap J^1.

Every test vector is supported on N * <w_E> * J and evaluated by the exact
support decomposition g = n * w_E^i * j_0.

psi_t and the kernel factor through finite quotients, so a test vector is
evaluated on residue classes: psi_t(n) through the class of its theta
argument (psi_t_class), the kernel through kernel_class(j_0), which depends
on j_0 alone.  Every class is a pair: (modulus, k) for a theta argument,
where an argument that is exactly 0 shares the class (p, 0) of the
arguments in pZ_p, and (r, k) for the ramified kernel.  Each
WhittakerFunction keeps its kernel values per class in its own scalar
context, and RSPair tabulates W_1 * W_2 per class of (i, n, j_0), where at
depth zero the class of j_0 is the monomial of its Bruhat cell mod p.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .cuspchar import BesselFunction, CuspidalCharacter
from .cyclo import CYC, CycNumber
from .errors import EvenResidualCharacteristic, FamilyMismatch, NondegeneracyFailure
from .finitefield import AddChar, MultChar, gf
from .padic import PadicMatrix, iwasawa_NAK, theta_at, theta_class, vp_int
from .ratfun import EulerFactor, Laurent

DEPTH_ZERO = "depth-zero"
RAMIFIED = "ramified"
# the ramification index e of E/Q_p; it is also the congruence level m of
# the cells (P cap K)\K/K^m each family's engine and oracle run over
RAMIFICATION_INDEX = {DEPTH_ZERO: 1, RAMIFIED: 2}


@dataclass(frozen=True)
class SimpleTypeData:
    """The inducing datum of one cuspidal type; build through make_type.

    Everything else follows from the family.  __post_init__ derives
      e            the ramification index of E/Q_p;
      cap          the deepest additive-character level, values lie in
                   Q(zeta_{p^cap});
      level        the congruence level of the cell decompositions;
      t_exponents  the powers p^{t_i} twisting psi_t, read off the lattice
                   chain normalized by a_n(0) = 0, a_n(-1) = -1: L_0 = Z_p^n
                   for depth zero, offsets a_1 = (-1, 0), a_2 = (0, 0) in the
                   defining basis of the ramified chain.
    """

    family: str
    p: int
    n: int
    A: CycNumber
    theta: MultChar | None = None
    sigma: MultChar | None = None
    orientation: int | None = None

    def __post_init__(self):
        # Set once here rather than through cached_property: writing the
        # instance __dict__ slows every later attribute read of the type on
        # CPython 3.11, by about 1 % of a ramified verify.
        e = RAMIFICATION_INDEX[self.family]
        derived = {"e": e, "cap": e, "level": e,
                   "t_exponents": (0,) * self.n if e == 1 else (-1, 0)}
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    def uniformizer(self) -> PadicMatrix:
        """The chain uniformizer w_E in the working basis, where L_0 = Z_p^n:
        p * Id for depth zero, [[0, p], [1, 0]] (square p * Id) for ramified."""
        p = self.p
        if self.family == DEPTH_ZERO:
            return PadicMatrix.diagonal([p] * self.n)
        return PadicMatrix.from_ints([[0, p], [1, 0]])

    def support_shell(self, k: int) -> tuple | None:
        """The valuation vector v of the one N\\G shell N p^v K of
        determinant valuation k that meets the support N <w_E> J, or None
        when no shell of that determinant does.

        Iwasawa: G is the disjoint union of the N p^v K over v in Z^n, with
        v unique for each g.  J lies in K, so n w_E^i j_0 lies in the shell
        of w_E^i, and det w_E^i has valuation i n/e, so k fixes i.  Depth
        zero: w_E^i = p^i Id is the shell (k/n,)*n when n | k, and no shell
        otherwise.  Ramified: w_E^{2j} = p^j Id and
        w_E^{2j+1} = p^j diag(p, 1) [[0, 1], [1, 0]], with the antidiagonal
        in K, so the shell is (ceil(k/2), floor(k/2)) for every k.
        """
        if self.family == DEPTH_ZERO:
            i, r = divmod(k, self.n)
            return None if r else (i,) * self.n
        return (k - k // 2, k // 2)

    @cached_property
    def chi(self) -> CuspidalCharacter:
        """The cuspidal character chi_theta (depth zero)."""
        return CuspidalCharacter(self.theta)

    @property
    def q(self) -> int:
        return self.p

    @property
    def n_over_e(self) -> int:
        return self.n // self.e

    @property
    def vol_J1(self) -> Fraction:
        """Volume of J^1 in the normalization vol(K^1) = 1."""
        return Fraction(self.q) if self.family == RAMIFIED else Fraction(1)

    # -- membership ------------------------------------------------------

    def in_order_units(self, g: PadicMatrix) -> bool:
        """g in A^x (for the ramified order) or GL_n(Z_p) (depth zero)."""
        p = self.p
        if self.family == DEPTH_ZERO:
            return g.in_K(p)
        # integral with a unit denominator, so residues are read off g.num
        return g.in_K(p) and g.num[0][1] % p == 0

    def in_J(self, g: PadicMatrix) -> bool:
        if self.family == DEPTH_ZERO:
            return g.in_K(self.p)
        if not self.in_order_units(g):
            return False
        return (g.num[0][0] - g.num[1][1]) % self.p == 0

    # -- characters ------------------------------------------------------

    def kernel_class(self, j0: PadicMatrix):
        """The residue class of j0 in J that the kernel factors through; it
        depends on j0 alone, so a type and its dual share it.

        Depth zero: j0 mod p, as int rows.  Ramified: (r, k) with
        r = a / den mod p and k = (p * c + b) / (p * a) mod p, the residue of
        lambda's theta argument up to the orientation.  On J, p | b.
        """
        p = self.p
        inv = pow(j0.den, -1, p)
        if self.family == DEPTH_ZERO:
            return tuple(tuple(e * inv % p for e in row) for row in j0.num)
        (a, b), (c, _) = j0.num
        t = p * c + b
        return a * inv % p, t // p * pow(a, -1, p) % p

    def lam_on_class(self, cls, scal=CYC):
        """lambda on the kernel class (r, k): sigma-bar(r) * zeta_p^(s * k),
        s the orientation.

        On J, j = z (1 + y) with z the Teichmueller lift of r, and the
        argument s * tr(w_E^{-1} y) of theta is s * k mod p.
        """
        r, k = cls
        value = self.sigma.value(gf(self.p).constant(r), scal)
        return value * theta_at((self.p, k), scal, self.orientation)

    def central_unit_value(self, u: int, scal=CYC):
        """Central character at an integer unit u."""
        r = u % self.p
        if self.family == DEPTH_ZERO:
            return self.chi.central_value(r, scal)
        return self.sigma.value(gf(self.p).constant(r), scal)

    # -- canonical dual parameters --------------------------------------

    def dual_params(self) -> dict:
        if self.family == DEPTH_ZERO:
            mod = self.q**self.n - 1
            return {
                "family": DEPTH_ZERO,
                "p": self.p,
                "n": self.n,
                "theta": (-self.theta.t) % mod,
                "A": self.A.inverse(),
            }
        return {
            "family": RAMIFIED,
            "p": self.p,
            "sigma": (-self.sigma.t) % (self.p - 1),
            "orientation": -self.orientation,
            "A": self.A.inverse(),
        }


def _coerce_A(A) -> CycNumber:
    if A is None:
        return CycNumber.one()
    if isinstance(A, CycNumber):
        a = A
    else:
        a = CycNumber.from_fraction(Fraction(A))
    if a.is_zero():
        raise ValueError("A must be nonzero")
    return a


def make_type(family: str, p: int, *, n: int = 2, theta: int | None = None,
              A=None, sigma: int | None = None, orientation: int = 1) -> SimpleTypeData:
    """Construct and self-check the data of one cuspidal type.

    depth-zero: `theta` indexes a character of F_{p^n}^x (must be regular,
    else NotRegular).  ramified: `sigma` indexes a character of F_p^x and
    `orientation` in {+1, -1} fixes which of psi_t, psi_t^{-1} the character
    lambda matches on N cap J^1; p must be odd.
    """
    A = _coerce_A(A)
    if family == DEPTH_ZERO:
        if n not in (2, 3):
            raise ValueError("depth-zero types support n in {2, 3}")
        if theta is None:
            raise ValueError("depth-zero types need a theta index")
        data = SimpleTypeData(family, p, n, A, theta=MultChar(gf(p, n), theta))
        data.chi  # raises NotRegular for bad theta
        return data
    if family == RAMIFIED:
        if p == 2:
            raise EvenResidualCharacteristic("the ramified family needs p odd")
        if sigma is None:
            raise ValueError("ramified types need a sigma index")
        if orientation not in (1, -1):
            raise NondegeneracyFailure(
                "orientation must be +1 (psi_t side) or -1 (psi_t inverse side)"
            )
        return SimpleTypeData(family, p, 2, A, sigma=MultChar(gf(p), sigma),
                              orientation=orientation)
    raise ValueError(f"unknown family {family!r}")


# -- the standard whittaker character of N -------------------------------


def psi_t_class(data: SimpleTypeData, n_mat: PadicMatrix):
    """The theta class (padic.theta_class) of the psi_t argument
    sum_i p^{t_i - t_{i+1}} n_{i,i+1}, read off the integers of n."""
    p, t, num = data.p, data.t_exponents, n_mat.num
    shifts = [t[i] - t[i + 1] for i in range(data.n - 1)]
    low = min(0, *shifts)
    arg = sum(p ** (s - low) * num[i][i + 1] for i, s in enumerate(shifts))
    return theta_class(p, arg, n_mat.den * p**-low, data.cap)


# -- support decomposition -----------------------------------------------


def support_decompose(data: SimpleTypeData, g: PadicMatrix):
    """Write g = n * w_E^i * j_0 with j_0 in J, or return None off the support.

    Exact in both families; returns (i, n, j_0).
    """
    p = data.p
    if data.family == DEPTH_ZERO:
        if g.in_K(p):
            return 0, PadicMatrix.identity(data.n), g
        n_mat, vals, k = iwasawa_NAK(g, p)
        if any(v != vals[0] for v in vals):
            return None
        return vals[0], n_mat, k
    # ramified family: i is the valuation of det g since det w_E = -p.
    # Write g = [[a, b], [c, d]] / den and s, r = divmod(val(ad - bc), 2).
    # Then g' = g / p^{floor(i / 2)} = [[a, b], [c, d]] / e with e = u * p^s,
    # u the unit part of den, so every valuation and residue of g' below is
    # read off the integers.
    (a, b), (c, d) = g.num
    det = a * d - b * c
    if not det:
        return None
    vdet = vp_int(det, p)
    vden = vp_int(g.den, p)
    s, r = divmod(vdet, 2)
    ps = p**s
    e = g.den // p**vden * ps
    if r == 0:
        # g'_21 integral, g'_22 a unit, det g' = g'_22^2 mod p
        if c % ps or not d or d % ps or not d % (ps * p):
            return None
        if (det - d * d) % (ps * ps * p):
            return None
        # x = b / d and j_0 = n(-x) g' = [[det / d, 0], [c, d]] / e
        x_num, x_den = b, d
        j0 = PadicMatrix.from_ints([[det, 0], [c * d, d * d]], d * e)
    else:
        # g'_21 a unit, g'_22 in p, det g' / p = -g'_21^2 mod p
        if not c or c % ps or not c % (ps * p) or d % (ps * p):
            return None
        if (det + p * c * c) % (ps * ps * p * p):
            return None
        # x = a / c and j_0 = w_E^{-1} n(-x) g' = [[c, d], [0, -det / (p c)]] / e
        x_num, x_den = a, c
        j0 = PadicMatrix.from_ints([[p * c * c, p * c * d], [0, -det]], p * c * e)
    # j_0 lies in J, so it is not tested again: its denominator D = d e
    # (r = 0) or p c e (r = 1) has valuation 2s + r = v(det), as v(d) = s,
    # resp. v(c) = s.  For r = 0 the entries det/D and d^2/D are units and
    # c d/D = c/e is integral; for r = 1, p c^2/D = c/e and -det/D are units
    # and p c d/D = d/e lies in pZ_p.  So j_0 is integral with upper-right
    # entry in p and a unit determinant, and its diagonal difference
    # (det - d^2)/D, resp. (p c^2 + det)/D, lies in pZ_p by the last residue
    # test: j_0 is in A^x with equal diagonal residues, which is J.
    # tests/test_simpletypes.py checks in_J on every decomposition returned.
    n_mat = PadicMatrix.from_ints([[x_den, x_num], [0, x_den]], x_den)
    return vdet - 2 * vden, n_mat, j0


# -- test vectors --------------------------------------------------------


class WhittakerFunction:
    """Explicit test vector in the psi_t (or psi_t^{-1}) Whittaker model.

    W(n * w_E^i * j_0) = psi_t(n)^{+-1} * A_eff^i * K(j_0) on the support
    N <w_E> J and 0 elsewhere.  `dual=True` selects the psi_t^{-1} model
    (finite kernel against the inverse additive character; ramified
    orientation must be -1).  An unramified twist by chi with chi(p) = c
    multiplies A by c^{n/e}.

    The kernel K is read off the kernel class of j_0 (kernel_class) and
    kept per class in this test vector's scalar context: the finite Bessel
    function's memo at depth zero, a dict of lambda values when ramified.
    """

    def __init__(self, data: SimpleTypeData, *, dual: bool = False,
                 twist=None, scal=CYC):
        self.data = data
        self.dual = dual
        self.scal = scal
        if data.family == RAMIFIED:
            want = -1 if dual else 1
            if data.orientation != want:
                raise NondegeneracyFailure(
                    f"the {'psi_t inverse' if dual else 'psi_t'} model needs "
                    f"orientation {want:+d}, type has {data.orientation:+d}"
                )
            self._lam = {}
        else:
            psi = AddChar(gf(data.p), 1)
            self._bessel = BesselFunction(data.chi, psi.inverse() if dual else psi, scal)
        self.twist = None if twist is None else _coerce_A(twist)
        self.A_eff = data.A if self.twist is None else data.A * self.twist**data.n_over_e
        self._A_eff_s = self.scal.embed_cyc(self.A_eff)
        self._sign = -1 if dual else 1

    def kernel(self, cls):
        """K on the kernel class cls of J."""
        if self.data.family == DEPTH_ZERO:
            return self._bessel.value(cls)
        value = self._lam.get(cls)
        if value is None:
            value = self._lam[cls] = self.data.lam_on_class(cls, self.scal)
        return value

    def value(self, g: PadicMatrix):
        dec = support_decompose(self.data, g)
        if dec is None:
            return self.scal.zero()
        i, n_mat, j0 = dec
        return self.value_at(i, psi_t_class(self.data, n_mat), self.data.kernel_class(j0))

    def value_at(self, i: int, psi_cls, kernel_cls):
        """W at n * w_E^i * j_0, given the psi_t class of n and the kernel
        class of j_0."""
        psi = theta_at(psi_cls, self.scal, self._sign)
        return psi * self._A_eff_s**i * self.kernel(kernel_cls)


# -- dual pair detection and the Euler factor ----------------------------


def is_dual_pair(t1: SimpleTypeData, t2: SimpleTypeData) -> bool:
    """Whether the second type is an unramified twist of the dual of the first."""
    if t1.family != t2.family or t1.p != t2.p or t1.n != t2.n:
        raise FamilyMismatch(
            f"cannot compare {t1.family} GL_{t1.n}(Q_{t1.p}) test vectors with "
            f"{t2.family} GL_{t2.n}(Q_{t2.p})"
        )
    if t1.family == DEPTH_ZERO:
        return t2.theta.t in t1.theta.inverse().orbit()
    return (t1.sigma.t + t2.sigma.t) % (t1.p - 1) == 0 and t1.orientation == -t2.orientation


def l_factor(t1: SimpleTypeData, t2: SimpleTypeData, twist=None) -> EulerFactor:
    """Local Euler factor of the pair: 1/(1 - A_1 A_2_eff X^{n/e}) for a
    dual pair (up to unramified twist), and 1 otherwise."""
    if not is_dual_pair(t1, t2):
        return EulerFactor.one(CYC)
    a2 = t2.A if twist is None else t2.A * _coerce_A(twist) ** t2.n_over_e
    poly = Laurent(CYC, {0: CYC.one(), t1.n_over_e: CYC.zero() - t1.A * a2})
    return EulerFactor(poly)
