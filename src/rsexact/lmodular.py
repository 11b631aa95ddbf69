"""Mod-ell reduction of the main identity: the banal range and its checks.

For a prime ell different from p, reduction along a prime above ell in the
coefficient field makes sense once ell avoids the denominators (which are
p-powers) and is *banal*, i.e. does not divide (q - 1)(q^{n/e} - 1): then
the constant in the main identity stays a unit and the reduced integral
still equals a nonzero multiple of the reduced inverse Euler factor.

verify_corollary runs three independent checks:

  (a) integrality: every cell value and every coefficient of T and I has a
      pure p-power denominator, so reduction mod ell != p is defined;
  (b) cellwise agreement: reducing the characteristic-zero cell data equals
      a full rerun of the engine over the residue field (the same code path
      instantiated on different scalars - any scalar-protocol leak or
      characteristic-dependent shortcut would break this);
  (c) the Euler-factor identity: normalizing the reduced integral recovers
      the reduction of the characteristic-zero Euler factor, with a nonzero
      scalar in front.

Non-banal ell raises NonBanal (a refusal, not a failure); ell == p raises
EllEqualsP; composite ell raises ValueError.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from .cyclo import CycNumber, is_prime
from .errors import EllEqualsP, NonBanal, NotMonomialMultiple
from .integral import RSPair, integrate_over_K, rankin_selberg_I
from .padic import vp_int
from .ratfun import EulerFactor, Laurent, RationalFunction, euler_normalize
from .residue import ResidueScalars
from .simpletypes import RAMIFICATION_INDEX, SimpleTypeData, l_factor

# -- the banal range ------------------------------------------------------


def banal_bound(q: int, n: int, e: int) -> int:
    """(q - 1)(q^{n/e} - 1): ell is banal iff it does not divide this."""
    return (q - 1) * (q ** (n // e) - 1)


def is_banal(ell: int, q: int, n: int, e: int) -> bool:
    return banal_bound(q, n, e) % ell != 0


def require_banal(type1: SimpleTypeData, ell: int) -> None:
    """Gate keeping for reduction: ell prime, different from p, banal."""
    if not is_prime(ell):
        raise ValueError(f"ell={ell} is not prime")
    if ell == type1.p:
        raise EllEqualsP(
            f"reduction mod ell = p = {ell} is outside the scope of the "
            "construction"
        )
    if not is_banal(ell, type1.q, type1.n, type1.e):
        raise NonBanal(
            f"ell={ell} divides (q-1)(q^{{n/e}}-1) = "
            f"{banal_bound(type1.q, type1.n, type1.e)}; refusing to reduce"
        )


# -- conductors and elementwise reduction ---------------------------------


def conductor(family: str, p: int, n: int, *moduli: int) -> int:
    """Conductor of the cyclotomic field hosting every value the engine can
    produce for a pair of the family at p and n whose literals (A, A2,
    twist) have the given moduli: lcm(p^e, p^(n/e) - 1, moduli), from the
    additive-character depth p^e and the character modulus p^(n/e) - 1."""
    e = RAMIFICATION_INDEX[family]
    return lcm(p**e, p ** (n // e) - 1, *moduli)


def type_conductor(t: SimpleTypeData) -> int:
    """The conductor of the type's own values and its A."""
    return conductor(t.family, t.p, t.n, t.A.modulus)


def pair_conductor(type1: SimpleTypeData, type2: SimpleTypeData,
                   twist: CycNumber | None = None) -> int:
    N = lcm(type_conductor(type1), type_conductor(type2))
    if twist is not None:
        N = lcm(N, twist.modulus)
    return N


def p_power_denominators_ok(value: CycNumber, p: int) -> bool:
    """True when every coefficient denominator is a power of p, that is
    when the one common denominator is."""
    d = value.raw_numerators(value.modulus)[1]
    return d == p ** vp_int(d, p)


def reduce_laurent(poly: Laurent, res: ResidueScalars) -> Laurent:
    return Laurent(res, {k: res.embed_cyc(v) for k, v in poly.items()})


def reduce_rational(f: RationalFunction, res: ResidueScalars) -> RationalFunction:
    return RationalFunction(reduce_laurent(f.num, res), reduce_laurent(f.den, res))


def reduce_euler_factor(L: EulerFactor, res: ResidueScalars) -> EulerFactor:
    """Reduce an inverse Euler factor coefficientwise along the prime above
    ell that res has chosen."""
    return EulerFactor(reduce_laurent(L.poly, res))


# -- the corollary --------------------------------------------------------


@dataclass
class CorollaryReport:
    ell: int
    conductor: int
    factor_index: int
    applicable: bool
    checks: dict
    reduced_integral: RationalFunction
    reduced_factor: EulerFactor | None
    scalar: object | None

    @property
    def match(self) -> bool:
        return all(bool(v) for v in self.checks.values())

    def to_json(self) -> dict:
        out = {
            "ell": self.ell,
            "banal": True,
            "conductor": self.conductor,
            "factor_index": self.factor_index,
            "applicable": self.applicable,
            "checks": {k: bool(v) for k, v in self.checks.items()},
            "reduced_integral": str(self.reduced_integral),
            "reduced_factor": None if self.reduced_factor is None
            else str(self.reduced_factor),
            "scalar": None if self.scalar is None else str(self.scalar),
            "match": self.match,
        }
        return out


def verify_corollary(type1: SimpleTypeData, type2: SimpleTypeData, ell: int, *,
                     twist=None, factor_index: int = 0) -> CorollaryReport:
    """Check that reduction mod a banal ell commutes with the engine and
    identifies the reduced integral with the reduced Euler factor."""
    require_banal(type1, ell)
    cyc_pair = RSPair(type1, type2, twist=twist)
    T_cyc, log_cyc = integrate_over_K(cyc_pair)
    I_cyc = rankin_selberg_I(cyc_pair, T_cyc)

    # every value the engine produces lies in the conductor's field; a root
    # of unity outside it is refused by the residue field, not reduced
    N = pair_conductor(type1, type2, twist=cyc_pair.twist)
    res = ResidueScalars(ell, N, factor_index)

    # (a) integrality: p-power denominators everywhere
    p = type1.p
    integral_ok = all(
        p_power_denominators_ok(v, p)
        for rec in log_cyc
        for v in rec.slices.values()
    ) and all(
        p_power_denominators_ok(v, p)
        for _, v in list(T_cyc.items())
        + list(I_cyc.num.items())
        + list(I_cyc.den.items())
    )

    # (b) rerun the engine over the residue field and compare cellwise
    res_pair = RSPair(type1, type2, twist=twist, scal=res)
    T_res, log_res = integrate_over_K(res_pair)
    I_res = rankin_selberg_I(res_pair, T_res)
    cells_ok = len(log_cyc) == len(log_res)
    if cells_ok:
        for rc, rr in zip(log_cyc, log_res):
            if rc.row != rr.row:
                cells_ok = False
                break
            for k in rc.slices:
                if res.embed_cyc(rc.slices[k]) != rr.slices[k]:
                    cells_ok = False
        if reduce_laurent(T_cyc, res) != T_res:
            cells_ok = False
        if reduce_rational(I_cyc, res) != I_res:
            cells_ok = False

    if not cyc_pair.applicable:
        checks = {
            "integrality": integral_ok,
            "cellwise_match": cells_ok,
            "schur_vanishing": T_cyc.is_zero() and T_res.is_zero(),
        }
        return CorollaryReport(
            ell=ell, conductor=N, factor_index=factor_index, applicable=False,
            checks=checks, reduced_integral=I_res, reduced_factor=None,
            scalar=None,
        )

    # (c) Euler-factor identity with a nonzero scalar
    L_red = reduce_euler_factor(l_factor(type1, type2, twist=cyc_pair.twist), res)
    try:
        L_from_run, scalar, shift = euler_normalize(I_res)
        euler_ok = L_from_run == L_red and bool(scalar) and shift == 0
    except NotMonomialMultiple:
        L_from_run, scalar, euler_ok = None, None, False
    checks = {
        "integrality": integral_ok,
        "cellwise_match": cells_ok,
        "euler_factor": euler_ok,
    }
    return CorollaryReport(
        ell=ell, conductor=N, factor_index=factor_index, applicable=True,
        checks=checks, reduced_integral=I_res, reduced_factor=L_from_run,
        scalar=scalar,
    )
