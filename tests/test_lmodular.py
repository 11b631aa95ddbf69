"""Tests for the banal range and the mod-ell corollary machinery."""

from fractions import Fraction

import pytest

from rsexact.cyclo import CycNumber, CycScalars, cyc_embed_root
from rsexact.errors import EllEqualsP, NonBanal
from rsexact.integral import RSPair, integrate_over_K, rankin_selberg_I
from rsexact.lmodular import (
    banal_bound,
    is_banal,
    p_power_denominators_ok,
    pair_conductor,
    reduce_euler_factor,
    require_banal,
    type_conductor,
    verify_corollary,
)
from rsexact.ratfun import EulerFactor, Laurent
from rsexact.residue import ResidueScalars
from rsexact.simpletypes import DEPTH_ZERO, RAMIFIED, l_factor, make_type

CYC = CycScalars()


def dz(q, t):
    return make_type(DEPTH_ZERO, q, theta=t)


def ram(p, s, orient, A=None):
    return make_type(RAMIFIED, p, sigma=s, orientation=orient, A=A)


class TestBanalRange:
    def test_bounds(self):
        assert banal_bound(2, 2, 1) == 3
        assert banal_bound(3, 2, 1) == 16
        assert banal_bound(3, 2, 2) == 4
        assert banal_bound(5, 2, 2) == 16
        assert banal_bound(2, 3, 1) == 7

    def test_is_banal(self):
        assert is_banal(5, 2, 2, 1)
        assert not is_banal(3, 2, 2, 1)
        assert not is_banal(2, 3, 2, 1)
        assert not is_banal(7, 2, 3, 1)
        assert is_banal(5, 2, 3, 1)

    def test_refusals(self):
        t = dz(2, 1)
        with pytest.raises(NonBanal):
            require_banal(t, 3)
        with pytest.raises(EllEqualsP):
            require_banal(t, 2)
        with pytest.raises(ValueError):
            require_banal(t, 15)
        with pytest.raises(ValueError):
            require_banal(t, 1)
        require_banal(t, 5)  # banal: no exception

    def test_ramified_banal_range(self):
        t = ram(3, 1, 1)
        with pytest.raises(NonBanal):
            require_banal(t, 2)  # divides (q-1)(q-1) = 4
        with pytest.raises(EllEqualsP):
            require_banal(t, 3)
        require_banal(t, 5)
        require_banal(t, 7)


def _conductor_cases() -> dict:
    """(type1 params, type2 params or None for the dual of type1, twist):
    depth zero at q = 2, 3, 5, 7 with and without a zeta_4 twist, GL_3 at
    q = 2, 3, every ramified sigma at p = 3, 5 with its dual and with a
    non-dual partner, a non-dual depth-zero pair and a pair with a twisted A."""
    i4 = cyc_embed_root(4, 1)
    cases = {}
    for q in (2, 3, 5, 7):
        t1 = {"family": DEPTH_ZERO, "p": q, "theta": 1}
        cases[f"dz{q}"] = (t1, None, None)
        cases[f"dz{q}-twist"] = (t1, None, i4)
    for q in (2, 3):
        cases[f"gl3-q{q}"] = ({"family": DEPTH_ZERO, "p": q, "n": 3, "theta": 1}, None, None)
    for p in (3, 5):
        for s in range(p - 1):
            t1 = {"family": RAMIFIED, "p": p, "sigma": s}
            cases[f"ram{p}-s{s}"] = (t1, None, None)
            # the dual sigma is -s, never 1 - s
            cases[f"ram{p}-s{s}-nondual"] = (
                t1, dict(t1, sigma=(1 - s) % (p - 1), orientation=-1), None)
    dz3 = {"family": DEPTH_ZERO, "p": 3, "theta": 1}
    cases["dz3-nondual"] = (dz3, dz3, None)
    cases["dz3-A"] = (dz3, dict(dz3, theta=5, A=i4), None)
    return cases


CONDUCTOR_CASES = _conductor_cases()


class TestConductors:
    def test_depth_zero(self):
        assert type_conductor(dz(2, 1)) == 6      # lcm(2, 3)
        assert type_conductor(dz(3, 1)) == 24     # lcm(3, 8)
        assert type_conductor(make_type(DEPTH_ZERO, 2, n=3, theta=1)) == 14

    def test_ramified(self):
        assert type_conductor(ram(3, 1, 1)) == 18          # lcm(9, 2)
        assert type_conductor(ram(5, 1, 1)) == 100         # lcm(25, 4)
        assert type_conductor(ram(3, 1, 1, A=cyc_embed_root(4, 1))) == 36

    def test_pair_and_twist(self):
        N = pair_conductor(dz(2, 1), dz(2, 2), twist=cyc_embed_root(4, 1))
        assert N == 12

    @pytest.mark.parametrize("params1,params2,twist", CONDUCTOR_CASES.values(),
                             ids=CONDUCTOR_CASES.keys())
    def test_engine_moduli_divide_the_pair_conductor(self, params1, params2, twist):
        # verify_corollary builds its residue field at pair_conductor alone,
        # so every value the char-0 engine produces must live there
        t1 = make_type(**params1)
        t2 = make_type(**(params2 or t1.dual_params()))
        pair = RSPair(t1, t2, twist=twist)
        T, log = integrate_over_K(pair)
        I = rankin_selberg_I(pair, T)
        N = pair_conductor(t1, t2, twist=pair.twist)
        values = [v for rec in log for v in rec.slices.values()]
        values += [v for part in (T, I.num, I.den) for _, v in part.items()]
        assert values and all(N % v.modulus == 0 for v in values)


class TestIntegrality:
    def test_p_power_denominators(self):
        v = CYC.from_fraction(Fraction(5, 8)) * cyc_embed_root(3, 1)
        assert p_power_denominators_ok(v, 2)
        assert not p_power_denominators_ok(CYC.from_fraction(Fraction(1, 6)), 2)
        assert p_power_denominators_ok(CYC.one(), 3)


class TestReduceEulerFactor:
    def test_reduce_quadratic_factor(self):
        L = l_factor(dz(2, 1), dz(2, 2))
        s = ResidueScalars(5, 6, 0)
        La = reduce_euler_factor(L, s)
        assert La == EulerFactor(Laurent(s, {0: s.one(), 2: -s.one()}))


class TestCorollary:
    def test_depth_zero_q2_ell5(self):
        rep = verify_corollary(dz(2, 1), dz(2, 2), 5)
        assert rep.match
        assert rep.checks == {"integrality": True, "cellwise_match": True,
                              "euler_factor": True}
        assert rep.conductor == 6
        j = rep.to_json()
        assert j["ell"] == 5 and j["banal"] is True and j["match"] is True
        assert j["reduced_factor"] == "1/(1 + 4*X^2)"
        assert j["scalar"] == "3"

    def test_depth_zero_q3_both_ells(self):
        for ell in (5, 7):
            rep = verify_corollary(dz(3, 1), dz(3, 5), ell)
            assert rep.match, (ell, rep.checks)

    def test_second_prime_above_ell(self):
        # Phi_24 mod 7 splits into quartic-order-2 factors: another factor
        # index picks a Galois-conjugate prime and must also match
        rep = verify_corollary(dz(3, 1), dz(3, 5), 7, factor_index=1)
        assert rep.match
        assert rep.factor_index == 1

    def test_ramified_p3_ell5(self):
        rep = verify_corollary(ram(3, 1, 1), ram(3, 1, -1), 5)
        assert rep.match
        assert rep.conductor == 18

    def test_twisted_corollary(self):
        rep = verify_corollary(dz(2, 1), dz(2, 2), 5,
                               twist=cyc_embed_root(4, 1))
        assert rep.match

    def test_non_dual_pair_reduces_to_zero(self):
        rep = verify_corollary(dz(3, 1), dz(3, 1), 7)
        assert not rep.applicable
        assert rep.checks["schur_vanishing"]
        assert rep.match

    def test_non_banal_refused(self):
        with pytest.raises(NonBanal):
            verify_corollary(dz(2, 1), dz(2, 2), 3)

    def test_ell_equals_p_refused(self):
        with pytest.raises(EllEqualsP):
            verify_corollary(ram(3, 1, 1), ram(3, 1, -1), 3)
