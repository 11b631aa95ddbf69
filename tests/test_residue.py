"""Tests for residue-field scalars (reduction of cyclotomic integers mod
a chosen prime above ell)."""

import functools
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rsexact.cyclo import CycScalars, cyc_embed_root, cyclotomic_poly, is_prime
from rsexact.errors import NotIntegralAtEll
from rsexact.finitefield import _is_irreducible, _pmul, _ppow
from rsexact.ratfun import Laurent, RationalFunction, series_coefficients
from rsexact.residue import (
    ResidueScalars,
    _euler_power,
    _frobenius_matrix,
    cyclotomic_factors,
)

from reference import theta_eval

CYC = CycScalars()


class TestFactorTable:
    def test_split_cubic_conductor(self):
        # roots of x^2 + x + 1 mod 7, found independently by brute force
        roots = sorted(r for r in range(7) if (r * r + r + 1) % 7 == 0)
        assert roots == [2, 4]
        # factors x - r stored ascending as (-r mod 7, 1), sorted by tuple
        assert cyclotomic_factors(7, 3) == ((3, 1), (5, 1))

    def test_inert_quartic_conductor(self):
        # -1 is not a square mod 7, so Phi_4 = x^2 + 1 stays irreducible
        assert cyclotomic_factors(7, 4) == ((1, 0, 1),)

    def test_degree_equals_order_of_ell(self):
        # ord of 5 mod 9 is 6: one sextic factor
        factors = cyclotomic_factors(5, 9)
        assert {len(f) - 1 for f in factors} == {6}
        assert len(factors) == 1

    def test_ell_dividing_conductor_rejected(self):
        with pytest.raises(ValueError):
            cyclotomic_factors(3, 9)

    def test_deterministic_across_calls(self):
        assert cyclotomic_factors(7, 3) == cyclotomic_factors(7, 3)

    # recorded from sympy's factor_list for the conductors the benchmark's
    # reduce jobs reach; --ideal k names the k-th tuple
    @pytest.mark.parametrize("ell,N,factors", [
        (5, 24, ((2, 1, 1), (2, 4, 1), (3, 2, 1), (3, 3, 1))),
        (7, 24, ((2, 2, 1), (2, 5, 1), (4, 1, 1), (4, 6, 1))),
        (31, 24, ((5, 14, 1), (5, 17, 1), (25, 9, 1), (25, 22, 1))),
        (7, 120, ((2, 1, 3, 6, 1), (2, 3, 3, 2, 1), (2, 4, 3, 5, 1),
                  (2, 6, 3, 1, 1), (4, 1, 5, 5, 1), (4, 3, 5, 4, 1),
                  (4, 4, 5, 3, 1), (4, 6, 5, 2, 1))),
        (367, 120, ((83, 5, 84, 270, 1), (83, 74, 84, 48, 1),
                    (83, 293, 84, 319, 1), (83, 362, 84, 97, 1),
                    (283, 5, 284, 23, 1), (283, 74, 284, 314, 1),
                    (283, 293, 284, 53, 1), (283, 362, 284, 344, 1))),
        (7, 18, ((2, 0, 0, 1), (4, 0, 0, 1))),
    ])
    def test_pinned_factor_lists(self, ell, N, factors):
        assert cyclotomic_factors(ell, N) == factors

    @settings(max_examples=25, deadline=None)
    @given(ell=st.sampled_from([p for p in range(3, 400) if is_prime(p)]),
           N=st.integers(1, 129))
    def test_factors_multiply_to_phi(self, ell, N):
        assume(N % ell)
        factors = cyclotomic_factors(ell, N)
        d = next(k for k in range(1, N + 1) if pow(ell, k, N) == 1 % N)
        prod = (1,)
        for f in factors:
            assert f[-1] == 1 and len(f) - 1 == d
            assert _is_irreducible(f, ell)
            prod = _pmul(prod, f, ell)
        assert prod == tuple(c % ell for c in cyclotomic_poly(N))
        assert list(factors) == sorted(factors)

    @pytest.mark.parametrize("ell,N", [(3, 91), (5, 24), (7, 120), (11, 35), (13, 63), (17, 40)])
    def test_euler_power_matches_the_direct_power(self, ell, N):
        """The Frobenius route gives a**((ell**d - 1) / 2) mod Phi_N."""
        d = next(k for k in range(1, N + 1) if pow(ell, k, N) == 1 % N)
        f = tuple(c % ell for c in cyclotomic_poly(N))
        frobenius = _frobenius_matrix(f, ell)
        rng = random.Random(ell * N)
        draws = [(0,) * (len(f) - 1)] + [
            tuple(rng.randrange(ell) for _ in range(len(f) - 1)) for _ in range(8)]
        for a in draws:
            assert _euler_power(a, f, ell, d, frobenius) == _ppow(a, (ell**d - 1) // 2, f, ell)

    def test_even_ell_rejected(self):
        with pytest.raises(ValueError):
            cyclotomic_factors(2, 3)


class TestScalars:
    def test_roots_of_unity_at_each_prime(self):
        s0 = ResidueScalars(7, 3, 0)
        s1 = ResidueScalars(7, 3, 1)
        # the chosen factor determines which root represents zeta_3
        assert s0.root_of_unity(3, 1) == s0.from_fraction(4)
        assert s1.root_of_unity(3, 1) == s1.from_fraction(2)

    def test_root_order(self):
        s = ResidueScalars(5, 9, 0)
        z = s.root_of_unity(9, 1)
        assert z**9 == s.one()
        assert z**3 != s.one()
        assert s.root_of_unity(3, 1) == z**3

    def test_root_conductor_must_divide(self):
        s = ResidueScalars(7, 3, 0)
        with pytest.raises(ValueError):
            s.root_of_unity(4, 1)

    def test_from_fraction(self):
        s = ResidueScalars(7, 3, 0)
        assert s.from_fraction(Fraction(1, 3)) == s.from_fraction(5)
        assert s.from_fraction(10) == s.from_fraction(3)
        with pytest.raises(NotIntegralAtEll):
            s.from_fraction(Fraction(1, 7))
        with pytest.raises(NotIntegralAtEll):
            s.from_fraction(Fraction(3, 14))


class TestEmbedding:
    def test_vanishing_sum_of_roots(self):
        s = ResidueScalars(7, 3, 0)
        val = CYC.one() + cyc_embed_root(3, 1) + cyc_embed_root(3, 2)
        assert not s.embed_cyc(val)

    def test_embedding_is_a_ring_map(self):
        rng = random.Random(71)
        s = ResidueScalars(5, 36, 0)
        roots = [cyc_embed_root(36, k) for k in range(36)]
        for _ in range(25):
            a = sum(
                (CYC.from_fraction(rng.randrange(-4, 5)) * rng.choice(roots)
                 for _ in range(3)),
                CYC.zero(),
            )
            b = sum(
                (CYC.from_fraction(rng.randrange(-4, 5)) * rng.choice(roots)
                 for _ in range(3)),
                CYC.zero(),
            )
            assert s.embed_cyc(a + b) == s.embed_cyc(a) + s.embed_cyc(b)
            assert s.embed_cyc(a * b) == s.embed_cyc(a) * s.embed_cyc(b)

    def test_representation_independent(self):
        # 1 + zeta_3 and -zeta_3^2 are the same number: images must agree
        s = ResidueScalars(7, 3, 0)
        assert s.embed_cyc(CYC.one() + cyc_embed_root(3, 1)) == \
            s.embed_cyc(-(cyc_embed_root(3, 2)))

    def test_matches_the_per_term_fraction_reduction(self):
        # reference: each raw Fraction coefficient reduced on its own
        def per_term(s, x):
            total = s.zero()
            for e, c in x.raw_items(s.N).items():
                total = total + s.from_fraction(c) * s.root_of_unity(s.N, e)
            return total

        rng = random.Random(1414)
        s = ResidueScalars(7, 12, 0)
        raised = 0
        for _ in range(200):
            x = CYC.zero()
            for _ in range(rng.randrange(4)):
                c = Fraction(rng.randrange(-20, 21), rng.choice((1, 2, 3, 4, 6, 7, 14, 49)))
                x = x + CYC.from_fraction(c) * cyc_embed_root(rng.choice((1, 2, 3, 4, 6, 12)),
                                                              rng.randrange(12))
            try:
                want = per_term(s, x)
            except NotIntegralAtEll:
                raised += 1
                with pytest.raises(NotIntegralAtEll):
                    s.embed_cyc(x)
            else:
                assert s.embed_cyc(x) == want
        assert 20 < raised < 180
        # one term over 14 makes the common denominator divisible by 7
        x = CYC.from_fraction(Fraction(1, 2)) + cyc_embed_root(4, 1) * Fraction(3, 14)
        with pytest.raises(NotIntegralAtEll):
            s.embed_cyc(x)
        assert s.embed_cyc(x * 7) == per_term(s, x * 7)

    @given(st.sampled_from([(7, 3), (5, 13), (29, 60), (11, 420)]), st.data())
    @settings(max_examples=120, deadline=None)
    def test_sum_is_the_fold(self, field, data):
        # mixed moduli and denominators and negated copies that cancel; the
        # residue sum is the fold and the image of the cyclotomic sum
        ell, N = field
        s = ResidueScalars(ell, N, 0)
        terms = data.draw(st.lists(st.tuples(
            st.sampled_from([d for d in range(1, N + 1) if N % d == 0]),
            st.integers(0, N - 1),
            st.fractions(min_value=-20, max_value=20, max_denominator=9)
            .filter(lambda c: c.denominator % ell),
        ), max_size=6))
        cyc = [CYC.from_fraction(c) * cyc_embed_root(n, k) for n, k, c in terms]
        cyc += [-x for x in cyc[:data.draw(st.integers(0, 2))]]
        xs = [s.embed_cyc(x) for x in cyc]
        fold = functools.reduce(operator.add, xs, s.zero())
        assert s.sum(x for x in xs) == fold
        assert s.embed_cyc(CYC.sum(cyc)) == fold

    def test_embed_requires_compatible_conductor(self):
        s = ResidueScalars(7, 3, 0)
        with pytest.raises(ValueError):
            s.embed_cyc(cyc_embed_root(4, 1))


class TestFieldArithmetic:
    def test_inverse_and_negative_powers(self):
        s = ResidueScalars(7, 4, 0)
        w = s.root_of_unity(4, 1)
        x = s.from_fraction(3) + w * s.from_fraction(2)
        assert x * x.inverse() == s.one()
        assert (x**-3) * (x**3) == s.one()
        with pytest.raises(ZeroDivisionError):
            s.zero().inverse()

    def test_random_field_laws(self):
        rng = random.Random(99)
        s = ResidueScalars(5, 9, 0)
        d = s.field.degree
        def rand():
            return s.field.element([rng.randrange(5) for _ in range(d)])
        for _ in range(20):
            a, b, c = rand(), rand(), rand()
            assert a * (b + c) == a * b + a * c
            assert (a - b) + b == a
            if a:
                assert a * a.inverse() == s.one()

    def test_frobenius_fixes_prime_field(self):
        s = ResidueScalars(5, 9, 0)
        for c in range(5):
            assert s.from_fraction(c) ** 5 == s.from_fraction(c)


class TestEngineCompatibility:
    def test_rational_function_cancellation(self):
        s = ResidueScalars(5, 36, 0)
        one = s.one()
        f = RationalFunction(
            Laurent(s, {0: one, 2: -one}), Laurent(s, {0: one, 1: -one})
        )
        g = RationalFunction(
            Laurent(s, {0: one, 1: one}), Laurent.from_const(s, one)
        )
        assert f == g

    def test_series_coefficients(self):
        s = ResidueScalars(5, 4, 0)
        one = s.one()
        z = s.root_of_unity(4, 1)
        f = RationalFunction(
            Laurent.from_const(s, s.from_fraction(3)), Laurent(s, {0: one, 1: -z})
        )
        assert series_coefficients(f, 3) == [
            s.from_fraction(3), s.from_fraction(3) * z,
            s.from_fraction(3) * z**2, s.from_fraction(3) * z**3,
        ]

    def test_theta_eval_lands_in_right_order(self):
        s = ResidueScalars(5, 36, 0)
        v = theta_eval(3, Fraction(1, 3), 2, s)
        assert v**9 == s.one() and v**3 != s.one()

    def test_theta_matches_reduced_cyclotomic(self):
        s = ResidueScalars(5, 36, 0)
        for arg in (Fraction(1), Fraction(2), Fraction(1, 3), Fraction(4, 3)):
            cyc_val = theta_eval(3, arg, 2, CYC)
            assert s.embed_cyc(cyc_val) == theta_eval(3, arg, 2, s)

    def test_deep_theta_needs_larger_conductor(self):
        # depth-2 arguments land in zeta_27; conductor 27 hosts them
        s = ResidueScalars(5, 27, 0)
        cyc_val = theta_eval(3, Fraction(5, 9), 2, CYC)
        assert s.embed_cyc(cyc_val) == theta_eval(3, Fraction(5, 9), 2, s)
