"""Tests for the Rankin-Selberg integral engine.

The expected closed forms are derived independently of the engine:
(q - 1)(q^{n/e} - 1) mu / (1 - kappa X^{n/e}) with mu = 1 for the
maximal-compact family (unit-shell sums collapse to Bessel orthogonality,
sum = q^n - 1 over level-one cells) and mu = q for the level family (slice
masses 6/9 resp. 18/9 of the 72 level-two cells at p = 3).  The engine is
additionally cross-checked coefficient by coefficient against the
brute-force oracle, which sums over canonical N\\G cells with the explicit
(q - 1) normalization factor -- a genuinely different route through the
measure bookkeeping.
"""

import pickle
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rsexact import integral
from rsexact.cyclo import CycScalars, cyc_embed_root
from rsexact.errors import DepthExceeded, FamilyMismatch
from rsexact.integral import (
    DEFAULT_WINDOW,
    GL3_WINDOW,
    RSPair,
    _embed_gl2,
    _j1_class,
    _j1_coset_reps,
    b_coefficient,
    c_k_bruteforce,
    cell_support_report,
    integrate_over_K,
    oracle_check,
    j1_average_report,
    rankin_selberg_I,
    verify_main_theorem,
    z_omega,
)
from rsexact.lmodular import pair_conductor
from rsexact.matgroups import enumerate_group
from rsexact.padic import PadicMatrix, ng_cell_volume, ng_shell, nk_cell_reps, pk_cell_reps
from rsexact.ratfun import Laurent, RationalFunction, series_coefficients
from rsexact.residue import ResidueScalars
from rsexact.simpletypes import (
    DEPTH_ZERO,
    RAMIFIED,
    make_type,
    psi_t_class,
    support_decompose,
)

from reference import c_k_point_walk, cell_support_report_per_cell

SCAL = CycScalars()


def const_over(c: Fraction, den_coeffs: dict) -> RationalFunction:
    num = Laurent.from_const(SCAL, SCAL.from_fraction(c))
    return RationalFunction(num, Laurent(SCAL, den_coeffs))


def dz_pair(q, t1, t2, **kw):
    return RSPair(
        make_type(DEPTH_ZERO, q, theta=t1),
        make_type(DEPTH_ZERO, q, theta=t2),
        **kw,
    )


def ram_pair(p, s1, s2, A1=None, A2=None, **kw):
    return RSPair(
        make_type(RAMIFIED, p, sigma=s1, orientation=1, A=A1),
        make_type(RAMIFIED, p, sigma=s2, orientation=-1, A=A2),
        **kw,
    )


one = SCAL.one()
minus = SCAL.zero() - SCAL.one()


def raw(x):
    """The representation a report prints: raw modulus and raw numerators."""
    return x.modulus, x.raw_numerators(x.modulus)


class TestDepthZeroEngine:
    def test_q2_T_is_bessel_mass(self):
        T, log = integrate_over_K(dz_pair(2, 1, 2))
        assert T == Laurent.from_const(SCAL, SCAL.from_fraction(Fraction(3)))
        assert len(log) == 3  # unimodular rows over F_2

    def test_q2_integral_closed_form(self):
        I = rankin_selberg_I(dz_pair(2, 1, 2))
        assert I == const_over(Fraction(3), {0: one, 2: minus})

    def test_q3_integral_closed_form(self):
        I = rankin_selberg_I(dz_pair(3, 1, 5))
        assert I == const_over(Fraction(16), {0: one, 2: minus})

    def test_q3_other_dual_orbit(self):
        # the second dual exponent of t = 1 mod 8 is -3 = 5... and -1 = 7
        I = rankin_selberg_I(dz_pair(3, 1, 7))
        assert I == const_over(Fraction(16), {0: one, 2: minus})

    def test_every_cell_has_unit_b0(self):
        pair = dz_pair(3, 1, 5)
        _, log = integrate_over_K(pair)
        for rec in log:
            assert rec.slices[0] == one
            assert rec.slices[1] == SCAL.zero()

    def test_b_vanishes_outside_period(self):
        pair = dz_pair(2, 1, 2)
        cell = PadicMatrix.identity(2)
        for k in (-3, -1, 1, 2, 3):
            assert b_coefficient(pair, cell, k) == SCAL.zero()


class TestRamifiedEngine:
    def test_p3_T_has_two_slices(self):
        T, log = integrate_over_K(ram_pair(3, 1, 1))
        assert T == Laurent(
            SCAL,
            {0: SCAL.from_fraction(Fraction(6)), 1: SCAL.from_fraction(Fraction(6))},
        )
        assert len(log) == 72

    def test_p3_integral_closed_form(self):
        I = rankin_selberg_I(ram_pair(3, 1, 1))
        assert I == const_over(Fraction(12), {0: one, 1: minus})

    def test_p3_nontrivial_coupling(self):
        # A_1 = A_2 = zeta_4 gives kappa = -1 and an alternating series
        i4 = cyc_embed_root(4, 1)
        I = rankin_selberg_I(ram_pair(3, 1, 1, A1=i4, A2=i4))
        assert I == const_over(Fraction(12), {0: one, 1: one})
        assert series_coefficients(I, 3) == [
            SCAL.from_fraction(Fraction(c)) for c in (12, -12, 12, -12)
        ]

    def test_p3_slice_values(self):
        pair = ram_pair(3, 1, 1)
        _, log = integrate_over_K(pair)
        for rec in log:
            c, d = rec.row
            if d % 3:
                assert rec.slices == {0: one, 1: SCAL.zero()}
            else:
                assert rec.slices == {0: SCAL.zero(), 1: one}


class TestUnitClassTest:
    """b_coefficient sums one point per unit class mod p; the reference
    sums point_value over every unit mod p^m, point by point, with the
    weight q^-(m-1)."""

    @staticmethod
    def _reference(pair, cell, k):
        p, m = pair.p, pair.level
        total = pair.scal.zero()
        for a in range(1, p**m):
            if a % p:
                value = pair.point_value(cell.scale_row(0, Fraction(a) * Fraction(p) ** k))
                if value is not None:
                    total = total + value
        return total * pair.scal.from_fraction(Fraction(1, p ** (m - 1)))

    def _check(self, pair, cells):
        zero = pair.scal.zero()
        nonzero = 0
        for cell in cells:
            for k in range(-2, pair.n + 2):
                got, want = b_coefficient(pair, cell, k), self._reference(pair, cell, k)
                assert got == want and str(got) == str(want), (cell, k)
                assert raw(got) == raw(want), (cell, k)
                nonzero += got != zero
        assert nonzero > 0

    @pytest.mark.parametrize("p, s1, s2", [
        (3, 1, 1), (3, 1, 0), (5, 1, 1), (5, 1, 2), (7, 1, 1),
    ])
    def test_every_cell_matches_the_point_walk(self, p, s1, s2):
        pair = ram_pair(p, s1, s2)
        self._check(pair, [rep for _, rep in pk_cell_reps(p, 2, pair.level)])

    def test_j1_translated_cells_match_the_point_walk(self):
        pair = ram_pair(3, 1, 1)
        rng = random.Random(13)
        reps = [rep for _, rep in pk_cell_reps(3, 2, pair.level)]
        self._check(pair, [rng.choice(reps) * u for u in rng.sample(_j1_coset_reps(3), 40)])


J1_PAIRS = {
    "p3-dual": lambda: ram_pair(3, 1, 1),
    "p3-nondual": lambda: ram_pair(3, 1, 0),
    "p5-dual": lambda: ram_pair(5, 1, 3),
    "p5-nondual": lambda: ram_pair(5, 1, 2),
    "p5-twisted": lambda: ram_pair(5, 1, 3, A1=cyc_embed_root(4, 1),
                                   twist=cyc_embed_root(3, 1)),
}


@pytest.mark.parametrize("name", sorted(J1_PAIRS))
def test_pair_value_is_right_j1_invariant(name):
    """W_1 W_2(g u) = W_1 W_2(g) for u in J^1, raw representation included:
    lambda_1 lambda_2 is trivial on J^1, which is what lets b_coefficient
    evaluate one lift per unit class."""
    pair = J1_PAIRS[name]()
    p = pair.p
    reps = _j1_coset_reps(p)
    cells = [rep for _, rep in pk_cell_reps(p, 2, pair.level)]

    def outcome(g):
        try:
            value = pair.point_value(g)
        except DepthExceeded:
            return "DepthExceeded"
        return None if value is None else raw(value)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def check(data):
        if data.draw(st.booleans()):  # a point of the engine's unit shells
            a = data.draw(st.integers(1, p * p - 1).filter(lambda a: a % p))
            k = data.draw(st.integers(-2, 3))
            g = data.draw(st.sampled_from(cells)).scale_row(0, Fraction(a) * Fraction(p) ** k)
        else:
            g = PadicMatrix.from_ints(
                [[data.draw(st.integers(-p**3, p**3)) for _ in range(2)] for _ in range(2)],
                data.draw(st.sampled_from((1, p, 7))))
            assume(g.det())
        u = data.draw(st.sampled_from(reps))
        assert outcome(g * u) == outcome(g), (g, u)

    check()
    assert pair._table


class TestJ1Classes:
    """cell_support_report tests the slices outside the period once per
    (P cap K)\\K/J^1 class of cells, keyed by _j1_class."""

    @pytest.mark.parametrize("name", sorted(J1_PAIRS))
    def test_every_cell_matches_its_class_representative(self, name):
        pair = J1_PAIRS[name]()
        zero = pair.scal.zero()
        ks = range(-2, pair.n + 2)
        by_class = {}
        nonzero = 0
        for row, cell in pk_cell_reps(pair.p, 2, pair.level):
            got = {k: b_coefficient(pair, cell, k) for k in ks}
            want = by_class.setdefault(_j1_class(pair, row), got)
            assert got == want, row
            nonzero += sum(b != zero for b in got.values())
        assert len(by_class) == 2 * (pair.p - 1)
        assert nonzero > 0

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_ramified_classes_are_the_j1_orbits(self, p):
        """The class is constant under the generators 1 + t E_21 and
        1 + p t E_ij (ij != 21) of J^1 mod K^2, so each orbit lies in one
        class, and there are as many classes as orbits, 2(p - 1)."""
        pair = ram_pair(p, 1, 1)
        mod = p * p
        gens = [((1, 0), (t, 1)) for t in range(1, mod)]
        gens += [g for t in range(p, mod, p)
                 for g in (((1 + t, 0), (0, 1)), ((1, t), (0, 1)), ((1, 0), (0, 1 + t)))]
        rows = [row for row, _ in pk_cell_reps(p, 2, pair.level)]
        assert len(rows) == (p * p - 1) * p * p
        for c, d in rows:
            cls = _j1_class(pair, (c, d))
            for (a, b), (e, f) in gens:
                assert _j1_class(pair, ((c * a + d * e) % mod, (c * b + d * f) % mod)) == cls
        assert len({_j1_class(pair, row) for row in rows}) == 2 * (p - 1)

    @pytest.mark.parametrize("q, n", [(3, 2), (5, 2), (2, 3)])
    def test_each_depth_zero_cell_is_its_own_class(self, q, n):
        pair = RSPair(*dz_dual_types(q, n))
        rows = [row for row, _ in pk_cell_reps(q, n, pair.level)]
        assert len({_j1_class(pair, row) for row in rows}) == len(rows)

    @pytest.mark.parametrize("pair, calls", [
        (lambda: ram_pair(5, 1, 3), 4 * 8),
        (lambda: RSPair(*dz_dual_types(5)), 4 * 24),
        (lambda: RSPair(*dz_dual_types(2, 3)), 4 * 7),
    ])
    def test_report_tests_four_slices_per_class(self, monkeypatch, pair, calls):
        pair = pair()
        _, log = integrate_over_K(pair)
        seen = []
        real = integral.b_coefficient

        def counted(pair, cell, k):
            seen.append(k)
            return real(pair, cell, k)

        monkeypatch.setattr(integral, "b_coefficient", counted)
        report = cell_support_report(pair, log)
        assert report["slice_pattern"] and report["row_law"] and report["cell_mass"]
        assert len(seen) == calls

    @pytest.mark.parametrize("name", [*sorted(J1_PAIRS), "dz-q3"])
    def test_report_matches_the_per_cell_walk(self, name):
        pair = RSPair(*dz_dual_types(3)) if name == "dz-q3" else J1_PAIRS[name]()
        _, log = integrate_over_K(pair)
        assert cell_support_report(pair, log) == cell_support_report_per_cell(pair, log)

    def test_a_nonzero_off_period_slice_fails_the_pattern(self, monkeypatch):
        """b_n made nonzero on the class of the last cell only: the class
        test must still see it."""
        pair = ram_pair(5, 1, 3)
        _, log = integrate_over_K(pair)
        assert cell_support_report(pair, log)["slice_pattern"]
        target = _j1_class(pair, log[-1].row)
        real = integral.b_coefficient

        def patched(pair, cell, k):
            if k == pair.n and _j1_class(pair, cell.num[-1]) == target:
                return pair.scal.one()
            return real(pair, cell, k)

        monkeypatch.setattr(integral, "b_coefficient", patched)
        report = cell_support_report(pair, log)
        assert not report["slice_pattern"]
        assert report["row_law"] and report["cell_mass"]


def dz_dual_types(q, n=2):
    t = make_type(DEPTH_ZERO, q, n=n, theta=1)
    return t, make_type(**t.dual_params())


@pytest.mark.parametrize("q, n", [(2, 2), (3, 2), (5, 2), (7, 2), (2, 3), (3, 3)])
def test_depth_zero_support_is_right_K_invariant(q, n):
    """support_decompose(h c) is None exactly when support_decompose(h) is,
    for c in K: N Z K is right-K-invariant, which is what lets the engine
    decompose each cell-free point once for every cell.  The cell-free
    points of the slices -2..n+1 hold both hits and misses."""
    pair = RSPair(*dz_dual_types(q, n))
    t = pair.type1
    engine_points = _cell_free_flat(pair, range(-2, n + 2))
    assert {support_decompose(t, h) is None for h in engine_points} == {True, False}
    entries = st.integers(-q**3, q**3)

    def matrix(data, den):
        return PadicMatrix.from_ints(
            [[data.draw(entries) for _ in range(n)] for _ in range(n)], den)

    residues = enumerate_group(q, n)

    def k_element(data):
        """A random element of K: a lift of an element of GL_n(F_q) plus q
        times a random integral matrix."""
        base, deep = data.draw(st.sampled_from(residues)), matrix(data, 1)
        return PadicMatrix.from_ints(
            [[b + q * d for b, d in zip(brow, drow)] for brow, drow in zip(base, deep.num)])

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def check(data):
        source = data.draw(st.sampled_from(("engine", "support", "random")))
        if source == "engine":
            h = data.draw(st.sampled_from(engine_points))
        elif source == "support":  # n p^i k with n unipotent, off K in general
            unip = PadicMatrix([
                [Fraction(int(i == j)) if j <= i else
                 Fraction(data.draw(entries), q ** data.draw(st.integers(0, 2)))
                 for j in range(n)] for i in range(n)])
            h = unip * Fraction(q) ** data.draw(st.integers(-2, 2)) * k_element(data)
        else:
            h = matrix(data, data.draw(st.sampled_from((1, q, q * q))))
            assume(h.det())
        c = k_element(data)
        dec = support_decompose(t, h)
        assert (support_decompose(t, h * c) is None) == (dec is None), (h, c)
        if source == "support":
            assert dec is not None

    check()


def _cell_free_flat(pair, ks):
    """Every cell-free point h of the slices ks, built the way _point_walk
    builds h * cell, without the cell: d(p^k a_0) for n = 2, and for
    n = 3 the embedded diag(p^v_1, p^v_2) kbar over the window pairs
    with v_1 + v_2 = k and kbar in nk_cell_reps, in the engine's order."""
    p = pair.p
    out = []
    for k in ks:
        if pair.n == 2:
            out += [PadicMatrix.identity(2).scale_row(0, a0 * Fraction(p) ** k)
                    for a0 in range(1, p)]
            continue
        for v1 in range(-GL3_WINDOW, GL3_WINDOW + 1):
            v2 = k - v1
            if abs(v2) <= GL3_WINDOW:
                out += [_embed_gl2(inner.scale_row(0, Fraction(p) ** v1)
                                   .scale_row(1, Fraction(p) ** v2))
                        for inner in nk_cell_reps(p, pair.level)]
    return out


def _point_walk(pair, cell, k):
    """b_k as one support decomposition per point h * cell, the walk the
    engine made before it decomposed the cell-free points once per pair."""
    scal, p = pair.scal, pair.p

    def walk(points):
        total = scal.zero()
        for g in points:
            value = pair.point_value(g)
            if value is not None:
                total = total + value
        return total

    if pair.n == 2:
        return walk(cell.scale_row(0, a0 * Fraction(p) ** k) for a0 in range(1, p))
    total = scal.zero()
    for v1 in range(-GL3_WINDOW, GL3_WINDOW + 1):
        v2 = k - v1
        if abs(v2) > GL3_WINDOW:
            continue
        x1, x2 = Fraction(p) ** v1, Fraction(p) ** v2
        weight = scal.from_fraction(ng_cell_volume(p, 2, pair.level, (v1, v2)))
        total = total + weight * walk(
            _embed_gl2(inner.scale_row(0, x1).scale_row(1, x2)) * cell
            for inner in nk_cell_reps(p, pair.level))
    return total


class TestCellFreeSupport:
    """At depth zero b_coefficient decomposes each cell-free point h once
    per pair and forms k_0 * cell for the hits only."""

    @pytest.mark.parametrize("q, n, t1, t2", [
        (2, 2, 1, 2), (3, 2, 1, 5), (3, 2, 1, 2), (5, 2, 1, 19), (5, 2, 1, 2),
        (7, 2, 1, 47), (7, 2, 1, 2), (2, 3, 1, 6), (2, 3, 1, 1), (3, 3, 1, 25),
        (3, 3, 1, 2),
    ])
    def test_every_cell_matches_the_point_walk(self, q, n, t1, t2):
        types = (make_type(DEPTH_ZERO, q, n=n, theta=t1),
                 make_type(DEPTH_ZERO, q, n=n, theta=t2))
        pair, walk_pair = RSPair(*types), RSPair(*types)
        zero = pair.scal.zero()
        nonzero = 0
        for _, cell in pk_cell_reps(q, n, pair.level):
            for k in range(-2, n + 2):
                got, want = b_coefficient(pair, cell, k), _point_walk(walk_pair, cell, k)
                assert raw(got) == raw(want), (cell, k)
                nonzero += got != zero
        assert nonzero > 0

    def test_gl2_q7_makes_36_support_tests(self, monkeypatch):
        calls = self._count(monkeypatch)
        report = verify_main_theorem(*dz_dual_types(7))
        assert report.passed
        assert len(calls) == 36 == 6 * (7 - 1)  # slices -2..3, 6 unit classes each

    def test_gl3_q3_tests_each_cell_free_point_once(self, monkeypatch):
        calls = self._count(monkeypatch)
        report = verify_main_theorem(*dz_dual_types(3, 3))
        assert report.passed
        points = _cell_free_flat(report.pair, range(-2, 5))
        # 22 window pairs with v_1 + v_2 in -2..4, 16 GL_2 cells each
        assert len(calls) == len(set(points)) == len(points) == 22 * 16
        assert set(calls) == set(points)

    @pytest.mark.parametrize("q, n", [(7, 2), (3, 3)])
    def test_every_hit_lies_in_K(self, q, n):
        """A hit h is in K, so it decomposes as (0, 1, h) and h * cell as
        (0, 1, h * cell): the table keys are the point walk's.  The pair
        keeps each slice's hits as (0, psi_t class of 1, h), in the order of
        the cell-free points, and drops the misses."""
        pair = RSPair(*dz_dual_types(q, n))
        integrate_over_K(pair)
        one = (0, psi_t_class(pair.type1, PadicMatrix.identity(n)))
        assert sorted(pair._hits) == list(range(n))
        hits = 0
        for k, kept in pair._hits.items():
            stored = kept if n == 2 else [hit for _, shell in kept for hit in shell]
            in_K = [h for h in _cell_free_flat(pair, [k]) if h.in_K(q)]
            assert stored == [(*one, h) for h in in_K], k
            hits += len(stored)
        assert hits

    @staticmethod
    def _count(monkeypatch):
        """Record every support_decompose call the engine makes."""
        calls = []
        real = integral.support_decompose

        def counted(data, g):
            calls.append(g)
            return real(data, g)

        monkeypatch.setattr(integral, "support_decompose", counted)
        return calls


class TestCenterFactor:
    def test_z_omega_dual_pair(self):
        f = z_omega(dz_pair(3, 1, 5))
        assert f == const_over(Fraction(2), {0: one, 2: minus})

    def test_z_omega_mismatched_central_characters(self):
        # sigma_1 sigma_2 nontrivial on units: the unit sum vanishes
        f = z_omega(ram_pair(5, 1, 1))
        assert f.is_zero()


class TestOracle:
    """Engine series vs. direct canonical-cell summation."""

    def test_depth_zero_q2_all_k(self):
        pair = dz_pair(2, 1, 2)
        for row in oracle_check(pair, kmax=6, window=4):
            assert row["match"], row

    def test_depth_zero_q3(self):
        pair = dz_pair(3, 1, 5)
        for row in oracle_check(pair, kmax=4, window=3):
            assert row["match"], row

    def test_ramified_p3(self):
        i4 = cyc_embed_root(4, 1)
        pair = ram_pair(3, 1, 1, A1=i4, A2=cyc_embed_root(4, 3))
        for row in oracle_check(pair, kmax=4, window=3):
            assert row["match"], row

    def test_twisted_pair(self):
        pair = dz_pair(3, 1, 5, twist=cyc_embed_root(4, 1))
        for row in oracle_check(pair, kmax=4, window=3):
            assert row["match"], row

    def test_window_zero_cuts_central_shells(self):
        # with the valuation window forced to 0 the oracle misses the
        # central cells diag(p, p) K and disagrees with the engine at X^2
        pair = dz_pair(2, 1, 2)
        rows = oracle_check(pair, kmax=2, window=0)
        assert rows[0]["match"]
        assert not rows[2]["match"]

    def test_oracle_rejects_gl3(self):
        g1 = make_type(DEPTH_ZERO, 2, n=3, theta=1)
        g2 = make_type(DEPTH_ZERO, 2, n=3, theta=6)
        with pytest.raises(ValueError):
            c_k_bruteforce(RSPair(g1, g2), 0)


class TestSchurVanishing:
    def test_depth_zero_non_dual(self):
        rep = verify_main_theorem(
            make_type(DEPTH_ZERO, 3, theta=1), make_type(DEPTH_ZERO, 3, theta=1)
        )
        assert not rep.applicable
        assert rep.checks == {"schur_vanishing": True}
        assert rep.I.is_zero() and rep.T.is_zero()
        assert rep.passed

    def test_ramified_sigma_mismatch(self):
        rep = verify_main_theorem(
            make_type(RAMIFIED, 5, sigma=1, orientation=1),
            make_type(RAMIFIED, 5, sigma=1, orientation=-1),
        )
        assert not rep.applicable
        assert rep.T.is_zero()
        assert rep.passed

    def test_family_mismatch_raises(self):
        with pytest.raises(FamilyMismatch):
            RSPair(
                make_type(DEPTH_ZERO, 3, theta=1),
                make_type(RAMIFIED, 3, sigma=1, orientation=-1),
            )


class TestVerificationReport:
    def test_depth_zero_full_battery(self):
        rep = verify_main_theorem(
            make_type(DEPTH_ZERO, 2, theta=1),
            make_type(DEPTH_ZERO, 2, theta=2),
        )
        rep.oracle = oracle_check(rep.pair, kmax=4, I=rep.I)
        assert rep.passed
        assert all(rep.checks.values())
        assert rep.mu == 1 and rep.u == 1 and rep.lambda_vol == 1
        assert [r["k"] for r in rep.oracle] == list(range(5))
        assert all(r["match"] for r in rep.oracle)

    def test_ramified_full_battery(self):
        rep = verify_main_theorem(
            make_type(RAMIFIED, 3, sigma=1, orientation=1),
            make_type(RAMIFIED, 3, sigma=1, orientation=-1),
        )
        assert rep.passed
        assert rep.mu == 3 and rep.u == 3 and rep.lambda_vol == 3

    def test_json_round_trip(self):
        rep = verify_main_theorem(
            make_type(DEPTH_ZERO, 2, theta=1), make_type(DEPTH_ZERO, 2, theta=2)
        )
        obj = rep.to_json()
        assert obj["passed"] is True
        assert obj["applicable"] is True
        assert obj["type1"] == {"family": DEPTH_ZERO, "p": 2, "n": 2,
                                "A": "1", "theta": 1}
        assert obj["mu"] == "1"
        back = RationalFunction.from_json(obj["integral"], SCAL)
        assert back == rep.I
        assert RationalFunction.from_json(obj["expected"], SCAL) == rep.expected
        assert len(obj["cells"]) == 3

    def test_csv_shell_table(self):
        rep = verify_main_theorem(
            make_type(DEPTH_ZERO, 2, theta=1), make_type(DEPTH_ZERO, 2, theta=2)
        )
        rows = rep.csv_rows(shells=3)
        assert rows[0] == ("i", "c_i", "q_power")
        # c_i = coeff(X^{2i}) / (q - 1) = 3 for every shell; q^{i n/e} = 4^i
        assert rows[1] == ("0", "3", "1")
        assert rows[2] == ("1", "3", "4")
        assert rows[3] == ("2", "3", "16")

    def test_twisted_report(self):
        rep = verify_main_theorem(
            make_type(DEPTH_ZERO, 3, theta=1),
            make_type(DEPTH_ZERO, 3, theta=5),
            twist=cyc_embed_root(4, 1),
        )
        assert rep.passed
        # kappa = A2_eff = zeta_4^2 = -1: denominator 1 + X^2
        assert rep.I == const_over(Fraction(16), {0: one, 2: one})


class TestJ1Average:
    def test_honest_matches_factorized(self):
        pair = ram_pair(3, 1, 1)
        _, log = integrate_over_K(pair)
        out = j1_average_report(pair, log)
        assert out["values"] and out["honest"] and out["translation_law"]
        assert out["lambda_vol"] == 3

    @pytest.mark.parametrize("p, s1, s2", [(3, 1, 1), (3, 1, 0), (5, 1, 1), (5, 1, 2)])
    def test_class_sum_matches_the_representative_sum(self, p, s1, s2):
        # j1_average_report sums W1 W2 once per kernel class (1, k)
        pair = ram_pair(p, s1, s2)
        W1, W2 = pair.W1, pair.W2
        classes = [pair.type1.kernel_class(u) for u in _j1_coset_reps(p)]
        assert len(classes) == p**5
        direct = SCAL.sum(W1.kernel(cls) * W2.kernel(cls) for cls in classes)
        class_sum = SCAL.sum(W1.kernel((1, k)) * W2.kernel((1, k)) for k in range(p))
        assert direct == class_sum * p**4

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_every_kernel_class_holds_p4_representatives(self, p):
        """The class count j1_average_report's closed form relies on.

        kernel_class reads u = 1 + y as r = 1 + y_11 = 1 mod p and
        k = (p y_21 + y_12) / (p (1 + y_11)) = y_21 + y_12 / p mod p, so every
        class is (1, k).  For each k, y_11, y_12 and y_22 are free (p values
        each) and y_21 in Z/p^2 is one of the p lifts of k - y_12 / p mod p.
        """
        data = make_type(RAMIFIED, p, sigma=1)
        counts = Counter(data.kernel_class(u) for u in _j1_coset_reps(p))
        assert counts == {(1, k): p**4 for k in range(p)}


class TestGL3:
    def test_q2_closed_form(self):
        g1 = make_type(DEPTH_ZERO, 2, n=3, theta=1)
        g2 = make_type(DEPTH_ZERO, 2, n=3, theta=6)
        rep = verify_main_theorem(g1, g2)
        assert rep.passed
        assert rep.T == Laurent.from_const(SCAL, SCAL.from_fraction(Fraction(7)))
        assert rep.I == const_over(Fraction(7), {0: one, 3: minus})
        assert rep.mu == 1 and rep.u == 1

    def test_q2_non_dual_vanishes(self):
        g1 = make_type(DEPTH_ZERO, 2, n=3, theta=1)
        g2 = make_type(DEPTH_ZERO, 2, n=3, theta=1)
        rep = verify_main_theorem(g1, g2)
        assert not rep.applicable
        assert rep.T.is_zero()
        assert rep.passed


class TestSharedDecomposition:
    """point_value decomposes each point once and feeds both test vectors;
    on random points it must agree with evaluating W_1 and W_2 separately."""

    @staticmethod
    def _points(pair, rng, count=60):
        """Random matrices plus random engine points (cell reps scaled by
        a unit times a p-power), so that both branches are exercised."""
        p, n = pair.p, pair.n
        reps = [rep for _, rep in pk_cell_reps(p, n, pair.level)]
        points = []
        while len(points) < count:
            g = PadicMatrix([
                [Fraction(rng.randrange(-9, 10), p ** rng.randrange(0, 3)) for _ in range(n)]
                for _ in range(n)
            ])
            if g.det():
                points.append(g)
            a = rng.choice([u for u in range(1, p**pair.level) if u % p])
            x = Fraction(a) * Fraction(p) ** rng.randrange(-2, 3)
            points.append(rng.choice(reps).scale_row(0, x))
        return points

    @pytest.mark.parametrize("name", ["depth-zero", "twisted", "non-dual", "gl3", "residue"])
    def test_pair_value_is_product_of_values(self, name):
        if name == "depth-zero":
            pair = dz_pair(3, 1, 5)
        elif name == "twisted":
            pair = dz_pair(3, 1, 5, twist=cyc_embed_root(4, 1))
        elif name == "non-dual":
            pair = ram_pair(3, 1, 0)
        elif name == "gl3":
            pair = RSPair(make_type(DEPTH_ZERO, 2, n=3, theta=1),
                          make_type(DEPTH_ZERO, 2, n=3, theta=6))
        else:
            t1, t2 = make_type(DEPTH_ZERO, 3, theta=1), make_type(DEPTH_ZERO, 3, theta=5)
            # random points reach psi_t values in zeta_9, beyond the engine's
            # conductor 24, so the residue ring is built for 3 * 24
            res = ResidueScalars(5, 3 * pair_conductor(t1, t2), 0)
            pair = RSPair(t1, t2, scal=res)
        rng = random.Random(2015)
        zero = pair.scal.zero()
        nonzero = 0
        for g in self._points(pair, rng):
            try:
                expected = pair.W1.value(g) * pair.W2.value(g)
            except DepthExceeded:  # psi_t needs roots of unity beyond the cap
                with pytest.raises(DepthExceeded):
                    pair.point_value(g)
                continue
            value = pair.point_value(g)
            # None marks a point off the support, where both vectors vanish
            assert (value is None) == (support_decompose(pair.type1, g) is None), g
            assert (zero if value is None else value) == expected, g
            nonzero += expected != zero
        assert nonzero > 0


class TestPairTable:
    """pair_value keeps W_1 W_2 per (i, psi_t class of n, class of j_0): at
    depth zero the class is the monomial m of the Bruhat cell of j_0 mod p,
    in the ramified family the kernel class of j_0."""

    @pytest.mark.parametrize("q", [5, 7])
    def test_depth_zero_table_is_keyed_by_monomials(self, q):
        t1 = make_type(DEPTH_ZERO, q, theta=1)
        pair = verify_main_theorem(t1, make_type(**t1.dual_params())).pair
        assert 0 < len(pair._table) <= 2 * (q - 1) ** 2
        for _, _, cls in pair._table:
            assert all(sum(1 for e in line if e) == 1 for line in (*cls, *zip(*cls))), cls

    def test_ramified_keys_are_the_kernel_classes(self):
        pair = ram_pair(3, 1, 1)
        p = pair.p
        keys = set()
        for v1 in range(-2, 3):
            for v2 in range(-2, 3):
                for kbar in nk_cell_reps(p, pair.level):
                    g = kbar.scale_row(0, Fraction(p) ** v1).scale_row(1, Fraction(p) ** v2)
                    pair.point_value(g)
                    dec = support_decompose(pair.type1, g)
                    if dec is not None:
                        i, n_mat, j0 = dec
                        keys.add((i, psi_t_class(pair.type1, n_mat),
                                  pair.type1.kernel_class(j0)))
        assert keys and set(pair._table) == keys


class TestPickledPair:
    """A pair reaches oracle pool workers by pickle, after the engine has
    filled its caches (Bessel memos, discrete-log tables)."""

    @pytest.mark.parametrize("name", ["depth-zero", "ramified", "gl3"])
    def test_round_trip_after_engine(self, name):
        if name == "depth-zero":
            pair = dz_pair(3, 1, 5)
        elif name == "ramified":
            pair = ram_pair(3, 1, 1)
        else:
            pair = RSPair(make_type(DEPTH_ZERO, 2, n=3, theta=1),
                          make_type(DEPTH_ZERO, 2, n=3, theta=6))
        _, log = integrate_over_K(pair)
        copy = pickle.loads(pickle.dumps(pair))
        points = [rec.rep for rec in log[:20]] + TestSharedDecomposition._points(
            pair, random.Random(7), count=20)
        for g in points:
            try:
                want = pair.point_value(g)
            except DepthExceeded:
                continue
            assert copy.point_value(g) == want, g
        if pair.n == 2:
            for k in range(3):
                assert c_k_bruteforce(copy, k, 3) == c_k_bruteforce(pair, k, 3)


@pytest.mark.parametrize("name", ["ramified", "ramified non-dual", "depth-zero",
                                  "ramified p = 5"])
def test_oracle_matches_the_point_walk_in_raw_form(name):
    """c_k_bruteforce builds each point with ng_shell from cached
    representatives and walks only the support shell; the raw terms must be
    the row-scaling walk's over every shell of the window."""
    window = 4
    if name == "ramified":
        pair = ram_pair(3, 1, 1)
    elif name == "ramified non-dual":
        pair = ram_pair(3, 1, 0)
    elif name == "ramified p = 5":
        pair, window = ram_pair(5, 1, 3), 2
    else:
        pair = dz_pair(3, 1, 5)
    for k in range(7):
        got, want = c_k_bruteforce(pair, k, window), c_k_point_walk(pair, k, window)
        assert (got._N, got._c, got._d) == (want._N, want._c, want._d), k


@pytest.mark.parametrize("family, p, window", [
    (DEPTH_ZERO, 2, DEFAULT_WINDOW), (DEPTH_ZERO, 3, DEFAULT_WINDOW),
    (RAMIFIED, 3, 4), (RAMIFIED, 5, 2)])
def test_only_the_support_shell_meets_the_support(family, p, window):
    """Every point of every window shell other than support_shell(k) is
    off the support, and the support shell has a point on it."""
    t = (make_type(family, p, theta=1) if family == DEPTH_ZERO
         else make_type(family, p, sigma=1))
    for v1 in range(-window, window + 1):
        for v2 in range(-window, window + 1):
            hits = sum(support_decompose(t, g) is not None
                       for g in ng_shell(p, t.level, (v1, v2)))
            if (v1, v2) == t.support_shell(v1 + v2):
                assert hits, (v1, v2)
            else:
                assert not hits, (v1, v2)


@pytest.mark.parametrize("name, calls", [("ramified", 3024), ("depth-zero", 64)])
def test_oracle_decomposes_only_support_shell_points(name, calls, monkeypatch):
    # k = 0..6 meet the shells (i, i) and (i + 1, i): 7 shells of the 432
    # (N cap K)\K/K^2 cells at ramified p = 3, and 4 shells of the 16
    # (N cap K)\K/K^1 cells at depth-zero q = 3
    pair = ram_pair(3, 1, 1) if name == "ramified" else dz_pair(3, 1, 5)
    count = Counter()

    def counted(data, g):
        count["calls"] += 1
        return support_decompose(data, g)

    monkeypatch.setattr(integral, "support_decompose", counted)
    for k in range(7):
        c_k_bruteforce(pair, k)
    assert count["calls"] == calls


def test_oracle_check_reuses_engine_integral_and_mapper():
    pair = dz_pair(2, 1, 2)
    calls = []

    def mapper(f, ks):
        ks = list(ks)
        calls.append(ks)
        return [f(k) for k in ks]

    I = rankin_selberg_I(pair)
    rows = oracle_check(pair, kmax=3, I=I, mapper=mapper)
    assert calls == [[0, 1, 2, 3]]
    assert rows == oracle_check(pair, kmax=3)
    # the rows compare against the integral they are given
    twice = RationalFunction.from_laurent(Laurent.from_const(SCAL, SCAL.from_fraction(2)))
    wrong = oracle_check(pair, kmax=3, I=I * twice)
    assert not wrong[0]["match"]
