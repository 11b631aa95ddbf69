"""Acceptance gate: one test per contractual criterion, all exact.

Every test prints ``ACCEPTANCE n: PASS`` (uncaptured) after its assertions
succeed, so a plain ``pytest`` run shows one line per criterion.
"""

import random
import time
from fractions import Fraction

import pytest

from rsexact.cli import main as cli_main
from rsexact.cuspchar import BesselFunction, bessel_convolution_holds
# criterion 10 is fixed text, and it names the constructor cuspidal_character
from rsexact.cuspchar import CuspidalCharacter as cuspidal_character
from rsexact.cyclo import CycNumber, cyc_embed_root
from rsexact.errors import NonBanal
from rsexact.finitefield import AddChar, MultChar, gf
from rsexact.integral import (
    RSPair,
    _is_q_power,
    expected_main_factor,
    oracle_check,
    rankin_selberg_I,
    verify_main_theorem,
)
from rsexact.lmodular import verify_corollary
from rsexact.matgroups import enumerate_group, identity, mat_inverse, order_gl
from rsexact.padic import PadicMatrix, pk_cell_reps
from rsexact.ratfun import euler_normalize, series_coefficients
from rsexact.simpletypes import l_factor, make_type

from reference import character_invariants, iwasawa_PZK


# ---------------------------------------------------------------------------
# enumeration helpers


def regular_thetas(q: int, n: int) -> list:
    mod = q**n - 1
    out = []
    for t in range(mod):
        orbit = {t * q**s % mod for s in range(n)}
        if len(orbit) == n:
            out.append(t)
    return out


def dual_partners(q: int, n: int, t1: int) -> list:
    mod = q**n - 1
    return sorted({(-t1 * q**s) % mod for s in range(n)})


def ordered_dual_pairs(q: int, n: int) -> list:
    return [
        (t1, t2) for t1 in regular_thetas(q, n) for t2 in dual_partners(q, n, t1)
    ]


def closed_form_mu(pair: RSPair, I) -> Fraction:
    """Extract mu from I = mu (q-1)(q^{n/e}-1) / (1 - kappa X^{n/e})."""
    c0 = series_coefficients(I, 0)[0]
    step = pair.n_over_e
    return c0.rational_value() / ((pair.q - 1) * (pair.q**step - 1))


@pytest.fixture
def announce(capsys):
    def _announce(k: int):
        with capsys.disabled():
            print(f"\nACCEPTANCE {k}: PASS")

    return _announce


@pytest.fixture(scope="session")
def battery_reports():
    """Full diagnostic battery for one configured run per family and size."""
    reports = {}
    for q in (2, 3, 5):
        t1 = make_type("depth-zero", q, theta=1)
        t2 = make_type(**t1.dual_params())
        reports[("depth-zero", q, 2)] = verify_main_theorem(t1, t2)
    for p in (3, 5):
        s1 = make_type("ramified", p, sigma=1)
        s2 = make_type(**s1.dual_params())
        reports[("ramified", p, 2)] = verify_main_theorem(s1, s2)
    g1 = make_type("depth-zero", 2, n=3, theta=1)
    g2 = make_type(**g1.dual_params())
    reports[("depth-zero", 2, 3)] = verify_main_theorem(g1, g2)
    return reports


# ---------------------------------------------------------------------------
# 1. depth-zero main theorem, untwisted


def test_criterion_01_depth_zero_main_theorem(announce):
    expected_pair_counts = {2: 4, 3: 12, 5: 40}
    for q in (2, 3, 5):
        pairs = ordered_dual_pairs(q, 2)
        assert len(pairs) == expected_pair_counts[q]
        for t1_idx, t2_idx in pairs:
            start = time.monotonic()
            t1 = make_type("depth-zero", q, theta=t1_idx)
            t2 = make_type("depth-zero", q, theta=t2_idx)
            pair = RSPair(t1, t2)
            assert pair.applicable
            I = rankin_selberg_I(pair)
            mu = closed_form_mu(pair, I)
            assert _is_q_power(mu, q)
            assert I == expected_main_factor(pair, mu)
            assert time.monotonic() - start < 10.0
    announce(1)


# ---------------------------------------------------------------------------
# 2. depth-zero main theorem, twisted uniformizer scalar


def test_criterion_02_depth_zero_twisted(announce):
    minus_one = CycNumber.from_fraction(Fraction(-1))
    zeta4 = cyc_embed_root(4, 1)
    for q in (2, 3, 5):
        for t1_idx, t2_idx in ordered_dual_pairs(q, 2):
            for c in (minus_one, zeta4):
                t1 = make_type("depth-zero", q, theta=t1_idx)
                t2 = make_type("depth-zero", q, theta=t2_idx, A=c)
                pair = RSPair(t1, t2)
                assert pair.kappa == c
                I = rankin_selberg_I(pair)
                mu = closed_form_mu(pair, I)
                assert _is_q_power(mu, q)
                # denominator is exactly 1 - A1 A2 X^2 ...
                assert I == expected_main_factor(pair, mu)
                # ... and the Euler normalization reproduces l_factor
                factor, scalar, shift = euler_normalize(I)
                assert factor == l_factor(t1, t2)
                assert shift == 0
                assert scalar == mu * (q - 1) * (q**2 - 1)
    announce(2)


# ---------------------------------------------------------------------------
# 3. ramified main theorem


def test_criterion_03_ramified_main_theorem(announce):
    zeta4 = cyc_embed_root(4, 1)
    for p in (3, 5):
        # slot 1 carries the psi_t Whittaker model (orientation +1), the
        # dual partner the psi_t^{-1} model (orientation -1)
        for sigma in range(p - 1):
            start = time.monotonic()
            t1 = make_type("ramified", p, sigma=sigma, orientation=1)
            t2 = make_type(**t1.dual_params())
            assert t2.orientation == -1
            pair = RSPair(t1, t2)
            assert pair.applicable
            I = rankin_selberg_I(pair)
            mu = closed_form_mu(pair, I)
            assert _is_q_power(mu, p)
            assert I == expected_main_factor(pair, mu)
            assert time.monotonic() - start < 60.0
    # nontrivial uniformizer scalars move the denominator to 1 - A1 A2 X
    for c in (CycNumber.from_fraction(Fraction(-1)), zeta4):
        t1 = make_type("ramified", 3, sigma=1)
        params = t1.dual_params()
        params["A"] = c
        t2 = make_type(**params)
        pair = RSPair(t1, t2)
        assert pair.kappa == c
        I = rankin_selberg_I(pair)
        mu = closed_form_mu(pair, I)
        assert I == expected_main_factor(pair, mu)
        factor, _, shift = euler_normalize(I)
        assert factor == l_factor(t1, t2) and shift == 0
    announce(3)


# ---------------------------------------------------------------------------
# 4. oracle equivalence


def test_criterion_04_oracle_equivalence(announce):
    runs = []
    for q in (2, 3):
        t1 = make_type("depth-zero", q, theta=1)
        runs.append(RSPair(t1, make_type(**t1.dual_params())))
    s1 = make_type("ramified", 3, sigma=1)
    runs.append(RSPair(s1, make_type(**s1.dual_params())))
    for pair in runs:
        rows = oracle_check(pair, kmax=6, window=4)
        assert [r["k"] for r in rows] == list(range(7))
        assert all(r["match"] for r in rows)
    announce(4)


# ---------------------------------------------------------------------------
# 5. Bessel suite


def test_criterion_05_bessel_suite(announce):
    for q in (2, 3, 5):
        field = gf(q)
        chi = cuspidal_character(MultChar(gf(q, 2), 1))
        psi = AddChar(field, 1)
        J = BesselFunction(chi, psi)
        Jdual = BesselFunction(chi.dual(), psi.inverse())
        G = enumerate_group(q, 2)
        assert J.value(identity(2)) == 1
        assert all(Jdual.value(g) == J.value(mat_inverse(g, q)) for g in G)
        if q == 2:
            pairs = [(g1, g2) for g1 in G for g2 in G]
            assert len(pairs) == 36
        else:
            rng = random.Random(100 + q)
            pairs = [(rng.choice(G), rng.choice(G)) for _ in range(200)]
        assert bessel_convolution_holds(J, pairs)
    announce(5)


# ---------------------------------------------------------------------------
# 6. support propositions on every engine cell


def test_criterion_06_cell_support_propositions(announce, battery_reports):
    for key, report in battery_reports.items():
        assert report.checks["slice_pattern"], key
        assert report.checks["row_law"], key
        assert report.checks["unit_shell_values"], key
        # explicit per-cell sweep: every stored slice value is 0 or kappa^k
        kappa = report.pair.kappa
        for cell in report.cell_log:
            for k, value in cell.slices.items():
                assert value == report.pair.scal.zero() or value == kappa**k, (
                    key,
                    cell.row,
                    k,
                )
    announce(6)


# ---------------------------------------------------------------------------
# 7. shell constancy, single mu / u / lambda_vol, all q-powers


def test_criterion_07_shell_diagnostics(announce, battery_reports):
    for (family, p, n), report in battery_reports.items():
        assert report.checks["shell_constancy"], (family, p, n)
        assert report.checks["cell_mass"], (family, p, n)
        assert report.checks["j1_average"], (family, p, n)
        assert report.checks["closed_form_identity"], (family, p, n)
        assert _is_q_power(Fraction(report.mu), p)
        assert _is_q_power(Fraction(report.u), p)
        assert _is_q_power(Fraction(report.lambda_vol), p)
    announce(7)


# ---------------------------------------------------------------------------
# 8. measure consistency


def test_criterion_08_measure_consistency(announce):
    for q in (2, 3, 5):
        for n in (2, 3):
            # the (P cap K)\K/K^m cells of the pair's level carry the mass
            # |GL_n(F_q)| / |P_n(F_q)| of (P cap K)\K, at depth zero and,
            # for n = 2 and odd q, in the ramified family
            families = [("depth-zero", {"theta": 1})]
            if n == 2 and q > 2:
                families.append(("ramified", {"sigma": 1}))
            for family, index in families:
                t1 = make_type(family, q, n=n, **index)
                pair = RSPair(t1, make_type(**t1.dual_params()))
                cells = len(pk_cell_reps(q, n, pair.level))
                assert cells * pair.nu == Fraction(
                    order_gl(q, n), order_gl(q, n - 1) * q ** (n - 1)
                )
            # dg = dp dz dk: the Iwasawa factorization realizes the splitting
            g = PadicMatrix.diagonal(
                [Fraction(q**2)] + [Fraction(1)] * (n - 1)
            ) * PadicMatrix(
                [[1 if i <= j else q for j in range(n)] for i in range(n)]
            )
            p_part, l, k = iwasawa_PZK(g, q)
            z = PadicMatrix.diagonal([Fraction(q) ** l] * n)
            assert p_part * z * k == g
            assert k.in_K(q)
            bottom = [p_part.entry(n - 1, j) for j in range(n)]
            assert bottom == [Fraction(0)] * (n - 1) + [Fraction(1)]
    announce(8)


# ---------------------------------------------------------------------------
# 9. l-modular corollary


def test_criterion_09_l_modular_corollary(announce, capsys):
    cases = []
    for q, ells in ((2, (5,)), (3, (5, 7))):
        t1 = make_type("depth-zero", q, theta=1)
        t2 = make_type(**t1.dual_params())
        for ell in ells:
            cases.append((t1, t2, ell))
    s1 = make_type("ramified", 3, sigma=1)
    cases.append((s1, make_type(**s1.dual_params()), 5))
    for t1, t2, ell in cases:
        report = verify_corollary(t1, t2, ell)
        assert report.match, (t1.family, t1.p, ell)
        assert all(bool(v) for v in report.checks.values())
    # the non-banal case is refused, both as an exception and as exit code 3
    t1 = make_type("depth-zero", 2, theta=1)
    with pytest.raises(NonBanal):
        verify_corollary(t1, make_type(**t1.dual_params()), 3)
    code = cli_main(["reduce", "--q", "2", "--theta", "1", "--ell", "3"])
    capsys.readouterr()
    assert code == 3
    announce(9)


# ---------------------------------------------------------------------------
# 10. cuspidal character certification


def test_criterion_10_character_certification(announce):
    for q in (2, 3, 5):
        for t in regular_thetas(q, 2):
            chi = cuspidal_character(MultChar(gf(q, 2), t))
            invariants = character_invariants(chi)
            assert all(invariants.values()), (q, t, invariants)
            assert chi.value(identity(2)) == q - 1
    # the GL_3 characters pass the same exhaustive suite
    for t in regular_thetas(2, 3):
        chi = cuspidal_character(MultChar(gf(2, 3), t))
        invariants = character_invariants(chi)
        assert all(invariants.values()), (t, invariants)
    announce(10)
