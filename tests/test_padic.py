"""Tests for exact p-adic matrices, Iwasawa decompositions and measures."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rsexact.cyclo import CycNumber, cyc_embed_root
from rsexact.errors import DepthExceeded
from rsexact.matgroups import order_gl
from rsexact.padic import (
    PadicMatrix,
    iwasawa_NAK,
    ng_cell_volume,
    ng_shell,
    nk_cell_count,
    nk_cell_reps,
    pk_cell_reps,
    unimodular_rows,
    vp_int,
)
from rsexact.integral import RSPair, c_k_bruteforce
from rsexact.simpletypes import DEPTH_ZERO, RAMIFIED, make_type

from reference import int_mod, iwasawa_PZK, theta_eval, upper_unipotent, val_p

# -- valuations and scalar helpers ---------------------------------------


def test_val_p_basics():
    assert val_p(0, 3) == math.inf
    assert val_p(9, 3) == 2
    assert val_p(Fraction(2, 9), 3) == -2
    assert val_p(Fraction(6, 5), 3) == 1
    assert val_p(7, 3) == 0


def naive_vp(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


@given(st.sampled_from((2, 3, 5, 7)),
       st.one_of(st.integers(0, 40), st.integers(0, 4000)),
       st.integers(0, 10**6), st.integers(1, 6), st.booleans())
@settings(max_examples=200, deadline=None)
def test_vp_int_matches_the_one_factor_reference(p, v, unit, r, negative):
    # p^v times a unit unit * p + (1 + r mod (p - 1)): shallow and deep
    # valuations, both signs
    n = p**v * (unit * p + 1 + r % (p - 1))
    if negative:
        n = -n
    assert vp_int(n, p) == naive_vp(n, p) == v


def test_int_mod():
    assert int_mod(Fraction(1, 2), 3, 2) == 5  # 2 * 5 = 10 = 1 mod 9
    assert int_mod(7, 2, 2) == 3
    with pytest.raises(ValueError):
        int_mod(Fraction(1, 3), 3, 1)


# -- additive character --------------------------------------------------


def test_theta_frozen_values():
    assert theta_eval(3, 3, cap=2) == cyc_embed_root(1, 0)
    assert theta_eval(3, 1, cap=2) == cyc_embed_root(3, 1)
    assert theta_eval(3, Fraction(1, 3), cap=2) == cyc_embed_root(9, 1)
    assert theta_eval(3, Fraction(2, 3), cap=2) == cyc_embed_root(9, 2)
    assert theta_eval(5, 2, cap=1) == cyc_embed_root(5, 2)


def test_theta_trivial_on_p_integers():
    for x in (0, 3, 6, Fraction(12, 5), Fraction(9, 2)):
        assert theta_eval(3, x, cap=2).is_rational()
        assert theta_eval(3, x, cap=2) == cyc_embed_root(1, 0)


def test_theta_additivity():
    rng = random.Random(7)
    for _ in range(40):
        x = Fraction(rng.randrange(-20, 20), 3 ** rng.randrange(0, 3))
        y = Fraction(rng.randrange(-20, 20), 3 ** rng.randrange(0, 3))
        assert theta_eval(3, x + y, cap=2) == theta_eval(3, x, cap=2) * theta_eval(
            3, y, cap=2
        )


def test_theta_depth_cap():
    with pytest.raises(DepthExceeded):
        theta_eval(3, Fraction(1, 27), cap=2)
    assert theta_eval(3, Fraction(1, 27), cap=3) == cyc_embed_root(81, 1)


# -- matrix algebra ------------------------------------------------------


def test_matrix_inverse_and_det():
    rng = random.Random(11)
    for n in (2, 3):
        done = 0
        while done < 15:
            g = PadicMatrix(
                [
                    [Fraction(rng.randrange(-6, 7), rng.choice([1, 3, 9])) for _ in range(n)]
                    for _ in range(n)
                ]
            )
            if not g.det():
                continue
            done += 1
            assert g * g.inverse() == PadicMatrix.identity(n)
            h = PadicMatrix([[rng.randrange(-4, 5) for _ in range(n)] for _ in range(n)])
            assert (g * h).det() == g.det() * h.det()


def test_in_K():
    assert PadicMatrix([[1, 2], [3, 4]]).in_K(3)  # det -2 is a 3-unit
    assert not PadicMatrix([[1, 2], [3, 4]]).in_K(2)
    assert not PadicMatrix([[Fraction(1, 3), 0], [0, 1]]).in_K(3)


def test_mod_p_reduction():
    # the depth-zero kernel class of j is j mod p, as int rows
    t = make_type(DEPTH_ZERO, 3, theta=1)
    assert t.kernel_class(PadicMatrix([[Fraction(1, 2), 4], [6, -1]])) == ((2, 1), (0, 2))


def test_upper_unipotent():
    u = upper_unipotent({(0, 1): Fraction(1, 3)}, 2)
    assert u.rows == ((Fraction(1), Fraction(1, 3)), (Fraction(0), Fraction(1)))
    with pytest.raises(ValueError):
        upper_unipotent({(1, 0): 1}, 2)


# -- Iwasawa decompositions ----------------------------------------------


def test_nak_diagonal_and_swap():
    p = 3
    g = PadicMatrix.diagonal([9, 1])
    n, vals, k = iwasawa_NAK(g, p)
    assert vals == (2, 0)
    assert n == PadicMatrix.identity(2)
    assert k == PadicMatrix.identity(2)

    w = PadicMatrix([[0, p], [1, 0]])
    n, vals, k = iwasawa_NAK(w, p)
    assert vals == (1, 0)
    assert n == PadicMatrix.identity(2)
    assert k == PadicMatrix([[0, 1], [1, 0]])


def _random_matrix(rng, n, p):
    while True:
        g = PadicMatrix(
            [
                [
                    Fraction(rng.randrange(-8, 9), p ** rng.randrange(0, 3))
                    for _ in range(n)
                ]
                for _ in range(n)
            ]
        )
        if g.det():
            return g


def _random_K(rng, n, p):
    while True:
        g = PadicMatrix([[rng.randrange(-p * p, p * p + 1) for _ in range(n)] for _ in range(n)])
        if g.det() and val_p(g.det(), p) == 0:
            return g


@pytest.mark.parametrize("n,p", [(2, 2), (2, 3), (3, 3), (3, 5)])
def test_nak_random_reconstruction(n, p):
    rng = random.Random(100 * n + p)
    for _ in range(20):
        g = _random_matrix(rng, n, p)
        nm, vals, k = iwasawa_NAK(g, p)  # reconstruction asserted internally
        for i in range(n):
            assert nm.entry(i, i) == 1
            for j in range(i):
                assert nm.entry(i, j) == 0


def test_nak_valuation_vector_invariance():
    p, n = 3, 2
    rng = random.Random(5)
    for _ in range(15):
        g = _random_matrix(rng, n, p)
        _, vals, _ = iwasawa_NAK(g, p)
        u = upper_unipotent({(0, 1): Fraction(rng.randrange(-9, 9), p)}, n)
        k0 = _random_K(rng, n, p)
        _, vals2, _ = iwasawa_NAK(u * g * k0, p)
        assert vals2 == vals


def test_pzk_shape_and_reconstruction():
    p = 3
    rng = random.Random(9)
    for n in (2, 3):
        for _ in range(10):
            g = _random_matrix(rng, n, p)
            p_part, l, k = iwasawa_PZK(g, p)
            assert p_part.rows[-1] == tuple(
                Fraction(1 if j == n - 1 else 0) for j in range(n)
            )
            z = PadicMatrix.diagonal([Fraction(p) ** l] * n)
            assert p_part * z * k == g


def test_pzk_ramified_uniformizer():
    p = 3
    w = PadicMatrix([[0, p], [1, 0]])
    p_part, l, k = iwasawa_PZK(w, p)
    assert l == 0
    assert p_part == PadicMatrix.diagonal([p, 1])
    assert k == PadicMatrix([[0, 1], [1, 0]])


# -- measures -------------------------------------------------------------


@pytest.mark.parametrize("family,p,n,index", [
    (DEPTH_ZERO, 2, 2, 1), (DEPTH_ZERO, 3, 2, 1), (DEPTH_ZERO, 5, 2, 2),
    (DEPTH_ZERO, 2, 3, 1), (DEPTH_ZERO, 3, 3, 1),
    (RAMIFIED, 3, 2, 1), (RAMIFIED, 5, 2, 1),
])
def test_quotient_cells_add_up_to_the_mass_of_the_quotient(family, p, n, index):
    # nu is the mass of one (P cap K)\K/K^m cell; the cells of every level
    # add up to the mass |GL_n(F_q)| / |P_n(F_q)| of (P cap K)\K
    key = "theta" if family == DEPTH_ZERO else "sigma"
    t1 = make_type(family, p, n=n, **{key: index})
    pair = RSPair(t1, make_type(**t1.dual_params()))
    cells = len(pk_cell_reps(p, n, pair.level))
    assert cells * pair.nu == Fraction(order_gl(p, n), order_gl(p, n - 1) * p ** (n - 1))


# -- coset cells ---------------------------------------------------------


@pytest.mark.parametrize(
    "p,n,m,count",
    [(3, 2, 1, 8), (2, 2, 2, 12), (3, 2, 2, 72), (5, 2, 2, 600), (2, 3, 1, 7), (3, 3, 1, 26)],
)
def test_unimodular_row_counts(p, n, m, count):
    rows = unimodular_rows(p, n, m)
    assert len(rows) == count
    assert len(set(rows)) == count


def test_pk_cell_reps_in_K():
    for p, n, m in [(3, 2, 1), (2, 3, 1), (3, 2, 2)]:
        for row, g in pk_cell_reps(p, n, m):
            assert g.in_K(p)
            assert tuple(int_mod(e, p, m) for e in g.rows[-1]) == row


def _inverse_mod(g, p, m):
    mod = p**m
    a, b = g.rows[0]
    c, d = g.rows[1]
    det = int_mod(a * d - b * c, p, m)
    inv = pow(det, -1, mod)
    return [[d * inv % mod, -b * inv % mod], [-c * inv % mod, a * inv % mod]]


def _all_gl2_mod(p, m):
    mod = p**m
    out = []
    for a in range(mod):
        for b in range(mod):
            for c in range(mod):
                for d in range(mod):
                    if (a * d - b * c) % p:
                        out.append(PadicMatrix([[a, b], [c, d]]))
    return out


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (2, 2)])
def test_pk_cells_partition(p, m):
    """Every class in GL_2(Z/p^m) lies over exactly one bottom-row representative."""
    mod = p**m
    reps = pk_cell_reps(p, 2, m)
    for g in _all_gl2_mod(p, m):
        hits = 0
        for _, r in reps:
            q = [
                [
                    sum(int(g.rows[i][k]) * _inverse_mod(r, p, m)[k][j] for k in range(2)) % mod
                    for j in range(2)
                ]
                for i in range(2)
            ]
            if q[1][0] % mod == 0 and q[1][1] % mod == 1:
                hits += 1
        assert hits == 1


@pytest.mark.parametrize("p,m,count", [(2, 1, 3), (3, 1, 16), (2, 2, 24), (3, 2, 432)])
def test_nk_cell_counts(p, m, count):
    reps = nk_cell_reps(p, m)
    assert len(reps) == count == nk_cell_count(p, m)
    for r in reps:
        assert r.in_K(p)


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (2, 2)])
def test_nk_cells_partition(p, m):
    mod = p**m
    reps = nk_cell_reps(p, m)
    for g in _all_gl2_mod(p, m):
        hits = 0
        for r in reps:
            q = [
                [
                    sum(int(g.rows[i][k]) * _inverse_mod(r, p, m)[k][j] for k in range(2)) % mod
                    for j in range(2)
                ]
                for i in range(2)
            ]
            if q[0][0] == 1 and q[1][1] == 1 and q[1][0] == 0:
                hits += 1
        assert hits == 1


def test_nk_cell_reps_are_built_once():
    reps = nk_cell_reps(3, 2)
    assert isinstance(reps, tuple)
    assert nk_cell_reps(3, 2) is reps


@given(p=st.sampled_from([2, 3, 5]), m=st.sampled_from([1, 2]),
       v1=st.integers(-4, 4), v2=st.integers(-4, 4))
@settings(max_examples=60, deadline=None)
def test_ng_shell_matches_row_scaling(p, m, v1, v2):
    # the points the oracle walked before ng_shell: two row scalings per rep
    x1, x2 = Fraction(p) ** v1, Fraction(p) ** v2
    old = [kbar.scale_row(0, x1).scale_row(1, x2) for kbar in nk_cell_reps(p, m)]
    assert list(ng_shell(p, m, (v1, v2))) == old


def test_ramified_oracle_builds_points_without_row_scaling(monkeypatch):
    t1 = make_type(RAMIFIED, 3, sigma=1)
    pair = RSPair(t1, make_type(**t1.dual_params()))
    misses = nk_cell_reps.cache_info().misses

    def refuse(*args):
        raise AssertionError("scale_row called by the oracle")

    monkeypatch.setattr(PadicMatrix, "scale_row", refuse)
    for k in range(7):
        c_k_bruteforce(pair, k)
    assert nk_cell_reps.cache_info().misses - misses <= 1


def test_nk_total_mass_matches_quotient():
    # sum of canonical cell volumes over one valuation slice equals
    # vol(K)/vol(N cap K) = (q-1)(q^2-1) independently of the level
    for p in (2, 3, 5):
        for m in (1, 2):
            total = len(nk_cell_reps(p, m)) * ng_cell_volume(p, 2, m, (0, 0))
            assert total == (p - 1) * (p * p - 1)


def test_ng_cell_volume_values():
    assert ng_cell_volume(3, 2, 1, (0, 0)) == 1
    assert ng_cell_volume(3, 2, 1, (2, 0)) == 9
    assert ng_cell_volume(3, 2, 2, (1, 0)) == Fraction(3, 27)
    assert ng_cell_volume(2, 3, 1, (1, 0, -1)) == 2 ** (1 + 2 + 1)


def test_central_orbits_on_rows():
    # scalar units act freely on unimodular rows; fibers all have phi(p^m) size
    for p, n, m in [(2, 2, 1), (3, 2, 1), (3, 2, 2), (2, 3, 1)]:
        mod = p**m
        units = [u for u in range(mod) if u % p]
        rows = set(unimodular_rows(p, n, m))
        seen = set()
        orbits = 0
        for r in sorted(rows):
            if r in seen:
                continue
            orbit = {tuple(u * x % mod for x in r) for u in units}
            assert len(orbit) == len(units)
            assert orbit <= rows
            seen |= orbit
            orbits += 1
        assert orbits * len(units) == len(rows)
