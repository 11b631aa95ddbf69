"""Tests for cuspidal type data, lambda characters and Whittaker vectors."""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rsexact.cuspchar import BesselFunction
from rsexact.cyclo import CycNumber, CycScalars, cyc_embed_root
from rsexact.errors import (
    EvenResidualCharacteristic,
    FamilyMismatch,
    NondegeneracyFailure,
    NotRegular,
)
from rsexact.finitefield import AddChar, gf
from rsexact.padic import PadicMatrix
from rsexact.simpletypes import (
    DEPTH_ZERO,
    RAMIFIED,
    WhittakerFunction,
    is_dual_pair,
    l_factor,
    make_type,
    support_decompose,
)

from reference import (
    NotInU,
    extended_psi_on_U,
    in_J1,
    lam,
    psi_t_eval,
    theta_eval,
    upper_unipotent,
    val_p,
)

SCAL = CycScalars()


# -- reference implementations used as oracles ---------------------------


def _search_decompose(data, g, w):
    """Windowed search for g = n(x) w_E^i j_0 in the ramified family.

    Scans the exponent i and a denominator-bounded grid of x values and
    returns every decomposition found (as evaluated Whittaker-style values
    psi(x) * lambda(j_0)), without using the exact membership conditions.
    """
    p = data.p
    wmat = data.uniformizer()
    results = []
    for i in range(-w, w + 1):
        wpow = PadicMatrix.identity(2)
        for _ in range(abs(i)):
            wpow = wpow * (wmat if i > 0 else wmat.inverse())
        for a in range(p ** (w + 2)):
            x = Fraction(a, p**w)
            j0 = wpow.inverse() * (upper_unipotent({(0, 1): -x}, 2) * g)
            if data.in_J(j0):
                val = psi_t_eval(data, upper_unipotent({(0, 1): x}, 2), SCAL)
                results.append((i, val * lam(data, j0, SCAL)))
    return results


def _random_J_element(rng, data):
    p = data.p
    r = rng.randrange(1, p)
    y = PadicMatrix(
        [
            [p * rng.randrange(-3, 4), p * rng.randrange(-3, 4)],
            [rng.randrange(-3, 4), p * rng.randrange(-3, 4)],
        ]
    )
    base = PadicMatrix([[r + y.entry(0, 0), y.entry(0, 1)], [y.entry(1, 0), r + y.entry(1, 1)]])
    assert data.in_J(base)
    return base


# -- constructor validation ----------------------------------------------


def test_make_type_validation():
    with pytest.raises(NotRegular):
        make_type(DEPTH_ZERO, 3, n=2, theta=4)  # fixed by Frobenius
    with pytest.raises(NotRegular):
        make_type(DEPTH_ZERO, 3, n=2, theta=0)
    with pytest.raises(EvenResidualCharacteristic):
        make_type(RAMIFIED, 2, sigma=0)
    with pytest.raises(NondegeneracyFailure):
        make_type(RAMIFIED, 3, sigma=0, orientation=2)
    with pytest.raises(ValueError):
        make_type(DEPTH_ZERO, 3, n=4, theta=1)
    with pytest.raises(ValueError):
        make_type(DEPTH_ZERO, 3, n=2)
    with pytest.raises(ValueError):
        make_type(RAMIFIED, 3)
    with pytest.raises(ValueError):
        make_type("unknown", 3)
    with pytest.raises(ValueError):
        make_type(DEPTH_ZERO, 3, theta=1, A=0)


def test_type_shapes():
    t = make_type(DEPTH_ZERO, 3, n=2, theta=1)
    assert (t.e, t.n_over_e, t.cap, t.level) == (1, 2, 1, 1)
    assert t.vol_J1 == 1
    r = make_type(RAMIFIED, 3, sigma=1)
    assert (r.e, r.n_over_e, r.cap, r.level) == (2, 1, 2, 2)
    assert r.vol_J1 == 3


def test_depth_zero_chain():
    t = make_type(DEPTH_ZERO, 3, n=2, theta=1)
    assert t.uniformizer() == PadicMatrix.diagonal([3, 3])
    assert t.t_exponents == (0, 0)


def _lattice_exponent_pair(m, p):
    """Sorted elementary-divisor exponents of the lattice spanned by m's columns."""
    vdet = val_p(m.det(), p)
    vmin = min(val_p(e, p) for row in m.rows for e in row if e)
    return (vmin, vdet - vmin)


def test_ramified_chain_offsets_and_uniformizer():
    p = 3
    t = make_type(RAMIFIED, p, sigma=1)
    assert t.n == 2
    assert t.t_exponents == (-1, 0)
    w = t.uniformizer()
    assert w * w == PadicMatrix.diagonal([p, p])
    # working-basis offsets of w^k Z_p^2 for k = 0..3
    expected = [(0, 0), (0, 1), (1, 1), (1, 2)]
    acc = PadicMatrix.identity(2)
    for k in range(4):
        assert _lattice_exponent_pair(acc, p) == expected[k]
        acc = w * acc


# -- membership ----------------------------------------------------------


def test_ramified_membership():
    t = make_type(RAMIFIED, 3, sigma=0)
    assert t.in_J(PadicMatrix.identity(2))
    assert t.in_J(PadicMatrix([[1, 0], [1, 1]]))
    assert t.in_J(PadicMatrix([[1, 3], [0, 4]]))
    assert t.in_J(PadicMatrix([[2, 0], [0, 2]]))
    assert not t.in_J(PadicMatrix([[1, 1], [0, 1]]))  # upper-right not in p
    assert not t.in_J(PadicMatrix([[1, 0], [0, 2]]))  # diagonals differ mod p
    assert t.in_order_units(PadicMatrix([[1, 0], [0, 2]]))
    assert not t.in_J(PadicMatrix([[0, 3], [1, 0]]))  # the uniformizer
    assert in_J1(t, PadicMatrix([[4, 3], [2, 1]]))
    assert not in_J1(t, PadicMatrix([[2, 3], [2, 1]]))


# -- the character lambda ------------------------------------------------


def test_lambda_frozen_values():
    t = make_type(RAMIFIED, 3, sigma=0)
    assert lam(t, PadicMatrix.identity(2), SCAL) == SCAL.one()
    # 1 + p e_12: beta-trace p/p = 1
    assert lam(t, PadicMatrix([[1, 3], [0, 1]]), SCAL) == cyc_embed_root(3, 1)
    # 1 + e_21: beta-trace 1
    assert lam(t, PadicMatrix([[1, 0], [1, 1]]), SCAL) == cyc_embed_root(3, 1)
    ts = make_type(RAMIFIED, 3, sigma=1)
    assert lam(ts, PadicMatrix.diagonal([2, 2]), SCAL) == SCAL.from_fraction(Fraction(-1))
    tneg = make_type(RAMIFIED, 3, sigma=0, orientation=-1)
    assert lam(tneg, PadicMatrix([[1, 0], [1, 1]]), SCAL) == cyc_embed_root(3, 2)


def test_lambda_rejects_outside_J():
    # kernel_class does not test membership, so lambda is read only at the
    # j_0 of a support decomposition, which lies in J
    t = make_type(RAMIFIED, 3, sigma=0)
    g = PadicMatrix([[1, 1], [0, 1]])
    assert not t.in_J(g)
    _, _, j0 = support_decompose(t, g)
    assert t.in_J(j0)


@pytest.mark.parametrize("p,sigma,orientation", [(3, 0, 1), (3, 1, -1), (5, 2, 1)])
def test_lambda_is_multiplicative(p, sigma, orientation):
    t = make_type(RAMIFIED, p, sigma=sigma, orientation=orientation)
    rng = random.Random(10 * p + sigma)
    for _ in range(25):
        a = _random_J_element(rng, t)
        b = _random_J_element(rng, t)
        assert lam(t, a * b, SCAL) == lam(t, a, SCAL) * lam(t, b, SCAL)


def test_lambda_central_scalar_factorization():
    t = make_type(RAMIFIED, 5, sigma=1)
    rng = random.Random(3)
    for _ in range(10):
        h = _random_J_element(rng, t)
        r = 3
        scaled = h * Fraction(r)
        assert lam(t, scaled, SCAL) == t.central_unit_value(r, SCAL) * lam(t, h, SCAL)


# -- psi_t ---------------------------------------------------------------


def test_psi_t_values():
    dz = make_type(DEPTH_ZERO, 3, n=2, theta=1)
    assert psi_t_eval(dz, upper_unipotent({(0, 1): 1}, 2), SCAL) == cyc_embed_root(3, 1)
    assert psi_t_eval(dz, upper_unipotent({(0, 1): 3}, 2), SCAL) == SCAL.one()
    ram = make_type(RAMIFIED, 3, sigma=0)
    assert psi_t_eval(ram, upper_unipotent({(0, 1): 1}, 2), SCAL) == cyc_embed_root(9, 1)
    assert psi_t_eval(ram, upper_unipotent({(0, 1): 3}, 2), SCAL) == cyc_embed_root(3, 1)
    assert psi_t_eval(ram, upper_unipotent({(0, 1): 1}, 2), SCAL, sign=-1) == cyc_embed_root(9, 8)
    dz3 = make_type(DEPTH_ZERO, 2, n=3, theta=1)
    u = upper_unipotent({(0, 1): 1, (1, 2): 1, (0, 2): 7}, 3)
    assert psi_t_eval(dz3, u, SCAL) == SCAL.one()  # 1 + 1 = 0 mod 2


@pytest.mark.parametrize("orientation", [1, -1])
def test_lambda_matches_psi_on_overlap(orientation):
    """On N cap J^1 the character lambda equals psi_t^{orientation}."""
    t = make_type(RAMIFIED, 3, sigma=1, orientation=orientation)
    for x in (3, 6, 9, 12, Fraction(3, 2)):
        n = upper_unipotent({(0, 1): x}, 2)
        assert lam(t, n, SCAL) == psi_t_eval(t, n, SCAL, sign=orientation)


# -- support decomposition -----------------------------------------------


def test_depth_zero_support():
    t = make_type(DEPTH_ZERO, 3, n=2, theta=1)
    k = PadicMatrix([[1, 2], [0, 1]])
    dec = support_decompose(t, k)
    assert dec == (0, PadicMatrix.identity(2), k)
    assert support_decompose(t, PadicMatrix.diagonal([3, 1])) is None
    g = upper_unipotent({(0, 1): Fraction(1, 3)}, 2) * PadicMatrix.diagonal([3, 3]) * k
    i, nm, j0 = support_decompose(t, g)
    assert i == 1
    assert nm * PadicMatrix.diagonal([3, 3]) * j0 == g


def test_depth_zero_support_gl3():
    t = make_type(DEPTH_ZERO, 2, n=3, theta=1)
    g = PadicMatrix([[0, 2, 0], [0, 0, 2], [2, 0, 0]])  # 2 * permutation
    dec = support_decompose(t, g)
    assert dec is not None and dec[0] == 1
    assert support_decompose(t, PadicMatrix.diagonal([2, 1, 1])) is None


def test_ramified_support_roundtrip():
    p = 3
    t = make_type(RAMIFIED, p, sigma=1)
    rng = random.Random(17)
    w = t.uniformizer()
    for _ in range(30):
        j0 = _random_J_element(rng, t)
        i = rng.randrange(-2, 4)
        x = Fraction(rng.randrange(-20, 21), p ** rng.randrange(0, 2))
        g = upper_unipotent({(0, 1): x}, 2)
        wp = PadicMatrix.identity(2)
        for _ in range(abs(i)):
            wp = wp * (w if i > 0 else w.inverse())
        g = g * wp * j0
        dec = support_decompose(t, g)
        assert dec is not None
        ii, nm, jj = dec
        assert ii == i
        assert nm * wp * jj == g


def _uniformizer_power(data, i: int) -> PadicMatrix:
    w = data.uniformizer()
    out = PadicMatrix.identity(data.n)
    for _ in range(abs(i)):
        out = out * (w if i > 0 else w.inverse())
    return out


@st.composite
def support_points(draw):
    """(type, g, on_support): an n = 2 type of either family and a point g of
    GL_2(Q_p), either built as n(x) w_E^i j with j in J, so on the support,
    or with arbitrary entries over a denominator p^k u."""
    p = draw(st.sampled_from((3, 5, 7, 11)))
    if draw(st.booleans()):
        data = make_type(RAMIFIED, p, sigma=1)
    else:
        data = make_type(DEPTH_ZERO, p, theta=1)
    ints = st.integers(-p**3, p**3)
    if draw(st.booleans()):
        k, u = draw(st.integers(0, 3)), draw(st.sampled_from((1, 2, 4)))
        rows = [[draw(ints) for _ in range(2)] for _ in range(2)]
        assume(rows[0][0] * rows[1][1] != rows[0][1] * rows[1][0])
        return data, PadicMatrix.from_ints(rows, p**k * u), False
    r = draw(st.integers(1, p - 1))
    a, b, c, d = (draw(ints) for _ in range(4))
    if data.family == RAMIFIED:
        j = PadicMatrix.from_ints([[r + p * a, p * b], [c, r + p * d]])
    else:
        j = PadicMatrix.from_ints([[r + p * a, p * b], [c, 1 + p * d]])
    x = Fraction(draw(ints), p ** draw(st.integers(0, 3)))
    i = draw(st.integers(-3, 3))
    g = upper_unipotent({(0, 1): x}, 2) * _uniformizer_power(data, i) * j
    return data, g, True


@given(support_points())
@settings(max_examples=300, deadline=None)
def test_every_support_decomposition_lands_in_J(point):
    # support_decompose does not test j_0 against J itself: its residue
    # tests imply membership, and this property holds them to that
    data, g, on_support = point
    dec = support_decompose(data, g)
    if on_support:
        assert dec is not None, g
    if dec is None:
        return
    i, n_mat, j0 = dec
    assert data.in_J(j0), (g, j0)
    (one, _), (zero, one_) = n_mat.rows
    assert one == one_ == 1 and zero == 0, n_mat
    assert n_mat * _uniformizer_power(data, i) * j0 == g


def test_ramified_support_vanishing():
    t = make_type(RAMIFIED, 3, sigma=1)
    assert support_decompose(t, PadicMatrix.diagonal([3, 1])) is None
    assert support_decompose(t, PadicMatrix.diagonal([1, 3])) is None
    assert support_decompose(t, PadicMatrix([[0, 0], [1, 1]])) is None
    # determinant condition: det = 2 but lower-right^2 = 1 mod 3
    assert support_decompose(t, PadicMatrix.diagonal([2, 1])) is None
    # a plain unipotent does lie on the support, with trivial J-part
    n1 = PadicMatrix([[1, 1], [0, 1]])
    assert support_decompose(t, n1) == (0, n1, PadicMatrix.identity(2))


def test_ramified_support_matches_windowed_search():
    p = 3
    t = make_type(RAMIFIED, p, sigma=1)
    rng = random.Random(23)
    w = t.uniformizer()
    cases = []
    for _ in range(6):
        j0 = _random_J_element(rng, t)
        x = Fraction(rng.randrange(0, 9), p)
        g = upper_unipotent({(0, 1): x}, 2) * j0
        cases.append(g)
        cases.append(upper_unipotent({(0, 1): x}, 2) * w * j0)
    cases.append(PadicMatrix.diagonal([3, 1]))  # off the support
    for g in cases:
        dec = support_decompose(t, g)
        found = _search_decompose(t, g, 2)
        if dec is None:
            assert found == []
            continue
        i, nm, jj = dec
        value = psi_t_eval(t, nm, SCAL) * lam(t, jj, SCAL)
        assert found, "search missed a decomposable element"
        assert {fi for fi, _ in found} == {i}
        for _, fv in found:
            assert fv == value


# -- whittaker vectors ---------------------------------------------------


def test_depth_zero_whittaker_values():
    t = make_type(DEPTH_ZERO, 3, n=2, theta=1, A=cyc_embed_root(4, 1))
    W = WhittakerFunction(t)
    assert W.value(PadicMatrix.identity(2)) == SCAL.one()
    assert W.value(PadicMatrix.diagonal([3, 1])) == SCAL.zero()
    k = PadicMatrix([[1, 1], [1, 2]])
    assert W.value(PadicMatrix.diagonal([3, 3]) * k) == cyc_embed_root(4, 1) * W.value(k)
    n = upper_unipotent({(0, 1): Fraction(1, 3)}, 2)
    assert W.value(n * k) == theta_eval(3, Fraction(1, 3), 1, SCAL) * W.value(k)


def test_depth_zero_central_units():
    t = make_type(DEPTH_ZERO, 3, n=2, theta=1)
    W = WhittakerFunction(t)
    k = PadicMatrix([[1, 1], [1, 2]])
    assert W.value(k * 2) == t.central_unit_value(2, SCAL) * W.value(k)


def test_twist_folds_into_A():
    c = cyc_embed_root(4, 1)
    t = make_type(DEPTH_ZERO, 3, n=2, theta=1, A=1)
    W = WhittakerFunction(t, twist=c)
    assert W.A_eff == c**2  # n/e = 2
    k = PadicMatrix([[1, 1], [1, 2]])
    base = WhittakerFunction(t)
    assert W.value(PadicMatrix.diagonal([3, 3]) * k) == c**2 * base.value(k)
    r = make_type(RAMIFIED, 3, sigma=1, A=1)
    Wr = WhittakerFunction(r, twist=c)
    assert Wr.A_eff == c  # n/e = 1


def test_dual_whittaker_uses_inverse_psi():
    t = make_type(DEPTH_ZERO, 3, n=2, theta=1)
    W2 = WhittakerFunction(t, dual=True)
    k = PadicMatrix([[1, 1], [1, 2]])
    n = upper_unipotent({(0, 1): 1}, 2)
    assert W2.value(n * k) == cyc_embed_root(3, 2) * W2.value(k)
    # the dual finite kernel is the Bessel function against psi-bar inverse
    chi = t.chi
    ref = BesselFunction(chi, AddChar(gf(3), 1).inverse())
    assert W2.value(k) == ref.value(((1, 1), (1, 2)))


def test_ramified_orientation_gate():
    plus = make_type(RAMIFIED, 3, sigma=1, orientation=1)
    minus = make_type(RAMIFIED, 3, sigma=1, orientation=-1)
    WhittakerFunction(plus)
    WhittakerFunction(minus, dual=True)
    with pytest.raises(NondegeneracyFailure):
        WhittakerFunction(plus, dual=True)
    with pytest.raises(NondegeneracyFailure):
        WhittakerFunction(minus)


def test_ramified_whittaker_values():
    A = cyc_embed_root(8, 1)
    t = make_type(RAMIFIED, 3, sigma=1, A=A)
    W = WhittakerFunction(t)
    w = t.uniformizer()
    assert W.value(PadicMatrix.identity(2)) == SCAL.one()
    assert W.value(w) == A
    assert W.value(w * w) == A**2  # w^2 = p, central
    assert W.value(PadicMatrix.diagonal([3, 3])) == A**2
    rng = random.Random(31)
    for _ in range(15):
        g = PadicMatrix([[rng.randrange(-6, 7) for _ in range(2)] for _ in range(2)])
        if not g.det():
            continue
        j = _random_J_element(rng, t)
        assert W.value(g * j) == W.value(g) * lam(t, j, SCAL)


def test_whittaker_value_fractional_n_part():
    t = make_type(RAMIFIED, 3, sigma=1)
    j0 = PadicMatrix([[1, 0], [1, 1]])
    g = upper_unipotent({(0, 1): Fraction(1, 3)}, 2) * j0
    W = WhittakerFunction(t)
    # psi_t(n(1/3)) = theta(1/9) = zeta_27
    assert W.value(g) == cyc_embed_root(27, 1) * lam(t, j0, SCAL)


# -- extended character on N * J^1 ---------------------------------------


def test_extended_psi_depth_zero():
    t = make_type(DEPTH_ZERO, 3, n=2, theta=1)
    h = PadicMatrix([[1, 3], [6, 4]])
    g = upper_unipotent({(0, 1): Fraction(1, 3)}, 2) * h
    assert extended_psi_on_U(t, g) == cyc_embed_root(9, 1)
    with pytest.raises(NotInU):
        extended_psi_on_U(t, PadicMatrix.diagonal([2, 1]))
    with pytest.raises(NotInU):
        extended_psi_on_U(t, PadicMatrix.diagonal([1, 3]))


def test_extended_psi_restricts_to_lambda():
    t = make_type(RAMIFIED, 3, sigma=1)
    rng = random.Random(41)
    for _ in range(10):
        h = _random_J_element(rng, t)
        if not in_J1(t, h):
            continue
        assert extended_psi_on_U(t, h) == lam(t, h, SCAL)


def test_extended_psi_well_defined():
    for orientation in (1, -1):
        t = make_type(RAMIFIED, 3, sigma=1, orientation=orientation)
        h = PadicMatrix([[4, 3], [2, 1]])
        assert in_J1(t, h)
        x = Fraction(2, 3)
        g = upper_unipotent({(0, 1): x}, 2) * h
        val = extended_psi_on_U(t, g)
        # shift the factorization by n(3) in N cap J^1 and recompute by hand
        for delta in (3, 6, -3):
            n2 = upper_unipotent({(0, 1): x + delta}, 2)
            h2 = upper_unipotent({(0, 1): -delta}, 2) * h
            assert n2 * h2 == g
            assert in_J1(t, h2)
            by_hand = psi_t_eval(t, n2, SCAL, sign=orientation) * lam(t, h2, SCAL)
            assert by_hand == val


# -- dual pairs and the Euler factor -------------------------------------


def test_is_dual_pair_depth_zero():
    t1 = make_type(DEPTH_ZERO, 3, n=2, theta=1)
    for idx in (5, 7):
        assert is_dual_pair(t1, make_type(DEPTH_ZERO, 3, n=2, theta=idx))
    for idx in (1, 2, 3, 6):
        assert not is_dual_pair(t1, make_type(DEPTH_ZERO, 3, n=2, theta=idx))


def test_is_dual_pair_ramified():
    t1 = make_type(RAMIFIED, 3, sigma=1, orientation=1)
    assert is_dual_pair(t1, make_type(RAMIFIED, 3, sigma=1, orientation=-1))
    assert not is_dual_pair(t1, make_type(RAMIFIED, 3, sigma=0, orientation=-1))
    assert not is_dual_pair(t1, make_type(RAMIFIED, 3, sigma=1, orientation=1))


def test_family_mismatch():
    dz = make_type(DEPTH_ZERO, 3, n=2, theta=1)
    ram = make_type(RAMIFIED, 3, sigma=1)
    with pytest.raises(FamilyMismatch):
        is_dual_pair(dz, ram)
    with pytest.raises(FamilyMismatch):
        l_factor(dz, make_type(DEPTH_ZERO, 5, n=2, theta=1))
    with pytest.raises(FamilyMismatch):
        l_factor(dz, make_type(DEPTH_ZERO, 2, n=3, theta=1))


def test_l_factor_shapes():
    A1 = cyc_embed_root(4, 1)
    t1 = make_type(DEPTH_ZERO, 3, n=2, theta=1, A=A1)
    t2 = make_type(DEPTH_ZERO, 3, n=2, theta=5, A=cyc_embed_root(4, 3))
    L = l_factor(t1, t2)
    assert L.poly.max_degree() == 2
    assert L.poly.coeff(1) == SCAL.zero()
    assert L.poly.coeff(2) == SCAL.zero() - SCAL.one()  # -A1*A2 = -1
    trivial = l_factor(t1, make_type(DEPTH_ZERO, 3, n=2, theta=1))
    assert trivial.poly.max_degree() == 0
    c = cyc_embed_root(8, 1)
    Lt = l_factor(t1, t2, twist=c)
    assert Lt.poly.coeff(2) == SCAL.zero() - c**2
    r1 = make_type(RAMIFIED, 3, sigma=1, A=A1)
    r2 = make_type(RAMIFIED, 3, sigma=1, orientation=-1, A=A1)
    Lr = l_factor(r1, r2)
    assert Lr.poly.max_degree() == 1
    assert Lr.poly.coeff(1) == SCAL.zero() - A1 * A1


def test_dual_params_roundtrip():
    t1 = make_type(DEPTH_ZERO, 3, n=2, theta=1, A=cyc_embed_root(4, 1))
    t2 = make_type(**t1.dual_params())
    assert is_dual_pair(t1, t2)
    assert t1.A * t2.A == SCAL.one()
    r1 = make_type(RAMIFIED, 5, sigma=2, A=cyc_embed_root(3, 1))
    r2 = make_type(**r1.dual_params())
    assert is_dual_pair(r1, r2)
    assert r2.orientation == -1
