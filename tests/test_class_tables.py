"""Property tests for the residue-class tables of the test vectors.

Each test vector keeps its kernel per kernel class of j_0 (the Bessel memo
at depth zero, a lambda dict when ramified), and each pair keeps W_1 * W_2
per (i, psi_t class of n, kernel class of j_0).  Every tabulated
value is compared with a direct Fraction evaluation written out in this
file, by its raw representation: two equal cyclotomic numbers with
different raw moduli print differently in a report, so `==` is not enough.
The points include theta arguments that are exactly 0 and ones that are
0 mod p, which share one class and one raw value, zeta_p^0.
"""

import dataclasses
import functools
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from rsexact.cuspchar import BesselFunction
from rsexact.cyclo import CycNumber, cyc_embed_root
from rsexact.errors import DepthExceeded
from rsexact.finitefield import AddChar, gf
from rsexact.integral import RSPair, verify_main_theorem
from rsexact.lmodular import pair_conductor, verify_corollary
from rsexact.padic import PadicMatrix
from rsexact.residue import ResidueScalars
from rsexact.simpletypes import (
    DEPTH_ZERO,
    RAMIFIED,
    WhittakerFunction,
    make_type,
    psi_t_class,
    support_decompose,
)

from reference import lam, psi_t_eval, upper_unipotent

SETTINGS = settings(max_examples=120, deadline=None,
                    suppress_health_check=[HealthCheck.filter_too_much])


# -- Fraction references --------------------------------------------------


def ref_val(x: Fraction, p: int) -> int:
    v = 0
    num, den = x.numerator, x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def ref_theta(p: int, x: Fraction, cap: int, scal):
    """theta(x) = zeta_{p^(m+1)}^(p^m x mod p^(m+1)), m = max(0, -val(x));
    val(0) is +infinity, so m = 0 at x = 0."""
    x = Fraction(x)
    m = max(0, -ref_val(x, p)) if x else 0
    if m > cap:
        raise DepthExceeded("reference")
    y = x * p**m
    mod = p ** (m + 1)
    return scal.root_of_unity(mod, y.numerator * pow(y.denominator, -1, mod) % mod)


def ref_psi(data, n_mat: PadicMatrix, scal, sign: int = 1):
    t = data.t_exponents
    arg = Fraction(0)
    for i in range(data.n - 1):
        arg += Fraction(data.p) ** (t[i] - t[i + 1]) * n_mat.entry(i, i + 1)
    return ref_theta(data.p, sign * arg, data.cap, scal)


def ref_lam(data, j: PadicMatrix, scal):
    """sigma-bar(r) * theta(s * tr(w_E^{-1} (zinv j - 1))), zinv the inverse
    Teichmueller-style lift of r = j_11 mod p; None off J."""
    if not data.in_J(j):
        return None
    p = data.p
    a = j.entry(0, 0)
    r = a.numerator * pow(a.denominator, -1, p) % p
    zinv = Fraction(pow(pow(r, p * p, p**3), -1, p**3))
    y_21 = zinv * j.entry(1, 0)
    y_12 = zinv * j.entry(0, 1)
    arg = data.orientation * (y_21 + y_12 / p)
    return data.sigma.value(gf(p).constant(r), scal) * ref_theta(p, arg, data.cap, scal)


def ref_bessel(W, j: PadicMatrix, scal):
    """The finite Bessel function against psi (psi^-1 for a dual W) at j
    mod p, from a fresh BesselFunction."""
    p = W.data.p
    psi = AddChar(gf(p), 1)
    J = BesselFunction(W.data.chi, psi.inverse() if W.dual else psi, scal)
    return J.value(tuple(
        tuple(e.numerator * pow(e.denominator, -1, p) % p for e in row) for row in j.rows))


def ref_pair_value(pair: RSPair, g: PadicMatrix):
    dec = support_decompose(pair.type1, g)
    if dec is None:
        return None
    i, n_mat, j0 = dec
    scal = pair.scal
    values = []
    for W, sign in ((pair.W1, 1), (pair.W2, -1)):
        if W.data.family == RAMIFIED:
            kernel = ref_lam(W.data, j0, scal)
        else:
            kernel = ref_bessel(W, j0, scal)
        values.append(ref_psi(W.data, n_mat, scal, sign) * W._A_eff_s**i * kernel)
    return values[0] * values[1]


def raw(x):
    """The representation a report prints: modulus and raw terms."""
    if isinstance(x, CycNumber):
        return "cyc", x.modulus, x.raw_items(x.modulus)
    return "residue", x


def outcome(f, *args):
    try:
        value = f(*args)
    except DepthExceeded:
        return "DepthExceeded"
    return None if value is None else raw(value)


# -- pairs ---------------------------------------------------------------


@functools.cache
def build_pair(name: str) -> RSPair:
    if name == "dz3":
        t1 = make_type(DEPTH_ZERO, 3, theta=1)
        return RSPair(t1, make_type(**t1.dual_params()))
    if name == "gl3":
        return RSPair(make_type(DEPTH_ZERO, 2, n=3, theta=1),
                      make_type(DEPTH_ZERO, 2, n=3, theta=6))
    if name == "ram3":
        t1 = make_type(RAMIFIED, 3, sigma=1)
        return RSPair(t1, make_type(**t1.dual_params()))
    if name == "ram5-twisted":
        t1 = make_type(RAMIFIED, 5, sigma=1, A=cyc_embed_root(4, 1))
        return RSPair(t1, make_type(**t1.dual_params()), twist=cyc_embed_root(3, 1))
    if name == "ram3-residue":
        t1 = make_type(RAMIFIED, 3, sigma=1)
        t2 = make_type(**t1.dual_params())
        # psi_t reaches zeta_27 on deep points, beyond the engine's conductor
        # 18; 109 = 1 mod 54, so the residue field is F_109
        return RSPair(t1, t2, scal=ResidueScalars(109, 3 * pair_conductor(t1, t2)))
    raise ValueError(name)


PAIRS = ("dz3", "gl3", "ram3", "ram5-twisted", "ram3-residue")


def power(w: PadicMatrix, i: int) -> PadicMatrix:
    out = PadicMatrix.identity(w.n)
    for _ in range(abs(i)):
        out = out * (w if i > 0 else w.inverse())
    return out


@st.composite
def fractions(draw, p: int, depth: int):
    """a / (u p^e) with |a| <= p^3, e <= depth and u in {1, 7}."""
    num = draw(st.integers(-p**3, p**3))
    return Fraction(num, draw(st.sampled_from((1, 7))) * p ** draw(st.integers(0, depth)))


@st.composite
def j_elements(draw, data):
    """An element of J over a unit denominator: GL_n(Z_p) at depth zero,
    [[a, p b], [c, a + p s]] for the ramified order."""
    p, n = data.p, data.n
    u = draw(st.sampled_from((1, 7)))
    if data.family == DEPTH_ZERO:
        rows = [[draw(st.integers(-p * p, p * p)) for _ in range(n)] for _ in range(n)]
        j = PadicMatrix.from_ints(rows, u)
        assume(j.in_K(p))
        return j
    a = draw(st.integers(1, p**3).filter(lambda a: a % p))
    b, c, s = (draw(st.integers(-p**3, p**3)) for _ in range(3))
    return PadicMatrix.from_ints([[a, p * b], [c, a + p * s]], u)


@st.composite
def points(draw, pair: RSPair):
    """n(x) w_E^i j_0 on the support, or a random matrix, mostly off it."""
    data = pair.type1
    n = data.n
    if draw(st.booleans()):
        rows = [[draw(fractions(data.p, 2)) for _ in range(n)] for _ in range(n)]
        g = PadicMatrix(rows)
        assume(g.det())
        return g
    entries = {(r, c): draw(fractions(data.p, data.cap))
               for r in range(n) for c in range(r + 1, n)}
    i = draw(st.integers(-2, 2))
    return upper_unipotent(entries, n) * power(data.uniformizer(), i) * draw(j_elements(data))


# -- properties ------------------------------------------------------------


@pytest.mark.parametrize("name", PAIRS)
def test_pair_value_matches_the_fraction_reference(name):
    pair = build_pair(name)

    @SETTINGS
    @given(st.data())
    def check(data):
        g = data.draw(points(pair))
        assert outcome(pair.point_value, g) == outcome(ref_pair_value, pair, g), g

    check()
    assert pair._table


@pytest.mark.parametrize("name", PAIRS)
def test_psi_t_eval_matches_the_fraction_reference(name):
    pair = build_pair(name)
    data = pair.type1

    @SETTINGS
    @given(st.data())
    def check(draw):
        entries = {(r, c): draw.draw(fractions(data.p, data.cap + 1))
                   for r in range(data.n) for c in range(r + 1, data.n)}
        n_mat = upper_unipotent(entries, data.n)
        for sign in (1, -1):
            assert (outcome(psi_t_eval, data, n_mat, pair.scal, sign)
                    == outcome(ref_psi, data, n_mat, pair.scal, sign)), n_mat

    check()


@pytest.mark.parametrize("name", ["ram3", "ram5-twisted", "ram3-residue"])
def test_lam_matches_the_fraction_reference(name):
    pair = build_pair(name)

    @SETTINGS
    @given(st.data())
    def check(draw):
        for W in (pair.W1, pair.W2):
            t = W.data
            if draw.draw(st.booleans()):
                j = draw.draw(j_elements(t))
            else:  # any integral matrix with a unit denominator, often not in J
                j = PadicMatrix.from_ints(
                    [[draw.draw(st.integers(-9, 9)) for _ in range(2)] for _ in range(2)],
                    draw.draw(st.sampled_from((1, 7))))
                assume(j.det())
            want = outcome(ref_lam, t, j, pair.scal)
            if want is None:  # off J, where lambda is not defined
                assert not t.in_J(j), j
                continue
            assert outcome(lam, t, j, pair.scal) == want, j
            assert outcome(W.kernel, t.kernel_class(j)) == want, j

    check()
    assert pair.W1._lam and pair.W2._lam


# -- the zero class and the checks ahead of the lookup -------------------


def test_lam_table_at_p5_has_20_classes():
    t = make_type(RAMIFIED, 5, sigma=1)
    W = WhittakerFunction(t)
    for a in range(1, 5):
        for c in range(5):
            for b in (0, 5, -5 * c):  # p * c + b exactly 0 or 0 mod p or not
                W.kernel(t.kernel_class(PadicMatrix.from_ints([[a, b], [c, a]])))
    assert len(W._lam) == 20  # r in F_5^x times k in F_5


@pytest.mark.parametrize("name", ["ram3", "ram3-residue"])
def test_zero_argument_shares_the_class_of_zero_mod_p(name):
    pair = build_pair(name)
    t, scal = pair.type1, pair.scal
    p = t.p
    one = PadicMatrix.identity(2)
    # lambda: p * c + b == 0 against p * c + b = p^2
    exact = PadicMatrix.from_ints([[1, -p], [1, 1]])
    mod_p = PadicMatrix.from_ints([[1, p * p], [0, 1]])
    assert t.kernel_class(exact) == t.kernel_class(mod_p) == (1, 0)
    for j in (one, exact, mod_p, exact, one):
        assert raw(lam(t, j, scal)) == raw(ref_lam(t, j, scal))
    assert raw(lam(t, exact, scal)) == raw(lam(t, mod_p, scal))
    # psi_t on the ramified chain reads n_12 / p: 0 against p^2 / p
    n_exact = upper_unipotent({}, 2)
    n_mod_p = upper_unipotent({(0, 1): p * p}, 2)
    assert psi_t_class(t, n_exact) == psi_t_class(t, n_mod_p) == (p, 0)
    for n_mat in (n_exact, n_mod_p, n_exact):
        assert raw(psi_t_eval(t, n_mat, scal)) == raw(ref_psi(t, n_mat, scal))
    # the pair at g = 1 and at g = n(p^2): same i and kernel class
    for g in (one, n_mod_p, one, n_mod_p):
        assert raw(pair.point_value(g)) == raw(ref_pair_value(pair, g))
    # one class, so one stored value, at one raw modulus
    at_one, at_n = pair.point_value(one), pair.point_value(n_mod_p)
    assert raw(at_one) == raw(at_n)
    if isinstance(at_one, CycNumber):
        assert at_one.modulus % p == 0


@pytest.mark.parametrize("name", ["dz3", "ram3", "gl3"])
def test_depth_exceeded_is_raised_for_a_tabulated_class(name):
    pair = build_pair(name)
    t = pair.type1
    one = PadicMatrix.identity(t.n)
    pair.point_value(one)  # fills (0, (p, 0), class of 1)
    deep = upper_unipotent({(0, 1): Fraction(1, t.p ** (t.cap + 2))}, t.n)
    i, n_mat, j0 = support_decompose(t, deep)
    assert i == 0 and t.kernel_class(j0) == t.kernel_class(one)
    with pytest.raises(DepthExceeded):
        pair.point_value(deep)
    with pytest.raises(DepthExceeded):
        psi_t_eval(t, deep)


def test_types_hold_only_their_datum_after_a_run():
    # kernel tables belong to the test vectors: a run leaves nothing on the
    # (frozen, shared) types beyond their fields, the values __post_init__
    # derives and the cached cuspidal character
    derived = {"e", "cap", "level", "t_exponents", "chi"}
    for t1, ell in ((make_type(DEPTH_ZERO, 3, theta=1), 5),
                    (make_type(RAMIFIED, 3, sigma=1), 5)):
        t2 = make_type(**t1.dual_params())
        assert verify_main_theorem(t1, t2).passed
        assert verify_corollary(t1, t2, ell).match
        for t in (t1, t2):
            fields = {f.name for f in dataclasses.fields(t)}
            assert set(vars(t)) <= fields | derived, set(vars(t)) - fields - derived
