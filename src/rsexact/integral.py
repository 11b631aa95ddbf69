"""The local Rankin-Selberg integral as an exact rational function in X.

The integral of W_1 * W_2 * Phi over N\\G is computed structurally:

  I(X) = Z_omega(X) * T(X),
  T(X) = sum over cells kbar of (P cap K)\\K/K^m of nu_m * I_0(kbar),

with P the mirabolic subgroup (last row e_n), nu_m the quotient cell mass
q^{-(m-1)n}, and Z_omega(X) the center integral against omega_1 omega_2 and
the standard lattice indicator Phi.  The inner integral I_0 over N\\P is a
unit-shell sum: for n = 2,

  I_0(kbar) = sum_k b_k(kbar) q^k X^k,
  b_k(kbar) = sum over units a mod p of W_1 W_2(d(p^k a) kbar),

with d(x) = diag(x, 1); the factor q^k is the canonical N\\G cell volume of
the valuation vector (k, 0).  The measure sums over the units mod p^m with
weight q^{-(m-1)}, and the p^{m-1} lifts of a unit class mod p give one
value of W_1 W_2 (b_coefficient carries the proof), so each class counts
once.  The brute-force oracle keeps its point-by-point walk over every
lift.  For GL_3 the inner integral runs over
N_2\\GL_2 cells embedded in the top block, with their own canonical volumes
carried inside b_k.  Everything is scalar-generic: the same engine reruns
over a residue field for the mod-ell corollary.

At depth zero every point of b_k(kbar) is h * kbar with h cell-free
(d(p^k a) for n = 2, an embedded diag(p^v) times a GL_2 cell for n = 3),
and the support N Z K is right-K-invariant.  So each h is decomposed once
per pair, h = n z^i k_0 or off the support, and the pair keeps only the
hits, as (i, psi_t class of n, k_0): every cell evaluates each hit at
n z^i (k_0 kbar) through RSPair.pair_value.  The ramified support is not
right-K-invariant, and there each point is decomposed (RSPair.point_value).

An independent brute-force oracle sums W_1 W_2 Phi directly over canonical
N\\G cells (valuation vectors in a window times (N cap K)\\K/K^m), carrying
the explicit factor (q - 1) that relates the canonical normalization to the
center-times-quotient route above.  Diagnostics check the per-cell laws in
one pass over the cell log (the slice pattern and row law of the b_k, and
the cell-mass identity behind the level constant u), the J^1-averages F_i,
and the shell constancy that pins down mu.

Each b_k(kbar) depends only on the double coset (P cap K) kbar J^1.  On
the right, W_1 W_2 is J^1-invariant (b_coefficient has the proof).  On the
left, p_0 = [[a, b], [0, 1]] in P cap K gives d(x) p_0 = n(x b) d(x a), and
W_1 W_2 is left-N-invariant (psi_t times psi_t^-1), so b_k(p_0 kbar) is
the sum over the unit classes a_0 a, which a reindexes.  A cell of
(P cap K)\\K/K^m is its bottom row (c, d) mod p^m, and right
multiplication by 1 + y in J^1, y = [[p alpha, p beta], [gamma, p delta]]
with alpha, beta, gamma, delta in Z_p, sends it to

  (c + p c alpha + d gamma, d + p c beta + p d delta).

If d is a unit, gamma and delta move (c, d) to any row with the same d mod
p; otherwise c is a unit, d stays in pZ_p, and alpha and beta move it to
any row with the same c mod p.  So the ramified orbits are
{d = d_0 mod p} for a unit d_0 and {c = c_0, d = 0 mod p} for a unit c_0,
2(p - 1) of them against (p^2 - 1) p^2 cells (_j1_class).  At depth zero
J^1 = K^1 = K^m, and each cell is its own class.  cell_support_report
tests the slices outside the engine's period once per class; the engine
still evaluates every cell.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from fractions import Fraction

from .cyclo import CYC
from .matgroups import bruhat_cell
from .padic import (
    PadicMatrix,
    ng_cell_volume,
    ng_shell,
    pk_cell_reps,
    vp_int,
)
from .ratfun import Laurent, RationalFunction, series_coefficients
from .simpletypes import (
    DEPTH_ZERO,
    SimpleTypeData,
    WhittakerFunction,
    is_dual_pair,
    l_factor,
    psi_t_class,
    support_decompose,
)


# The window |v_i| <= 2 of the GL_3 inner cells is exhaustive: any
# v != (0, 0) leaves the support of the pair.
GL3_WINDOW = 2

# The brute-force oracle checks the coefficients k = 0..ORACLE_KMAX, each
# summed over the cells with |v_i| <= DEFAULT_WINDOW; the shell-constancy
# check and the CSV table read the first SHELLS shells.
ORACLE_KMAX = 6
DEFAULT_WINDOW = 4
SHELLS = 4


def _embed_gl2(g: PadicMatrix) -> PadicMatrix:
    (a, b), (c, d) = g.num
    return PadicMatrix.from_ints([[a, b, 0], [c, d, 0], [0, 0, g.den]], g.den)


class RSPair:
    """A pair of test vectors (W_1 in the psi_t model of type1, W_2 in the
    psi_t^{-1} model of type2, optionally twisted) with shared measure data
    and W_1 W_2 per support class (pair_value)."""

    def __init__(self, type1: SimpleTypeData, type2: SimpleTypeData, *,
                 twist=None, scal=CYC):
        self.scal = scal
        self.type1 = type1
        self.type2 = type2
        self.W1 = WhittakerFunction(type1, scal=self.scal)
        self.W2 = WhittakerFunction(type2, dual=True, twist=twist, scal=self.scal)
        self.twist = self.W2.twist
        self.applicable = is_dual_pair(type1, type2)
        self.p = type1.p
        self.n = type1.n
        self.e = type1.e
        self.level = type1.level
        # nu_m, the quotient mass of one (P cap K)\K/K^m cell
        self.nu = Fraction(1, self.p ** ((self.level - 1) * self.n))
        self.kappa = self.scal.embed_cyc(self.W1.A_eff * self.W2.A_eff)
        self._table = {}
        # depth zero: slice k -> its hits (_slice_hits)
        self._hits = {}
        self._pair_class = (functools.partial(_monomial_class, type1)
                            if type1.family == DEPTH_ZERO else type1.kernel_class)

    @property
    def q(self) -> int:
        return self.p

    @property
    def n_over_e(self) -> int:
        return self.n // self.e

    def point_value(self, g: PadicMatrix):
        """W_1 W_2 at g, from one support decomposition, or None off the
        support, so that a sum over points skips it instead of adding
        zero."""
        dec = support_decompose(self.type1, g)
        if dec is None:
            return None
        i, n_mat, j0 = dec
        return self.pair_value(i, psi_t_class(self.type1, n_mat), j0)

    def pair_value(self, i: int, psi_cls, j0: PadicMatrix):
        """W_1 W_2 at n w_E^i j_0, given i, the psi_t class of n and j_0.

        Both test vectors are supported on N <w_E> J, which depends only on
        the family, p and n; is_dual_pair has checked that the two types
        share these.  At g = n w_E^i j_0 the product depends only on i, the
        psi_t class of n and the kernel class of j_0, which are the same for
        both types, so it is computed once per class and looked up after.
        At depth zero the class is coarser: for j_0 = u_1 m u_2 mod p, the
        Bessel kernels give psi(x) J_1(m) and psi(x)^{-1} J_2(m), because
        W_2 uses psi^{-1}, so the product is the one at m, term by term,
        and the key holds the monomial m (__init__ picks the class map).
        """
        key = (i, psi_cls, self._pair_class(j0))
        value = self._table.get(key)
        if value is None:
            value = self._table[key] = self.W1.value_at(*key) * self.W2.value_at(*key)
        return value


def _monomial_class(data: SimpleTypeData, j0: PadicMatrix):
    """The monomial m of the Bruhat cell U m U of j_0 mod p (depth zero)."""
    return bruhat_cell(data.kernel_class(j0), data.p)[0]


def _support_sum(pair: RSPair, points):
    """The sum of W_1 W_2 over the points, skipping those off the support."""
    return pair.scal.sum(v for g in points if (v := pair.point_value(g)) is not None)


def _slice_hits(pair: RSPair, k: int):
    """The hits of slice k at depth zero: the cell-free points h, whose
    products h * kbar with a cell kbar b_coefficient sums, that lie on the
    support, each as (i, psi_t class of n, k_0) from h = n z^i k_0.  Each
    point is decomposed once, when its slice is first asked for, and the
    hits are kept per pair.

    For n = 2 the points are d(p^k a_0) = diag(p^k a_0, 1), one per unit
    class a_0 mod p.  For n = 3 one (weight, hits) pair per window pair
    (v_1, v_2) with v_1 + v_2 = k: the canonical N_2\\GL_2 cell volume and
    the hits among the points of ng_shell(p, m, (v_1, v_2)) embedded in the
    upper block.
    """
    hits = pair._hits.get(k)
    if hits is not None:
        return hits
    t, p = pair.type1, pair.p

    def on_support(points):
        decs = filter(None, (support_decompose(t, h) for h in points))
        return [(i, psi_t_class(t, n_mat), k0) for i, n_mat, k0 in decs]

    if pair.n == 2:
        hits = on_support(PadicMatrix.diagonal([Fraction(p) ** k * a0, 1])
                          for a0 in range(1, p))
    else:
        m, w = pair.level, GL3_WINDOW
        hits = []
        for v1 in range(-w, w + 1):
            v2 = k - v1
            if abs(v2) > w:
                continue
            weight = pair.scal.from_fraction(ng_cell_volume(p, 2, m, (v1, v2)))
            hits.append((weight, on_support(map(_embed_gl2, ng_shell(p, m, (v1, v2))))))
    pair._hits[k] = hits
    return hits


def _hit_sum(pair: RSPair, hits, cell: PadicMatrix):
    """The sum of W_1 W_2 at h * cell = n z^i (k_0 * cell) over the hits."""
    return pair.scal.sum(pair.pair_value(i, psi_cls, k0 * cell) for i, psi_cls, k0 in hits)


def b_coefficient(pair: RSPair, cell: PadicMatrix, k: int):
    """The unit-shell coefficient b_k of the inner mirabolic integral.

    For n = 2 the cell must lie in K = GL_2(Z_p), and b_k is one sum over
    the unit classes a_0 mod p.  The measure sums W_1 W_2(d(p^k a) kbar)
    q^{-(m-1)} over the units a mod p^m; the p^{m-1} lifts a = a_0 (1 + p t)
    of a class all give the value at a_0, which cancels the weight:

      d(p^k a) kbar = d(p^k a_0) kbar * u,  u = kbar^-1 d(1 + p t) kbar,

    and u lies in K^1 = 1 + p M_2(Z_p) because kbar is in K.  At depth zero
    m = 1 and there are no other lifts.  In the ramified family K^1 lies in
    J^1 = 1 + P_A, and each test vector translates under J^1 by its
    character, W_i(g u) = W_i(g) lambda_i(u) with
    lambda_i(1 + y) = theta(s_i tr(w_E^-1 y)): sigma-bar sees only the
    residue of the diagonal, which is 1 on J^1.  WhittakerFunction forces
    s_1 = +1 for W_1 and s_2 = -1 for W_2 (the psi_t^-1 model), so
    lambda_1 lambda_2 = 1 on J^1 and W_1 W_2(g u) = W_1 W_2(g) for every
    pair an RSPair builds, dual or not, twisted or not (a twist scales A
    only).

    At depth zero the support N Z K of both test vectors is right-K-
    invariant, and every cell kbar lies in K.  So whether h * kbar is on
    the support depends on the cell-free point h alone, and
    h = n z^i k_0 gives h * kbar = n z^i (k_0 kbar): each h is decomposed
    once per pair (_slice_hits), and a cell sums W_1 W_2 over the hits at
    n z^i (k_0 kbar), with no decomposition of its own.  The ramified
    support N <w_E> J is not right-K-invariant (J is not K), so there each
    point h * kbar is decomposed on its own (RSPair.point_value).
    """
    scal, p = pair.scal, pair.p
    if pair.type1.family != DEPTH_ZERO:
        return _support_sum(pair, (
            cell.scale_row(0, a0 * p**k if k >= 0 else Fraction(a0, p**-k))
            for a0 in range(1, p)))
    hits = _slice_hits(pair, k)
    if pair.n == 2:
        return _hit_sum(pair, hits, cell)
    # GL_3: N_3\P_3 = N_2\GL_2 embedded in the upper block, with its
    # canonical cell volumes; the slice of determinant valuation k collects
    # v = (v_1, v_2) with v_1 + v_2 = k.
    return scal.sum(weight * _hit_sum(pair, shell, cell) for weight, shell in hits)


def cell_slices(pair: RSPair, cell: PadicMatrix) -> dict:
    """b_k for k in one determinant period [0, n)."""
    return {k: b_coefficient(pair, cell, k) for k in range(pair.n)}


@dataclass
class CellRecord:
    row: tuple
    rep: PadicMatrix
    slices: dict


def integrate_over_K(pair: RSPair):
    """T(X) = sum over (P cap K)\\K/K^m cells of nu_m * I_0; returns (T, log).

    I_0 = sum_k b_k q^k X^k for n = 2; for n = 3 the cell volumes are
    already inside b_k and the factor q^k is left out.  The nonzero b_k of
    every cell go into one Laurent, so each degree is one sum over the
    cells, which nu_m q^k then multiplies once."""
    scal = pair.scal
    log = [CellRecord(row=row, rep=rep, slices=cell_slices(pair, rep))
           for row, rep in pk_cell_reps(pair.p, pair.n, pair.level)]
    sums = Laurent(scal, [(k, b) for rec in log for k, b in rec.slices.items() if b])
    T = Laurent(scal, {
        k: b * scal.from_fraction(pair.nu * (pair.q**k if pair.n == 2 else 1))
        for k, b in sums.items()})
    return T, log


def z_omega(pair: RSPair) -> RationalFunction:
    """Center integral against omega_1 omega_2 |det|^s and the standard Phi."""
    scal = pair.scal
    unit_sum = scal.sum(pair.type1.central_unit_value(u, scal)
                        * pair.type2.central_unit_value(u, scal)
                        for u in range(1, pair.p))
    omega_p = pair.kappa**pair.e
    num = Laurent.from_const(scal, unit_sum)
    den = Laurent(scal, {0: scal.one(), pair.n: scal.zero() - omega_p})
    return RationalFunction(num, den)


def rankin_selberg_I(pair: RSPair, T: Laurent | None = None) -> RationalFunction:
    """I(X) = Z_omega(X) * T(X)."""
    if T is None:
        T, _ = integrate_over_K(pair)
    return z_omega(pair) * RationalFunction.from_laurent(T)


# -- brute-force oracle ---------------------------------------------------


def c_k_bruteforce(pair: RSPair, k: int, window: int = DEFAULT_WINDOW):
    """Coefficient of X^k of I by direct summation over canonical N\\G cells.

    Sums W_1 W_2 Phi(e_n g) over g = diag(p^v1, p^v2) kbar with
    v1 + v2 = k, |v_i| <= window, kbar in (N cap K)\\K/K^m, weighting each
    cell by its canonical volume and the overall factor (q - 1) that aligns
    the canonical normalization with the center-times-quotient route.  Each
    point is built once, by ng_shell from the cached representatives, and
    decomposed once.
    """
    if pair.n != 2:
        raise ValueError("the brute-force oracle is implemented for n = 2")
    scal, p, m = pair.scal, pair.p, pair.level
    shells = []
    for v1 in range(-window, window + 1):
        v2 = k - v1
        if abs(v2) > window:
            continue
        if v2 < 0:
            continue  # Phi(e_2 g) = 0 unless the bottom row is integral
        vol = scal.from_fraction(ng_cell_volume(p, 2, m, (v1, v2)))
        shells.append(vol * _support_sum(pair, ng_shell(p, m, (v1, v2))))
    return scal.sum(shells) * scal.from_fraction(Fraction(p - 1))


def oracle_check(pair: RSPair, kmax: int = ORACLE_KMAX, window: int = DEFAULT_WINDOW, *,
                 I: RationalFunction | None = None, mapper=map):
    """Compare oracle coefficients with the engine's series expansion.

    `I` is the engine's integral when the caller already has it.  The
    coefficients k = 0..kmax are computed by `mapper(f, ks)`, so a process
    pool's map spreads them over its workers.
    """
    if I is None:
        I = rankin_selberg_I(pair)
    series = series_coefficients(I, kmax)
    oracle = mapper(functools.partial(c_k_bruteforce, pair, window=window),
                    range(kmax + 1))
    return [{"k": k, "engine": engine, "oracle": value, "match": engine == value}
            for k, (engine, value) in enumerate(zip(series, oracle))]


def oracle_rows_json(rows) -> list:
    """Oracle rows with their values printed."""
    return [{"k": r["k"], "engine": str(r["engine"]), "oracle": str(r["oracle"]),
             "match": r["match"]} for r in rows]


# -- diagnostics ----------------------------------------------------------


def _j1_class(pair: RSPair, row) -> tuple:
    """The (P cap K)\\K/J^1 class of the cell with bottom row `row` mod p^m:
    (0, d mod p) for a unit d and (1, c mod p) otherwise in the ramified
    family, the row itself at depth zero (the module docstring derives
    the orbits)."""
    if pair.type1.family == DEPTH_ZERO:
        return tuple(row)
    p = pair.p
    c, d = row
    return (0, d % p) if d % p else (1, c % p)


def cell_support_report(pair: RSPair, cell_log) -> dict:
    """The per-cell laws of the engine, in one pass over the cell log.

    Each cell has one slice s it can support: for level types (e = 2) the
    first entry of its J^1 class (_j1_class), 0 when d is a unit and 1
    otherwise; s = 0 for maximal-compact ones.  With nz the set of k
    where the cell's b_k is nonzero:

    - slice_pattern: nz lies on multiples of n/e, and b_k = 0 also at
      k in {-2, -1, n, n + 1}, outside the period the engine sums;
    - row_law: nz == {s n/e}, and for e = 2 the cell factors through
      P cap K times the predicted J-element (_factors_through_mirabolic);
    - cell_mass: the sum of nu_m over the slice-s cells equals
      u (q^{n/e} - 1) q^{-s n/e} with one level constant u, and no cell is
      nonzero off its slice s n/e (a cell with no nonzero slice passes).

    The four slices outside the period are tested once per J^1 class of
    cells (_j1_class) and read for every cell of the class: b_k is
    constant on each double coset (P cap K) kbar J^1, whose orbits the
    module docstring derives.  Everything else reads the engine's own
    slices of the cell, so it stays per cell.

    u is reported whenever the slices give one value.  A law that has
    failed is not checked on later cells.
    """
    zero = pair.scal.zero()
    step = pair.n_over_e
    pattern_ok = row_ok = single_ok = True
    masses: dict[int, Fraction] = {}
    # J^1 class -> b_k = 0 at every k outside the period
    off_period_zero: dict[tuple, bool] = {}

    def vanishes_off_period(rec: CellRecord, cls: tuple) -> bool:
        ok = off_period_zero.get(cls)
        if ok is None:
            ok = off_period_zero[cls] = all(
                b_coefficient(pair, rec.rep, k) == zero
                for k in (-2, -1, pair.n, pair.n + 1))
        return ok

    for rec in cell_log:
        cls = _j1_class(pair, rec.row)
        nz = {k for k, b in rec.slices.items() if b != zero}
        s = cls[0] if pair.e == 2 else 0
        pattern_ok = (pattern_ok and not any(k % step for k in nz)
                      and vanishes_off_period(rec, cls))
        row_ok = row_ok and nz == {s * step} and (
            pair.e != 2 or _factors_through_mirabolic(pair, rec, s))
        single_ok = single_ok and not nz - {s * step}
        masses[s] = masses.get(s, Fraction(0)) + pair.nu
    u_vals = {mass * pair.q ** (s * step) / (pair.q**step - 1)
              for s, mass in masses.items()}
    u = u_vals.pop() if len(u_vals) == 1 else None
    return {
        "slice_pattern": pattern_ok,
        "row_law": row_ok,
        "cell_mass": u is not None and single_ok,
        "u": u,
    }


def _factors_through_mirabolic(pair: RSPair, rec: CellRecord, s: int) -> bool:
    """A level cell of slice s factors through P cap K times the predicted
    J-element.

    Slice 0 (d a unit): kbar = p_0 * j' with j' = [[d, 0], [c, d]];
    slice 1 (c a unit, d in p): diag(p, 1) kbar = p_0 * w_E * j' with
    j' = [[c, d], [0, c]]; in both cases p_0 must land in the mirabolic
    part of K (last row (0, 1)).
    """
    c, d = rec.row
    if s == 0:
        jp = PadicMatrix.from_ints([[d, 0], [c, d]])
        target = rec.rep
        full = jp
    else:
        jp = PadicMatrix.from_ints([[c, d], [0, c]])
        target = rec.rep.scale_row(0, pair.p)
        full = pair.type1.uniformizer() * jp
    if not pair.type1.in_J(jp):
        return False
    p0 = target * full.inverse()
    return (p0.in_K(pair.p) and p0.num[-1] == (0, p0.den)
            and p0 * full == target)


def _j1_coset_rep(p: int, index: int) -> PadicMatrix:
    """The representative of J^1 / K^2 for the ramified order numbered
    `index` < p^5: 1 + y with y_11 = p i_11, y_12 = p i_12, y_22 = p i_22
    and y_21 in Z/p^2, where index = ((i_11 p + i_12) p^2 + y_21) p + i_22."""
    rest, i22 = divmod(index, p)
    rest, y21 = divmod(rest, p * p)
    i11, i12 = divmod(rest, p)
    return PadicMatrix.from_ints(((1 + p * i11, p * i12), (y21, 1 + p * i22)))


def _j1_coset_reps(p: int):
    """All p^5 representatives of J^1 / K^2, in the order of their index."""
    return [_j1_coset_rep(p, i) for i in range(p**5)]


def j1_average_report(pair: RSPair, cell_log) -> dict:
    """J^1-averages F_i of the pair: every value lies in {0, vol(J^1) kappa^i}.

    F_i(cell) = integral over J^1 of b_i(cell * u) du.  The factorized route
    uses the translation law W(g u) = W(g) lambda(u); the honest double sum
    is run on a sample of cells at p <= 3 and compared.  Depth zero has
    J^1 = K^1 acting trivially on every evaluation point, so F_i = b_i and
    the value law is b_i in {0, kappa^i}.
    """
    scal = pair.scal
    zero = scal.zero()
    if pair.type1.family == DEPTH_ZERO:
        ok = all(
            b == zero or b == pair.kappa ** k
            for rec in cell_log
            for k, b in rec.slices.items()
        )
        return {"values": ok, "lambda_vol": Fraction(1), "honest": True,
                "translation_law": True}
    p = pair.p
    W1, W2 = pair.W1, pair.W2
    lam_vol = scal.from_fraction(pair.type1.vol_J1)
    coset_vol = scal.from_fraction(Fraction(1, p**4))
    # the factorized J^1 average: each class (1, k) holds p^4 cosets of volume 1/p^4
    char_sum = scal.sum(W1.kernel((1, k)) * W2.kernel((1, k)) for k in range(p))
    values_ok = True
    for rec in cell_log:
        for k, b in rec.slices.items():
            f = char_sum * b
            if not (f == zero or f == lam_vol * pair.kappa ** k):
                values_ok = False
    # translation law W(g j) = W(g) lambda(j) on random points
    rng = random.Random(20240)
    law_ok = True
    checked = 0
    while checked < 50:
        g = PadicMatrix([[rng.randrange(-9, 10) for _ in range(2)]
                         for _ in range(2)])
        if not g.det():
            continue
        checked += 1
        u = _j1_coset_rep(p, rng.randrange(p**5))
        cls = pair.type1.kernel_class(u)
        for W in (W1, W2):
            if W.value(g * u) != W.value(g) * W.kernel(cls):
                law_ok = False
    # honest double sum on the first two cells at p = 3, the one place
    # every representative is built
    honest_ok = True
    if p == 3:
        reps = _j1_coset_reps(p)
        for rec in cell_log[:2]:
            for k in range(pair.n):
                direct = scal.sum(b_coefficient(pair, rec.rep * u, k)
                                  for u in reps) * coset_vol
                if direct != char_sum * rec.slices[k]:
                    honest_ok = False
    return {"values": values_ok, "lambda_vol": pair.type1.vol_J1,
            "honest": honest_ok, "translation_law": law_ok}


def shell_constancy_report(pair: RSPair, I: RationalFunction, shells: int = SHELLS) -> dict:
    """Shell constancy: c_i q^{i n/e} kappa^{-i} is one constant mu_raw, and
    mu = mu_raw / (q^{n/e} - 1) is a power of q.  Here c_i is the
    coefficient of X^{i n/e} of I divided by (q - 1) and by the canonical
    cell volume q^{i n/e}; the two q-powers cancel, so the normalized
    sequence is just coeff * kappa^{-i} / (q - 1)."""
    scal = pair.scal
    step = pair.n_over_e
    series = series_coefficients(I, shells * step)
    qm1 = scal.from_fraction(Fraction(1, pair.q - 1))
    values = []
    off_slice_ok = True
    for k in range(shells * step + 1):
        if k % step:
            if series[k] != scal.zero():
                off_slice_ok = False
            continue
        i = k // step
        values.append(series[k] * qm1 * pair.kappa ** (-i))
    constant_ok = all(v == values[0] for v in values)
    mu_raw = values[0]
    mu = None
    q_power_ok = False
    if constant_ok and mu_raw.is_rational():
        raw = mu_raw.rational_value()
        mu = raw / (pair.q**step - 1)
        q_power_ok = _is_q_power(mu, pair.q)
    return {
        "off_slice_vanishing": off_slice_ok,
        "shell_constant": constant_ok,
        "mu": mu,
        "mu_is_q_power": q_power_ok,
    }


def _is_q_power(x: Fraction, q: int) -> bool:
    if x <= 0:
        return False
    if x < 1:
        return _is_q_power(1 / x, q)
    if x.denominator != 1:
        return False
    return x.numerator == q ** vp_int(x.numerator, q)


# -- the theorem -----------------------------------------------------------


def expected_main_factor(pair: RSPair, mu) -> RationalFunction:
    """(q - 1)(q^{n/e} - 1) mu / (1 - kappa X^{n/e})."""
    scal = pair.scal
    step = pair.n_over_e
    const = Fraction(pair.q - 1) * Fraction(pair.q**step - 1) * Fraction(mu)
    num = Laurent.from_const(scal, scal.from_fraction(const))
    den = Laurent(scal, {0: scal.one(), step: scal.zero() - pair.kappa})
    return RationalFunction(num, den)


@dataclass
class VerificationReport:
    pair: RSPair
    applicable: bool
    I: RationalFunction
    T: Laurent
    cell_log: list
    expected: RationalFunction | None
    mu: Fraction | None
    u: Fraction | None
    lambda_vol: Fraction | None
    checks: dict
    oracle: list | None = None

    @property
    def failures(self) -> list:
        """The names of the failed checks, then "oracle" when an oracle row
        disagrees with the engine."""
        failed = [name for name, ok in self.checks.items() if not ok]
        if self.oracle is not None and not all(r["match"] for r in self.oracle):
            failed.append("oracle")
        return failed

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        def type_json(t: SimpleTypeData) -> dict:
            out = {"family": t.family, "p": t.p, "n": t.n, "A": str(t.A)}
            if t.family == DEPTH_ZERO:
                out["theta"] = t.theta.t
            else:
                out["sigma"] = t.sigma.t
                out["orientation"] = t.orientation
            return out

        out = {
            "type1": type_json(self.pair.type1),
            "type2": type_json(self.pair.type2),
            "twist": None if self.pair.twist is None else str(self.pair.twist),
            "applicable": self.applicable,
            "integral": self.I.to_json(),
            "checks": {k: bool(v) for k, v in self.checks.items()},
            "passed": self.passed,
        }
        if self.applicable and self.expected is not None:
            out["expected"] = self.expected.to_json()
            out["mu"] = str(self.mu)
            out["u"] = str(self.u)
            out["lambda_vol"] = str(self.lambda_vol)
            out["euler_factor"] = str(
                l_factor(self.pair.type1, self.pair.type2, twist=self.pair.twist)
            )
        if self.oracle is not None:
            out["oracle"] = oracle_rows_json(self.oracle)
        out["cells"] = [
            {
                "row": [int(x) for x in rec.row],
                "slices": {str(k): str(b) for k, b in rec.slices.items()},
            }
            for rec in self.cell_log
        ]
        return out

    def csv_rows(self, shells: int = SHELLS):
        """Rows (i, c_i, q^{i n/e}) of the shell table; c_i is the X^{i n/e}
        series coefficient of I divided by (q - 1)."""
        step = self.pair.n_over_e
        series = series_coefficients(self.I, shells * step)
        rows = [("i", "c_i", "q_power")]
        qm1 = self.pair.scal.from_fraction(Fraction(1, self.pair.q - 1))
        for i in range(shells + 1):
            c = series[i * step] * qm1
            rows.append((str(i), str(c), str(self.pair.q ** (i * step))))
        return rows


def verify_main_theorem(type1: SimpleTypeData, type2: SimpleTypeData, *,
                        twist=None) -> VerificationReport:
    """Run the engine and the full diagnostic battery on one pair; the
    caller attaches oracle rows (oracle_check) when it wants them."""
    pair = RSPair(type1, type2, twist=twist)
    T, cell_log = integrate_over_K(pair)
    I = rankin_selberg_I(pair, T)
    if not pair.applicable:
        checks = {"schur_vanishing": T.is_zero() and I.is_zero()}
        return VerificationReport(
            pair=pair, applicable=False, I=I, T=T, cell_log=cell_log,
            expected=None, mu=None, u=None, lambda_vol=None, checks=checks,
        )
    support = cell_support_report(pair, cell_log)
    averages = j1_average_report(pair, cell_log)
    shells = shell_constancy_report(pair, I)
    mu = shells["mu"]
    expected = None
    identity_ok = False
    if mu is not None:
        expected = expected_main_factor(pair, mu)
        identity_ok = I == expected
    checks = {
        "closed_form_identity": identity_ok,
        "unit_shell_values": averages["values"],
        "slice_pattern": support["slice_pattern"],
        "row_law": support["row_law"],
        "j1_average": averages["honest"] and averages["translation_law"],
        "shell_constancy": shells["off_slice_vanishing"] and shells["shell_constant"]
        and shells["mu_is_q_power"],
        "cell_mass": support["cell_mass"],
    }
    return VerificationReport(
        pair=pair, applicable=True, I=I, T=T, cell_log=cell_log,
        expected=expected, mu=mu, u=support["u"], lambda_vol=averages["lambda_vol"],
        checks=checks,
    )
