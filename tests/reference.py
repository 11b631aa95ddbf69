"""Point-by-point reference helpers shared by the tests.

The package evaluates theta, psi_t and lambda on residue classes; these
helpers evaluate them on single rationals and matrices instead, so the
tests can compare the two routes.  They also hold the Fraction-level p-adic
primitives the tests build their points with, the character of
U = N(F) * J^1 that the Whittaker translation tests compare with, the
table of x**k modulo a cyclotomic polynomial that power bases are checked
against, and the per-cell laws of the engine with the slices outside the
period tested on every cell, not once per J^1 class, and each cell's
slice read off its bottom row, not off its J^1 class, the brute-force
oracle as a walk that scales each representative's rows one at a time,
the mirabolic convolution of Bessel functions summed pair by pair, not once
per Bruhat class of pairs, the N_k-orbit minima of GL_k found by searching
every orbit, against which the blocks of matgroups.mirabolic_reps (the
closed form matgroups.n_cell_rows for k = 2) are checked, the mirabolic x
center x maximal compact factorization g = p z k, and the structural
certificate of the cuspidal character tables.
"""

import math
from fractions import Fraction

from rsexact.cuspchar import CuspidalCharacter
from rsexact.cyclo import CYC, cyclotomic_poly
from rsexact.errors import RSExactError
from rsexact.integral import b_coefficient
from rsexact.matgroups import (
    enumerate_group,
    enumerate_unitriangular,
    identity,
    mat_inverse,
    mat_mul,
    mirabolic_reps,
)
from rsexact.padic import (
    PadicMatrix,
    iwasawa_NAK,
    ng_cell_volume,
    theta_at,
    theta_class,
    vp_int,
)
from rsexact.simpletypes import DEPTH_ZERO, RAMIFIED, SimpleTypeData, psi_t_class


class NotInU(RSExactError):
    """Matrix lies outside the unipotent-extended domain of the character."""


def val_p(x, p: int):
    """p-adic valuation of a rational; +infinity for zero."""
    x = Fraction(x)
    if not x:
        return math.inf
    return vp_int(x.numerator, p) - vp_int(x.denominator, p)


def entry_val(g: PadicMatrix, i: int, j: int, p: int):
    """Valuation of entry (i, j) of g; +infinity for zero."""
    e = g.num[i][j]
    return vp_int(e, p) - vp_int(g.den, p) if e else math.inf


def int_mod(x, p: int, m: int) -> int:
    """Reduction of a p-integral rational modulo p^m, as an int in [0, p^m)."""
    x = Fraction(x)
    mod = p**m
    if x.denominator % p == 0:
        raise ValueError(f"{x} is not p-integral")
    return x.numerator * pow(x.denominator, -1, mod) % mod


def upper_unipotent(entries: dict, n: int) -> PadicMatrix:
    """Unipotent matrix with given strictly-upper entries {(i, j): value}."""
    rows = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    for (i, j), v in entries.items():
        if i >= j:
            raise ValueError("entries must be strictly upper")
        rows[i][j] = Fraction(v)
    return PadicMatrix(rows)


def theta_eval(p: int, x, cap: int, scal=CYC):
    """The additive character of Q_p that is trivial on pZ_p and sends 1 to zeta_p.

    theta(x) = zeta_{p^{m+1}}^{p^m x mod p^{m+1}} with m = max(0, -val(x));
    raises DepthExceeded when m exceeds the session cap.
    """
    x = Fraction(x)
    return theta_at(theta_class(p, x.numerator, x.denominator, cap), scal)


def power_rows(n: int):
    """Row k is the integer coefficient vector of x**k modulo the monic n-th
    cyclotomic polynomial, by the recurrence x**k = x * x**(k - 1)."""
    phi = cyclotomic_poly(n)
    deg = len(phi) - 1
    rows = [[int(i == j) for i in range(deg)] for j in range(deg)]
    for k in range(deg, n):
        prev = rows[k - 1]
        carry = prev[-1]
        row = [0] + prev[:-1]
        if carry:
            for j in range(deg):
                row[j] -= carry * phi[j]
        rows.append(row)
    return rows


def lam(data: SimpleTypeData, j: PadicMatrix, scal=CYC):
    """lambda of a ramified type at j, read on the kernel class of j; the
    class cannot tell whether j lies in J, so that is asserted here."""
    assert data.in_J(j), j
    return data.lam_on_class(data.kernel_class(j), scal)


def psi_t_eval(data: SimpleTypeData, n_mat: PadicMatrix, scal=CYC, sign: int = 1):
    """psi_t(n) = theta(sum_i p^{t_i - t_{i+1}} n_{i,i+1}), or its inverse."""
    return theta_at(psi_t_class(data, n_mat), scal, sign)


def in_J1(data: SimpleTypeData, g: PadicMatrix) -> bool:
    """g in J^1: K^1 at depth zero, 1 + P_A for the ramified order."""
    p = data.p
    # y = g - 1 has numerators g.num - den * Id over the same den
    y = PadicMatrix.from_ints(
        [
            [e - g.den if i == j else e for j, e in enumerate(row)]
            for i, row in enumerate(g.num)
        ],
        g.den,
    )
    if data.family == DEPTH_ZERO:
        return all(entry_val(y, i, j, p) >= 1 for i in range(data.n) for j in range(data.n))
    return (
        entry_val(y, 0, 0, p) >= 1
        and entry_val(y, 0, 1, p) >= 1
        and entry_val(y, 1, 0, p) >= 0
        and entry_val(y, 1, 1, p) >= 1
    )


def beta_trace(data: SimpleTypeData, y: PadicMatrix) -> Fraction:
    """tr(w_E^{-1} y) = y_21 + y_12 / p for the ramified order."""
    return y.entry(1, 0) + y.entry(0, 1) / data.p


def extended_psi_on_U(data: SimpleTypeData, g: PadicMatrix):
    """The character of U = N(F) * J^1 restricting to lambda on J^1; NotInU
    off that set.

    The two restrictions agree on N cap J^1 only for psi_t raised to the
    orientation sign, so the N-part contributes psi_t^{orientation}.  The
    J^1 factor is found by clearing the strictly-upper part of g with exact
    unipotent row operations, then membership is checked strictly.
    """
    n = data.n
    h = g
    u = PadicMatrix.identity(n)
    for i in range(n - 2, -1, -1):
        for j in range(n - 1, i, -1):
            piv = h.entry(j, j)
            if val_p(piv, data.p) != 0:
                raise NotInU(f"{g!r} is not in N * J^1")
            x = h.entry(i, j) / piv
            elem = upper_unipotent({(i, j): x}, n)
            u = u * elem
            h = elem.inverse() * h
    if not in_J1(data, h):
        raise NotInU(f"{g!r} is not in N * J^1")
    sign = data.orientation if data.family == RAMIFIED else 1
    value = psi_t_eval(data, u, sign=sign)
    if data.family == RAMIFIED:
        y = PadicMatrix(
            [[h.entry(i, k) - (1 if i == k else 0) for k in range(2)] for i in range(2)]
        )
        value = value * theta_eval(
            data.p, Fraction(data.orientation) * beta_trace(data, y), data.cap
        )
    return value


def row_slice(pair, row) -> int:
    """Which determinant slice a bottom row supports (n = 2 families)."""
    p = pair.p
    c, d = (int(x) for x in row)
    if d % p:
        return 0
    if c % p:
        return 1
    raise ValueError("row is not unimodular")


def cell_support_report_per_cell(pair, cell_log) -> dict:
    """integral.cell_support_report with b_k = 0 at k in {-2, -1, n, n + 1}
    tested on every cell of the log, and the row law on Fraction matrices."""
    zero = pair.scal.zero()
    step = pair.n_over_e
    pattern_ok = row_ok = single_ok = True
    masses = {}
    for rec in cell_log:
        nz = {k for k, b in rec.slices.items() if b != zero}
        s = row_slice(pair, rec.row) if pair.e == 2 else 0
        pattern_ok = pattern_ok and not any(k % step for k in nz) and all(
            b_coefficient(pair, rec.rep, k) == zero
            for k in (-2, -1, pair.n, pair.n + 1))
        row_ok = row_ok and nz == {s * step} and (
            pair.e != 2 or factors_through_mirabolic(pair, rec, s))
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


def factors_through_mirabolic(pair, rec, s: int) -> bool:
    """integral._factors_through_mirabolic on Fraction entries: the cell
    is p_0 j' (slice 0) or diag(p, 1) times it is p_0 w_E j' (slice 1), with
    p_0 in K of last row (0, 1) and j' in J."""
    c, d = (Fraction(x) for x in rec.row)
    if s == 0:
        jp = PadicMatrix([[d, 0], [c, d]])
        target = rec.rep
        full = jp
    else:
        jp = PadicMatrix([[c, d], [0, c]])
        target = rec.rep.scale_row(0, pair.p)
        full = pair.type1.uniformizer() * jp
    if not pair.type1.in_J(jp):
        return False
    p0 = target * full.inverse()
    return (p0.in_K(pair.p) and p0.rows[-1] == (Fraction(0), Fraction(1))
            and p0 * full == target)


def nk_cell_reps_fractions(p: int, m: int) -> list:
    """padic.nk_cell_reps, in the same order, built through the Fraction
    path of PadicMatrix."""
    mod = p**m
    units = [x for x in range(mod) if x % p]
    out = [PadicMatrix([[a, 0], [c, d]])
           for a in units for c in range(0, mod, p) for d in units]
    out += [PadicMatrix([[0, b], [c, d]])
            for b in units for c in units for d in range(mod)]
    return out


def c_k_point_walk(pair, k: int, window: int = 4):
    """integral.c_k_bruteforce with every point diag(p^v1, p^v2) kbar made
    by two row scalings of a freshly built representative."""
    scal, p, m = pair.scal, pair.p, pair.level
    reps = nk_cell_reps_fractions(p, m)
    shells = []
    for v1 in range(-window, window + 1):
        v2 = k - v1
        if abs(v2) > window or v2 < 0:
            continue
        x1, x2 = Fraction(p) ** v1, Fraction(p) ** v2
        vol = scal.from_fraction(ng_cell_volume(p, 2, m, (v1, v2)))
        values = (pair.point_value(kbar.scale_row(0, x1).scale_row(1, x2)) for kbar in reps)
        shells.append(vol * scal.sum(v for v in values if v is not None))
    return scal.sum(shells) * scal.from_fraction(Fraction(p - 1))


def n_orbit_rep(g, p: int):
    """Lexicographically least element of (unitriangular N) * g, for g the
    int rows of an element of GL_n(F_p)."""
    return min(mat_mul(u, g, p) for u in enumerate_unitriangular(p, len(g)))


def n_coset_reps(p: int, k: int) -> list:
    """The orbit minima of N_k on GL_k(F_p), k in {1, 2}, in the order of
    their int rows, found by searching every orbit: the blocks of
    matgroups.mirabolic_reps, in the same order.  N_1 is trivial, so for
    k = 1 they are the units."""
    if k == 1:
        return [((a,),) for a in range(1, p)]
    return sorted({n_orbit_rep(g, p) for g in enumerate_group(p, k)})


def mirabolic_convolution(b1, b2, g1, g2):
    """sum over N\\M of J1(g1 m^{-1}) J2(m g2), M the mirabolic subgroup,
    every value read through BesselFunction.value."""
    p = b1.field.p
    return b1.scal.sum(b1.value(mat_mul(g1, m_inv, p)) * b2.value(mat_mul(m, g2, p))
                       for m, m_inv in mirabolic_reps(p, b1.n))


def bessel_convolution_check(b1, b2, g1, g2) -> bool:
    """Does the mirabolic convolution of J1 and J2 reproduce J1 at g1 g2?

    Used with b2 the Bessel function of the same character; the identity is
    the finite-level analogue of the Whittaker-coefficient reproducing
    formula.  cuspchar.bessel_convolution_holds gives the verdict over many
    pairs at once.
    """
    return mirabolic_convolution(b1, b2, g1, g2) == b1.value(mat_mul(g1, g2, b1.field.p))


def iwasawa_PZK(g: PadicMatrix, p: int):
    """g = p_part * z * k with p_part mirabolic, z = p^l * Id, k in K.

    The central exponent is the last Iwasawa valuation, so the mirabolic
    factor always exists; returns (p_part, l, k).
    """
    n_mat, vals, k = iwasawa_NAK(g, p)
    l = vals[-1]
    a_shift = PadicMatrix.diagonal([Fraction(p) ** (v - l) for v in vals])
    return n_mat * a_shift, l, k


def degree_value(chi: CuspidalCharacter) -> int:
    """The degree prod_{i<n} (q^i - 1) of a cuspidal character of GL_n(F_q)."""
    return math.prod(chi.q**i - 1 for i in range(1, chi.n))


def n_right_coset_canonical(g, p: int):
    """Canonical representative of g*N, N the upper unitriangular group, for
    g the int rows of an element of GL_n(F_p).

    Right multiplication by N adds earlier columns into later ones; the
    unique coset member whose column j vanishes at the pivot rows of columns
    0..j-1 (pivot = bottom-most unclaimed nonzero row) is returned.
    """
    n = len(g)
    cols = [list(col) for col in zip(*g)]
    pivots: list[int] = []
    for j in range(n):
        for jj in range(j):
            pi = pivots[jj]
            if cols[j][pi]:
                c = cols[j][pi] * pow(cols[jj][pi], -1, p)
                cols[j] = [(a - c * b) % p for a, b in zip(cols[j], cols[jj])]
        pivot = next(i for i in range(n - 1, -1, -1) if i not in pivots and cols[j][i])
        pivots.append(pivot)
    return tuple(zip(*cols))


def character_invariants(chi: CuspidalCharacter) -> dict:
    """Exhaustive structural certification of the character table.

    Builds the full value table over GL_n(F_q) once and checks:

    - ``norm_one``: the self inner product is 1, i.e. chi is (plus or minus)
      an irreducible character; combined with positive degree it is a genuine
      irreducible;
    - ``degree``: chi(1) = prod_{i<n} (q^i - 1);
    - ``sum_zero``: chi is orthogonal to the trivial character;
    - ``central_character``: chi(z g) = Theta(z) chi(g) for every central z
      and every g;
    - ``cuspidal_vanishing``: sum of chi over every right coset g N is zero,
      which is exactly the vanishing of the N-coinvariants (cuspidality).

    The GL_3 value table is accepted purely on the strength of this suite.
    """
    p, n = chi.q, chi.n
    G = enumerate_group(p, n)
    val = {g: chi.value(g) for g in G}

    norm_one = CYC.sum(val[g] * val[mat_inverse(g, p)] for g in G) == len(G)
    degree_ok = val[identity(n)] == degree_value(chi)
    sum_zero = CYC.sum(val.values()).is_zero()

    central_ok = True
    for z in range(1, chi.q):
        tz = chi.central_value(z)
        for g in G:
            zg = tuple(tuple(e * z % p for e in row) for row in g)
            if not val[zg] == tz * val[g]:
                central_ok = False
                break
        if not central_ok:
            break

    cosets: dict = {}
    for g in G:
        cosets.setdefault(n_right_coset_canonical(g, p), []).append(val[g])
    n_size = len(enumerate_unitriangular(p, n))
    cuspidal = len(cosets) == len(G) // n_size and all(
        CYC.sum(values).is_zero() for values in cosets.values()
    )

    return {
        "norm_one": norm_one,
        "degree": degree_ok,
        "sum_zero": sum_zero,
        "central_character": central_ok,
        "cuspidal_vanishing": cuspidal,
    }
