import itertools
import random
from fractions import Fraction
from math import factorial

import pytest

from rsexact import cuspchar
from rsexact.cli import _convolution_pairs
from rsexact.cyclo import CYC, CycNumber, CycScalars, cyc_embed_root
from rsexact.cuspchar import (
    BesselFunction,
    CuspidalCharacter,
    bessel_convolution_holds,
    psi_of_unipotent,
)
from rsexact.errors import NotRegular
from rsexact.finitefield import AddChar, MultChar, gf
from rsexact.matgroups import (
    bruhat_cell,
    enumerate_group,
    enumerate_unitriangular,
    identity,
    mat_inverse,
    mat_mul,
    mirabolic_reps,
    small_det,
)
from rsexact.padic import PadicMatrix
from rsexact.residue import ResidueScalars
from rsexact.simpletypes import DEPTH_ZERO, WhittakerFunction, make_type

from reference import (
    bessel_convolution_check,
    character_invariants,
    degree_value,
    mirabolic_convolution,
)


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------


def times(p, *factors):
    """The int rows of the product of `factors` in GL_n(F_p)."""
    out = factors[0]
    for f in factors[1:]:
        out = mat_mul(out, f, p)
    return out


def _perm_sign(perm):
    seen = set()
    sign = 1
    for a in perm:
        if a in seen:
            continue
        length = 0
        x = a
        while x not in seen:
            seen.add(x)
            x = perm[x]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def _s3_sign(g):
    """Sign of g in GL_2(F_2) = S_3 acting on the three nonzero row vectors."""
    vecs = [v for v in itertools.product(range(2), repeat=2) if any(v)]
    (a, b), (c, d) = g
    perm = {}
    for v in vecs:
        perm[v] = ((v[0] * a + v[1] * c) % 2, (v[0] * b + v[1] * d) % 2)
    return _perm_sign(perm)


def _borel_restriction_pairing(chi, ts):
    """<Res_B chi, theta_ts>_B computed by direct summation over B.

    By Frobenius reciprocity this is the multiplicity of chi in the
    principal series induced from the torus character with exponents ts;
    cuspidality is the vanishing of all of these.
    """
    F = chi.base_field
    n = chi.n
    q = F.order
    pos = [(i, j) for i in range(n) for j in range(n) if i < j]
    total = CycNumber.zero()
    count = 0
    for diag in itertools.product(range(1, q), repeat=n):
        tval = CycNumber.one()
        for t, d in zip(ts, diag):
            if q > 2:
                tval = tval * cyc_embed_root(q - 1, t * F.dlog(F.constant(d)))
        for upper in itertools.product(range(q), repeat=len(pos)):
            rows = [[diag[i] if i == j else 0 for j in range(n)] for i in range(n)]
            for (i, j), v in zip(pos, upper):
                rows[i][j] = v
            b = tuple(map(tuple, rows))
            total = total + chi.value(b) * tval.conj(-1)
            count += 1
    return total * Fraction(1, count)


# ---------------------------------------------------------------------------
# GL_2(F_2): the cuspidal character is the sign character of S_3
# ---------------------------------------------------------------------------


def test_q2_character_is_s3_sign():
    chi = CuspidalCharacter(MultChar(gf(2, 2), 1))
    for g in enumerate_group(2, 2):
        assert chi.value(g) == _s3_sign(g)


def test_q2_bessel_is_s3_sign():
    chi = CuspidalCharacter(MultChar(gf(2, 2), 1))
    J = BesselFunction(chi, AddChar(gf(2), 1))
    for g in enumerate_group(2, 2):
        assert J.value(g) == _s3_sign(g)


# ---------------------------------------------------------------------------
# structural certification of the value tables
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "q,n,t",
    [(2, 2, 1), (3, 2, 1), (3, 2, 5), (5, 2, 1), (2, 3, 1), (3, 3, 1)],
)
def test_character_invariant_suite(q, n, t):
    chi = CuspidalCharacter(MultChar(gf(q, n), t))
    results = character_invariants(chi)
    assert results == {k: True for k in results}


@pytest.mark.parametrize(
    "q,n,t", [(2, 2, 1), (3, 2, 1), (3, 2, 2), (2, 3, 1), (3, 3, 1), (3, 3, 2)]
)
def test_cuspidality_against_principal_series(q, n, t):
    chi = CuspidalCharacter(MultChar(gf(q, n), t))
    for ts in itertools.product(range(q - 1), repeat=n):
        assert _borel_restriction_pairing(chi, ts).is_zero()


def test_distinct_orbits_are_orthogonal():
    F9 = gf(3, 2)
    chi1 = CuspidalCharacter(MultChar(F9, 1))
    chi2 = CuspidalCharacter(MultChar(F9, 2))
    G = enumerate_group(3, 2)
    total = CycNumber.zero()
    for g in G:
        total = total + chi1.value(g) * chi2.value(mat_inverse(g, 3))
    assert total.is_zero()
    # same orbit: t=3 is the Frobenius translate of t=1
    chi3 = CuspidalCharacter(MultChar(F9, 3))
    total = CycNumber.zero()
    for g in G:
        total = total + chi1.value(g) * chi3.value(mat_inverse(g, 3))
    assert total == len(G)


def test_regularity_gate():
    with pytest.raises(NotRegular):
        CuspidalCharacter(MultChar(gf(2, 2), 0))
    with pytest.raises(NotRegular):
        CuspidalCharacter(MultChar(gf(3, 2), 4))
    with pytest.raises(NotRegular):
        CuspidalCharacter(MultChar(gf(2, 3), 0))


def test_dual_character_is_inverse_composed():
    for q, n in ((2, 2), (3, 2), (2, 3)):
        chi = CuspidalCharacter(MultChar(gf(q, n), 1))
        chid = chi.dual()
        for g in enumerate_group(q, n):
            assert chid.value(g) == chi.value(mat_inverse(g, q))


def test_degree_values():
    assert degree_value(CuspidalCharacter(MultChar(gf(3, 2), 1))) == 2
    assert degree_value(CuspidalCharacter(MultChar(gf(5, 2), 1))) == 4
    assert degree_value(CuspidalCharacter(MultChar(gf(3, 3), 1))) == 16
    assert degree_value(CuspidalCharacter(MultChar(gf(2, 3), 1))) == 3


# ---------------------------------------------------------------------------
# Bessel functions
# ---------------------------------------------------------------------------


def test_bessel_at_identity_unrolled():
    # independent unrolled computation of J(1) at q=3:
    # J(1) = (1/3)(chi(1) + zeta3^{-1} chi(u(1)) + zeta3^{-2} chi(u(2)))
    #      = (1/3)(2 - zeta3^2 - zeta3) = 1
    F3 = gf(3)
    chi = CuspidalCharacter(MultChar(gf(3, 2), 1))
    u1 = ((1, 1), (0, 1))
    u2 = ((1, 2), (0, 1))
    eye = identity(2)
    by_hand = (
        chi.value(eye)
        + cyc_embed_root(3, -1) * chi.value(u1)
        + cyc_embed_root(3, -2) * chi.value(u2)
    ) * Fraction(1, 3)
    assert by_hand == 1
    J = BesselFunction(chi, AddChar(F3, 1))
    assert J.value(eye) == 1


@pytest.mark.parametrize("q,n", [(2, 2), (3, 2), (5, 2), (2, 3)])
def test_bessel_identity_value(q, n):
    chi = CuspidalCharacter(MultChar(gf(q, n), 1))
    J = BesselFunction(chi, AddChar(gf(q), 1))
    assert J.value(identity(n)) == 1


def test_bessel_equivariance():
    F3 = gf(3)
    chi = CuspidalCharacter(MultChar(gf(3, 2), 1))
    psi = AddChar(F3, 1)
    J = BesselFunction(chi, psi)
    G = enumerate_group(3, 2)
    N = enumerate_unitriangular(3, 2)
    rng = random.Random(17)
    for _ in range(6):
        g = rng.choice(G)
        for u in N:
            for v in N:
                lhs = J.value(times(3, u, g, v))
                rhs = psi_of_unipotent(psi, u) * psi_of_unipotent(psi, v) * J.value(g)
                assert lhs == rhs


def test_bessel_equivariance_n3():
    F2 = gf(2)
    chi = CuspidalCharacter(MultChar(gf(2, 3), 1))
    psi = AddChar(F2, 1)
    J = BesselFunction(chi, psi)
    G = enumerate_group(2, 3)
    N = enumerate_unitriangular(2, 3)
    rng = random.Random(18)
    for _ in range(3):
        g = rng.choice(G)
        for u in N:
            assert J.value(times(2, u, g)) == psi_of_unipotent(psi, u) * J.value(g)
            assert J.value(times(2, g, u)) == J.value(g) * psi_of_unipotent(psi, u)


def bessel_by_definition(chi, psi, g):
    """|N|^-1 sum over all u in N of psi(u)^-1 chi(g u)."""
    N = enumerate_unitriangular(chi.q, chi.n)
    total = CycNumber.zero()
    for u in N:
        arg = sum(u[i][i + 1] for i in range(chi.n - 1))
        total = total + psi.inverse().value(arg) * chi.value(times(chi.q, g, u))
    return total * Fraction(1, len(N))


def assert_same_bessel_values(chi, points):
    """J(g) equals the definition for psi and psi^-1, by value, by its
    printed form and by raw modulus, which reports print; returns the two
    Bessel functions."""
    out = []
    for psi in (AddChar(chi.base_field, 1), AddChar(chi.base_field, -1)):
        J = BesselFunction(chi, psi)
        for g in points:
            got, want = J.value(g), bessel_by_definition(chi, psi, g)
            assert got == want and str(got) == str(want), (psi, g)
            assert got.modulus == want.modulus, (psi, g)
        out.append(J)
    return out


@pytest.mark.parametrize("q,n", [(2, 2), (3, 2), (5, 2), (7, 2), (2, 3)])
def test_bessel_matches_the_definition_everywhere(q, n):
    chi = CuspidalCharacter(MultChar(gf(q, n), 1))
    for J in assert_same_bessel_values(chi, enumerate_group(q, n)):
        # the |N|-sum ran once per monomial matrix
        assert len(J._cells) == factorial(n) * (q - 1) ** n


def test_bessel_matches_the_definition_on_every_gl3_f3_cell():
    # a seeded sample of GL_3(F_3) (11 232 elements): two points u_1 m u_2
    # in each of the 48 cells, for every monomial m
    chi = CuspidalCharacter(MultChar(gf(3, 3), 1))
    N = enumerate_unitriangular(3, 3)
    rng = random.Random(48)
    points = []
    for perm in itertools.permutations(range(3)):
        for diag in itertools.product((1, 2), repeat=3):
            m = tuple(tuple(diag[i] if j == perm[i] else 0 for j in range(3))
                      for i in range(3))
            points += [times(3, rng.choice(N), m, rng.choice(N)) for _ in range(2)]
    for J in assert_same_bessel_values(chi, points):
        assert len(J._cells) == 48


@pytest.mark.parametrize("q,n,trials", [(5, 2, 40), (7, 2, 40), (3, 3, 20)])
def test_bessel_two_sided_law_on_random_triples(q, n, trials):
    # J(u_1 g u_2) = psi(u_1) psi(u_2) J(g), stated without the decomposition
    F = gf(q)
    chi = CuspidalCharacter(MultChar(gf(q, n), 1))
    N = enumerate_unitriangular(q, n)
    rng = random.Random(100 * q + n)
    for psi in (AddChar(F, 1), AddChar(F, -1)):
        J = BesselFunction(chi, psi)
        done = 0
        while done < trials:
            g = tuple(tuple(rng.randrange(q) for _ in range(n)) for _ in range(n))
            if not small_det(g) % q:
                continue
            u1, u2 = rng.choice(N), rng.choice(N)
            assert J.value(times(q, u1, g, u2)) == (
                psi_of_unipotent(psi, u1) * psi_of_unipotent(psi, u2) * J.value(g))
            done += 1


def test_bessel_memo_and_term_table_per_scalar_context(monkeypatch):
    # GL_2(F_3): Theta has order 8 and psi order 3, so zeta_24 covers both
    F3 = gf(3)
    chi, psi = CuspidalCharacter(MultChar(gf(3, 2), 1)), AddChar(F3, 1)
    res = ResidueScalars(5, 24, 0)
    psi_calls = []

    def counted(*args):
        psi_calls.append(args[1])
        return psi_of_unipotent(*args)

    monkeypatch.setattr(cuspchar, "psi_of_unipotent", counted)
    J, J_res = BesselFunction(chi, psi), BesselFunction(chi, psi, res)
    # psi(u)^-1 is computed once per unitriangular u, at construction
    assert len(psi_calls) == 2 * len(enumerate_unitriangular(3, 2))
    G = enumerate_group(3, 2)
    for i, g in enumerate(G):
        if i % 2:
            exact, reduced = J.value(g), J_res.value(g)
        else:
            reduced, exact = J_res.value(g), J.value(g)
        assert reduced == res.embed_cyc(exact)
        assert J_res.value(g) is reduced and J.value(g) is exact
    assert len(J._memo) == len(J_res._memo) == len(G)
    assert len(psi_calls) == 2 * len(enumerate_unitriangular(3, 2))


def test_bessel_memo_shared_by_kernel_classes_and_reduced_matrices():
    # a depth-zero test vector reads its Bessel kernel off the class of j mod
    # p, the int rows the group layer uses for the matrix j mod p
    t = make_type(DEPTH_ZERO, 3, theta=1)
    W = WhittakerFunction(t)
    cls = t.kernel_class(PadicMatrix([[Fraction(1, 2), -1], [3, 7]]))
    assert cls == ((2, 2), (0, 1))
    value = W.kernel(cls)
    assert len(W._bessel._memo) == 1
    reduced = tuple(tuple(e % 3 for e in row) for row in [[-1, 2], [3, 7]])
    assert W._bessel.value(reduced) is value
    assert len(W._bessel._memo) == 1


def test_convolution_random_q3_q5():
    for q, trials in ((3, 60), (5, 25)):
        chi = CuspidalCharacter(MultChar(gf(q, 2), 1))
        J = BesselFunction(chi, AddChar(gf(q), 1))
        G = enumerate_group(q, 2)
        rng = random.Random(q)
        for _ in range(trials):
            g1, g2 = rng.choice(G), rng.choice(G)
            assert bessel_convolution_check(J, J, g1, g2)


def test_convolution_n3():
    chi = CuspidalCharacter(MultChar(gf(2, 3), 1))
    J = BesselFunction(chi, AddChar(gf(2), 1))
    G = enumerate_group(2, 3)
    rng = random.Random(19)
    for _ in range(10):
        g1, g2 = rng.choice(G), rng.choice(G)
        assert bessel_convolution_check(J, J, g1, g2)


def _monomials(q, n):
    """The int rows of every monomial matrix in GL_n(F_q)."""
    units = range(1, q)
    return [tuple(tuple(diag[i] if j == perm[i] else 0 for j in range(n)) for i in range(n))
            for perm in itertools.permutations(range(n))
            for diag in itertools.product(units, repeat=n)]


def _cli_bessel(q, n, scal=CYC):
    """The Bessel function and convolution pairs of `bessel-table --q q
    --n n --theta 1`, with every Bruhat cell summed."""
    F = gf(q)
    chi = CuspidalCharacter(MultChar(gf(q, n), 1))
    J = BesselFunction(chi, AddChar(F, 1), scal)
    G = enumerate_group(q, n)
    for g in G:
        J.value(g)
    return J, _convolution_pairs(G, q, n)


def test_convolution_check_reads_the_memoized_coordinates(monkeypatch):
    """bessel_convolution_holds reads Bruhat coordinates through
    J.coordinates: no bruhat_cell call once J.value has seen every g of
    GL_2(F_3), and one per distinct matrix on a fresh J."""
    calls = []
    real = cuspchar.bruhat_cell

    def counted(rows, p):
        calls.append(rows)
        return real(rows, p)

    monkeypatch.setattr(cuspchar, "bruhat_cell", counted)
    J, pairs = _cli_bessel(3, 2)
    assert len(calls) == 48
    calls.clear()
    assert bessel_convolution_holds(J, pairs)
    assert calls == []

    fresh = BesselFunction(J.chi, J.psi)
    assert bessel_convolution_holds(fresh, pairs)
    reps = mirabolic_reps(3, 2)
    matrices = {times(3, g1, g2) for g1, g2 in pairs}
    matrices |= {times(3, g1, m_inv) for g1, _ in pairs for _, m_inv in reps}
    matrices |= {times(3, m, g2) for _, g2 in pairs for m, _ in reps}
    assert len(calls) == len(set(calls)) == len(matrices)
    assert set(calls) == matrices


@pytest.mark.parametrize("q,n,n_pairs", [(2, 2, 36), (3, 2, 2304), (5, 2, 200), (2, 3, 200)])
def test_batch_convolution_matches_per_pair_reference(q, n, n_pairs):
    # every pair of GL_2(F_2) and GL_2(F_3); the 200 seeded pairs beyond
    J, pairs = _cli_bessel(q, n)
    assert len(pairs) == n_pairs
    per_pair = all(bessel_convolution_check(J, J, g1, g2) for g1, g2 in pairs)
    assert bessel_convolution_holds(J, pairs) is per_pair is True


class _CellMutant(BesselFunction):
    """J with zeta_q added to the |N|-sum of the one monomial `target`."""

    def __init__(self, chi, psi, target):
        super().__init__(chi, psi)
        self.target = target

    def _cell_sum(self, m):
        out = super()._cell_sum(m)
        if m == self.target:
            out = out + self.scal.root_of_unity(self.field.order, 1)
        return out


@pytest.mark.parametrize("q,n,n_cells", [(3, 2, 8), (2, 3, 6)])
def test_both_convolution_checks_refuse_every_cell_mutant(q, n, n_cells):
    F = gf(q)
    chi = CuspidalCharacter(MultChar(gf(q, n), 1))
    pairs = _convolution_pairs(enumerate_group(q, n), q, n)
    targets = _monomials(q, n)
    assert len(targets) == n_cells
    for target in targets:
        J = _CellMutant(chi, AddChar(F, 1), target)
        assert not bessel_convolution_holds(J, pairs), target
        assert not all(bessel_convolution_check(J, J, g1, g2) for g1, g2 in pairs), target


class _CountedSums(CycScalars):
    """The characteristic-zero context, counting its sums."""

    def __init__(self):
        self.sums = 0

    def sum(self, values):
        self.sums += 1
        return super().sum(values)


@pytest.mark.parametrize("q,n,n_pairs,n_keys", [(3, 2, 2304, 104), (2, 3, 200, 57)])
def test_batch_convolution_sums_once_per_bruhat_class(q, n, n_pairs, n_keys):
    # after the table is built every cell holds its sum, so each sum the
    # check runs is one key's
    scal = _CountedSums()
    J, pairs = _cli_bessel(q, n, scal)
    scal.sums = 0
    assert bessel_convolution_holds(J, pairs)
    assert (len(pairs), scal.sums) == (n_pairs, n_keys)


@pytest.mark.parametrize("q,n", [(2, 2), (3, 2), (5, 2), (2, 3)])
def test_bessel_value_is_psi_times_the_cell_value(q, n):
    # J(g) = psi(x) J(m) for (m, x) the Bruhat coordinates of g, with both
    # sides summed by the definition
    F = gf(q)
    chi = CuspidalCharacter(MultChar(gf(q, n), 1))
    psi = AddChar(F, 1)
    J = BesselFunction(chi, psi)
    by_cell = {m: bessel_by_definition(chi, psi, m) for m in _monomials(q, n)}
    for g in enumerate_group(q, n):
        m, x = bruhat_cell(g, q)
        want = psi.value(x) * by_cell[m]
        assert J.value(g) == want and J.cell_value(m, x) is J.value(g), g


def test_dual_kernel_identity():
    # the kernel built from (dual character, inverse psi) is J1 of the inverse
    for q in (2, 3):
        chi = CuspidalCharacter(MultChar(gf(q, 2), 1))
        psi = AddChar(gf(q), 1)
        J1 = BesselFunction(chi, psi)
        J2 = BesselFunction(chi.dual(), psi.inverse())
        for g in enumerate_group(q, 2):
            assert J2.value(g) == J1.value(mat_inverse(g, q))


def test_unit_sum_of_dual_pair_is_one():
    # sum over a in F_q^x of J1(d(a)k) J2(d(a)k) == 1 for every k in GL_2(F_q)
    # (convolution identity + dual-kernel identity; the depth-zero engine's b_0)
    F3 = gf(3)
    chi = CuspidalCharacter(MultChar(gf(3, 2), 1))
    psi = AddChar(F3, 1)
    J1 = BesselFunction(chi, psi)
    J2 = BesselFunction(chi.dual(), psi.inverse())
    for k in enumerate_group(3, 2):
        total = CycNumber.zero()
        for a in range(1, 3):
            dk = times(3, ((a, 0), (0, 1)), k)
            total = total + J1.value(dk) * J2.value(dk)
        assert total == 1


def test_mirabolic_convolution_matches_direct_sum():
    # for n=2 the coset representatives are the diagonal d(a); unrolled check
    F3 = gf(3)
    chi = CuspidalCharacter(MultChar(gf(3, 2), 1))
    J = BesselFunction(chi, AddChar(F3, 1))
    G = enumerate_group(3, 2)
    rng = random.Random(21)
    for _ in range(10):
        g1, g2 = rng.choice(G), rng.choice(G)
        direct = CycNumber.zero()
        for a in range(1, 3):
            d = ((a, 0), (0, 1))
            direct = direct + J.value(times(3, g1, mat_inverse(d, 3))) * J.value(times(3, d, g2))
        assert direct == mirabolic_convolution(J, J, g1, g2)


def test_bessel_requires_matching_nontrivial_psi():
    chi = CuspidalCharacter(MultChar(gf(3, 2), 1))
    with pytest.raises(ValueError):
        BesselFunction(chi, AddChar(gf(3), 0))
    with pytest.raises(ValueError):
        BesselFunction(chi, AddChar(gf(5), 1))
