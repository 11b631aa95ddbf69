"""Residue fields F_ell[x]/(f0) of cyclotomic integers, as scalars.

For ell coprime to N, the N-th cyclotomic polynomial factors mod ell into
distinct irreducible factors, all of degree d equal to the multiplicative
order of ell mod N.  Choosing one factor f0 fixes a ring morphism

  Z[zeta_N]_(ell)  ->  F_ell[x]/(f0),   zeta_N -> omega := class of x,

i.e. a choice of prime above ell.  The target field is the finitefield
``gf(ell, d, f0)`` and its elements are ``FFElement``s.  ResidueScalars
wraps it in the same scalar-provider protocol the cyclotomic scalars
implement (zero/one/from_fraction/root_of_unity/embed_cyc/sum), so the
whole integral engine can be rerun verbatim over the residue field.

The factors come from the equal-degree splitting of Cantor and Zassenhaus
(Math. Comp. 36, 1981) with a fixed-seed generator.  They are ordered by
their ascending coefficient tuples, so a factor index pins down the same
prime in every run.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cache
from math import gcd

from .cyclo import CycNumber, cyclotomic_poly, is_prime
from .errors import NotIntegralAtEll
from .finitefield import FFElement, _padd, _pdivmod, _pgcd, _pmod, _pmul, _ppow, _trim, gf


@cache
def cyclotomic_factors(ell: int, N: int) -> tuple:
    """Monic irreducible factors of Phi_N mod ell, as ascending coefficient
    tuples (c_0, ..., c_d) with c_d = 1, sorted by tuple."""
    if N < 1 or ell == 2 or not is_prime(ell):
        raise ValueError("need N >= 1 and an odd prime ell")
    if gcd(ell, N) != 1:
        raise ValueError(f"ell={ell} must be coprime to the conductor N={N}")
    d, t = 1, ell % N
    while t != 1 % N:
        d, t = d + 1, t * ell % N
    rng = random.Random(0)
    out = []
    frobenius = {}
    todo = [tuple(c % ell for c in cyclotomic_poly(N))]
    while todo:
        f = todo.pop()
        if len(f) - 1 == d:
            out.append(f)
            continue
        # in each factor's residue field a**((ell**d - 1) / 2) is 1 or -1
        # (or 0), about evenly and independently for a random a, so the gcd
        # of that power minus 1 with f is proper unless every factor agrees
        a = tuple(rng.randrange(ell) for _ in range(len(f) - 1))
        if f not in frobenius:
            frobenius[f] = _frobenius_matrix(f, ell)
        power = _euler_power(a, f, ell, d, frobenius[f])
        g = _pgcd(_padd(power, (ell - 1,), ell), f, ell)
        if 1 < len(g) < len(f):
            todo += [g, _pdivmod(f, g, ell)[0]]
        else:
            todo.append(f)
    out.sort()
    return tuple(out)


def _frobenius_matrix(f, ell) -> list:
    """The matrix of x -> x**ell on F_ell[x]/(f), as its rows x**(j * ell)
    mod f for j < deg f."""
    x_ell = _ppow((0, 1), ell, f, ell)
    rows, row = [], (1,)
    for _ in range(len(f) - 1):
        rows.append(row)
        row = _pmod(_pmul(row, x_ell, ell), f, ell)
    return rows


def _euler_power(a, f, ell, d, frobenius) -> tuple:
    """a**((ell**d - 1) / 2) mod f, computed as N(a)**((ell - 1) / 2) with
    N(a) the product of the conjugates a**(ell**i), i < d; each conjugate is
    the previous one times the matrix `frobenius` of _frobenius_matrix(f)."""
    norm = conj = _trim(a)
    for _ in range(d - 1):
        image = [0] * (len(f) - 1)
        for c, row in zip(conj, frobenius):
            if c:
                for j, y in enumerate(row):
                    image[j] += c * y
        conj = _trim([c % ell for c in image])
        norm = _pmod(_pmul(norm, conj, ell), f, ell)
    return _ppow(norm, (ell - 1) // 2, f, ell)


class ResidueScalars:
    """Scalar provider over F_ell[x]/(f0); a drop-in peer of the cyclotomic
    provider, so the integral engine can be rerun over the residue field."""

    def __init__(self, ell: int, N: int, factor_index: int = 0):
        factors = cyclotomic_factors(ell, N)
        if not 0 <= factor_index < len(factors):
            raise ValueError(
                f"factor index {factor_index} out of range: Phi_{N} has "
                f"{len(factors)} factors mod {ell}"
            )
        f0 = factors[factor_index]
        self.field = gf(ell, len(f0) - 1, f0)
        self.ell = ell
        self.N = N
        self.factor_index = factor_index
        self._omega_pows: dict[int, FFElement] = {}

    def zero(self) -> FFElement:
        return self.field.zero()

    def one(self) -> FFElement:
        return self.field.one()

    def from_fraction(self, value) -> FFElement:
        f = Fraction(value)
        if f.denominator % self.ell == 0:
            raise NotIntegralAtEll(
                f"denominator of {f} is divisible by ell={self.ell}"
            )
        return self.field.constant(f.numerator * pow(f.denominator, -1, self.ell))

    def _omega_power(self, e: int) -> FFElement:
        e %= self.N
        cached = self._omega_pows.get(e)
        if cached is None:
            cached = self._omega_pows[e] = self.field.gen() ** e
        return cached

    def root_of_unity(self, modulus: int, k: int) -> FFElement:
        """The image of zeta_modulus^k, for modulus dividing N."""
        if modulus < 1 or self.N % modulus:
            raise ValueError(
                f"conductor {modulus} does not divide the ring conductor {self.N}"
            )
        return self._omega_power((k % modulus) * (self.N // modulus))

    def embed_cyc(self, value: CycNumber) -> FFElement:
        """Reduce a cyclotomic number along the chosen prime above ell: the
        int numerators mod ell, times the inverse of their one denominator
        d.  The normalised d is the lcm of the reduced coefficient
        denominators, so ell | d exactly when some coefficient is not
        ell-integral."""
        nums, d = value.raw_numerators(self.N)
        if d % self.ell == 0:
            raise NotIntegralAtEll(
                f"denominator {d} of {value} is divisible by ell={self.ell}"
            )
        total = self.sum(self._omega_power(e) * c for e, c in nums.items())
        return total * pow(d, -1, self.ell)

    def sum(self, values) -> FFElement:
        """The sum of the values: field elements are already reduced, so a
        plain fold."""
        return sum(values, self.zero())
