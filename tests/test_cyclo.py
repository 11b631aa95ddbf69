import functools
import operator
import pickle
import random
import tracemalloc
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rsexact.cyclo import (
    CycNumber,
    _crt_factors,
    CycScalars,
    cyc_embed_root,
    cyclotomic_poly,
    is_prime,
    parse_cyc,
)

from reference import power_rows


def test_embed_root_trivial_values():
    assert cyc_embed_root(1, 0) == CycNumber.from_fraction(1)
    assert cyc_embed_root(4, 2) == CycNumber.from_fraction(-1)
    assert cyc_embed_root(3, 1) ** 3 == 1
    assert cyc_embed_root(8, 2) == cyc_embed_root(4, 1)


def test_embed_root_exponent_wraps():
    assert cyc_embed_root(5, 7) == cyc_embed_root(5, 2)
    assert cyc_embed_root(6, -1) == cyc_embed_root(6, 5)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_prime_root_sum_vanishes(p):
    total = CycNumber.zero()
    for k in range(p):
        total = total + cyc_embed_root(p, k)
    assert total.is_zero()


def test_cyclotomic_relation_composite():
    # Phi_4 and Phi_6 relations
    z4 = cyc_embed_root(4, 1)
    assert z4 * z4 + 1 == 0
    z6 = cyc_embed_root(6, 1)
    assert z6 * z6 - z6 + 1 == 0


def test_mixed_modulus_product():
    assert cyc_embed_root(2, 1) * cyc_embed_root(3, 1) == cyc_embed_root(6, 5)
    assert (cyc_embed_root(4, 1) + cyc_embed_root(6, 1)).modulus == 12


def _random_cyc(rng, moduli=(1, 2, 3, 4, 6, 8, 12)):
    n = rng.choice(moduli)
    terms = {}
    for _ in range(rng.randrange(4)):
        terms[rng.randrange(n)] = Fraction(rng.randrange(-4, 5), rng.randrange(1, 5))
    return CycNumber(n, terms)


def test_ring_axioms_random():
    rng = random.Random(20260823)
    for _ in range(300):
        a = _random_cyc(rng)
        b = _random_cyc(rng)
        c = _random_cyc(rng)
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + 0 == a
        assert a * 1 == a
        assert (a - a).is_zero()


def test_division_random():
    rng = random.Random(7)
    for _ in range(60):
        a = _random_cyc(rng, moduli=(1, 2, 3, 4, 6))
        b = _random_cyc(rng, moduli=(1, 2, 3, 4, 6))
        if b.is_zero():
            continue
        assert (a * b) * b.inverse() == a


def test_inverse_known_values():
    z3 = cyc_embed_root(3, 1)
    # 1 + zeta_3 = -zeta_3^2, so its inverse is -zeta_3
    assert (1 + z3).inverse() == -z3
    assert (1 + z3) * (1 + z3).inverse() == 1
    x = CycNumber.from_fraction(Fraction(-3, 7))
    assert x.inverse() == Fraction(-7, 3)
    z8 = cyc_embed_root(8, 3)
    assert z8.inverse() == cyc_embed_root(8, 5)
    with pytest.raises(ZeroDivisionError):
        CycNumber.zero().inverse()


def test_inverse_generic_element():
    # 2 + zeta_5: check against the Galois-norm construction by multiplying back
    x = 2 + cyc_embed_root(5, 1)
    assert x * x.inverse() == 1
    y = 1 + cyc_embed_root(8, 1) + cyc_embed_root(8, 3)
    assert y * y.inverse() == 1


def test_rational_detection():
    assert cyc_embed_root(4, 2).is_rational()
    assert cyc_embed_root(4, 2).rational_value() == -1
    assert not cyc_embed_root(4, 1).is_rational()
    three_halves = CycNumber.from_fraction(Fraction(3, 2))
    assert three_halves.rational_value() == Fraction(3, 2)
    # sum of all p-th roots is rational zero
    z = sum((cyc_embed_root(7, k) for k in range(7)), CycNumber.zero())
    assert z.is_rational() and z.rational_value() == 0


def test_demote():
    assert cyc_embed_root(6, 2).demote().modulus == 3
    assert cyc_embed_root(4, 2).demote().modulus in (1, 2)
    assert cyc_embed_root(4, 2).demote() == -1
    x = cyc_embed_root(12, 3)  # = zeta_4
    assert x.demote().modulus == 4
    # zeta_6 lives in Q(zeta_3)
    assert cyc_embed_root(6, 1).demote().modulus == 3


def test_power_basis_shapes():
    for n in (1, 2, 3, 4, 5, 6, 8, 12):
        vec = cyc_embed_root(n, 1).power_basis()
        assert len(vec) == sum(gcd(k, n) == 1 for k in range(n))
    assert cyc_embed_root(6, 1).power_basis() == [Fraction(0), Fraction(1)]
    # zeta_4^2 reduces to -1 in the power basis
    assert cyc_embed_root(4, 2).power_basis() == [Fraction(-1), Fraction(0)]


def test_power_basis_round_trip():
    rng = random.Random(99)
    for _ in range(50):
        x = _random_cyc(rng)
        assert CycNumber.from_power_basis(x.modulus, x.power_basis()) == x


@pytest.mark.parametrize("n", [1, 2, 4, 9, 12, 30, 210, 336, 420])
def test_power_basis_matches_the_power_rows(n):
    rows = power_rows(n)
    rng = random.Random(n)
    for fractions in (False, True):
        for size in (1, 3, n // 2 + 1):
            terms = {}
            for _ in range(size):
                v = rng.randint(-9, 9)
                if fractions:
                    v = Fraction(v, rng.randint(1, 12))
                terms[rng.randrange(n)] = v
            x = CycNumber(n, terms)
            want = [Fraction(0)] * len(rows[0])
            for k, v in terms.items():
                for j, r in enumerate(rows[k]):
                    want[j] += v * r
            assert x.power_basis() == want


def test_power_basis_needs_no_table_of_the_modulus():
    # at N = 24216 a dense table of x**k mod Phi_N has 24216 x 8064 entries
    x = CycNumber(24216, {24215: 1, 0: 3})
    tracemalloc.start()
    try:
        coords = x.power_basis()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(coords) == 8064
    assert peak < 8 * 2**20
    assert CycNumber.from_power_basis(24216, coords) == x


def test_parse_basic():
    assert parse_cyc("0") == 0
    assert parse_cyc("3/2") == Fraction(3, 2)
    assert parse_cyc("-1") == -1
    assert parse_cyc("zeta(8)") == cyc_embed_root(8, 1)
    assert parse_cyc("zeta(8)^3") == cyc_embed_root(8, 3)
    assert parse_cyc("zeta(8)^-1") == cyc_embed_root(8, 7)
    assert parse_cyc("1/2 * zeta(12)^5 + 2") == cyc_embed_root(12, 5) * Fraction(1, 2) + 2
    assert parse_cyc("zeta(3) - zeta(3)^2") == cyc_embed_root(3, 1) - cyc_embed_root(3, 2)
    assert parse_cyc("2*3*zeta(4)") == 6 * cyc_embed_root(4, 1)


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_cyc("zeta(8")
    with pytest.raises(ValueError):
        parse_cyc("1 +")
    with pytest.raises(ValueError):
        parse_cyc("frob(3)")


def test_format_examples():
    assert str(CycNumber.zero()) == "0"
    assert str(CycNumber.from_fraction(Fraction(-3, 4))) == "-3/4"
    assert str(cyc_embed_root(8, 3)) == "zeta(8)^3"
    x = -cyc_embed_root(5, 2) + 2
    s = str(x)
    assert "zeta(5)" in s and parse_cyc(s) == x


def test_str_is_formatted_once_per_element(monkeypatch):
    """An element keeps its printed form: a second str formats nothing, and
    an equal element built by arithmetic formats its own, to the same text."""
    calls = []
    real = CycNumber._format

    def counted(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(CycNumber, "_format", counted)
    x = cyc_embed_root(12, 5) * Fraction(1, 2) - cyc_embed_root(8, 1) * 3 + 2
    text = str(x)
    assert str(x) is text and repr(x) == f"parse_cyc({text!r})"
    assert len(calls) == 1
    y = x + cyc_embed_root(4, 1) - cyc_embed_root(4, 1)
    assert str(y) == text and len(calls) == 2
    assert parse_cyc(text) == x
    assert str(pickle.loads(pickle.dumps(x))) == text


def test_canonical_forms_are_kept_from_the_first_request():
    """No canonical-form cache until an equality or zero test asks for one;
    then one entry per conductor asked for."""
    x = cyc_embed_root(12, 5) + cyc_embed_root(12, 7) * Fraction(1, 3)
    assert not hasattr(x, "_canon")
    assert x and x != cyc_embed_root(8, 1)
    assert set(x._canon) == {12, 24}
    assert not hasattr(pickle.loads(pickle.dumps(cyc_embed_root(5, 1))), "_canon")


@st.composite
def cyc_numbers(draw):
    n = draw(st.sampled_from([1, 2, 3, 4, 5, 6, 8, 9, 12]))
    nterms = draw(st.integers(0, 3))
    terms = {}
    for _ in range(nterms):
        k = draw(st.integers(0, n - 1))
        num = draw(st.integers(-6, 6))
        den = draw(st.integers(1, 6))
        terms[k] = terms.get(k, Fraction(0)) + Fraction(num, den)
    return CycNumber(n, terms)


@given(cyc_numbers())
@settings(max_examples=150, deadline=None)
def test_string_round_trip(x):
    assert parse_cyc(str(x)) == x


@given(cyc_numbers(), cyc_numbers())
@settings(max_examples=100, deadline=None)
def test_add_then_subtract(x, y):
    assert (x + y) - y == x


@given(cyc_numbers())
@settings(max_examples=100, deadline=None)
def test_demote_preserves_value(x):
    d = x.demote()
    assert d == x
    assert x.modulus % d.modulus == 0
    # demoted support generates the demoted modulus
    g = d.modulus
    for k, _ in d._combined_canonical():
        g = gcd(g, k)
    assert g == d.modulus or g == 1 or d.modulus == 1


@given(cyc_numbers(), cyc_numbers(), st.sampled_from([1, 2, 3, 4, 5, 6, 8, 9, 12]))
@settings(max_examples=150, deadline=None)
def test_canonical_forms_agree(x, y, m):
    # the power basis mod Phi_N is a canonical form computed without the
    # prime-power reduction behind == and str
    def power_basis_equal(a, b):
        big = lcm(a.modulus, b.modulus)
        one = cyc_embed_root(big, 0)
        return (a * one).power_basis() == (b * one).power_basis()

    assert (x == y) == power_basis_equal(x, y)
    # an equal element with another raw modulus and support
    z = (x + y) - y
    assert z == x and power_basis_equal(z, x)
    # the printed form does not depend on the raw modulus
    assert str(x) == str(x * cyc_embed_root(m, 0))


def test_conj_is_automorphism():
    rng = random.Random(11)
    for _ in range(40):
        x = _random_cyc(rng, moduli=(8, 12))
        y = _random_cyc(rng, moduli=(8, 12))
        n = 24
        for a in (5, 7, 11):
            xa = CycNumber(n, x.raw_items(n)).conj(a)
            ya = CycNumber(n, y.raw_items(n)).conj(a)
            xy = CycNumber(n, (x * y).raw_items(n)).conj(a)
            assert xa * ya == xy


# -- Fraction reference -----------------------------------------------------


class Ref:
    """Q(zeta_N) as {exponent mod N: Fraction}, merged term by term: the
    reference the int-numerator CycNumber is compared with by modulus and
    raw terms."""

    def __init__(self, n, terms):
        self.n = n
        self.c = {}
        for k, v in terms.items() if isinstance(terms, dict) else terms:
            k %= n
            self.c[k] = self.c.get(k, Fraction(0)) + Fraction(v)
        self.c = {k: v for k, v in self.c.items() if v}

    def at(self, big):
        return {k * (big // self.n) % big: v for k, v in self.c.items()}

    def __add__(self, other):
        big = lcm(self.n, other.n)
        return Ref(big, [*self.at(big).items(), *other.at(big).items()])

    def __neg__(self):
        return Ref(self.n, {k: -v for k, v in self.c.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        big = lcm(self.n, other.n)
        return Ref(big, [(k1 + k2, v1 * v2) for k1, v1 in self.at(big).items()
                         for k2, v2 in other.at(big).items()])

    def __pow__(self, e):
        if e < 0:
            return self.inverse() ** -e
        if len(self.c) == 1:
            ((k, v),) = self.c.items()
            return Ref(self.n, {k * e: v**e})
        out = Ref(1, {0: 1})
        for _ in range(e):
            out = out * self
        return out

    def power_basis(self):
        """x**k reduced by long division by the monic Phi_N."""
        phi = cyclotomic_poly(self.n)
        deg = len(phi) - 1
        vec = [Fraction(0)] * max(self.n, deg)
        for k, v in self.c.items():
            vec[k] += v
        for top in range(len(vec) - 1, deg - 1, -1):
            lead, vec[top] = vec[top], Fraction(0)
            for j in range(deg):
                vec[top - deg + j] -= lead * phi[j]
        return vec[:deg]

    def __eq__(self, other):
        big = lcm(self.n, other.n)
        one = Ref(big, {0: 1})
        return (self * one).power_basis() == (other * one).power_basis()

    def canonical(self):
        """Coordinates on the roots zeta**k with k mod p^a < phi(p^a) for
        each prime power p^a of N."""
        out = Ref(self.n, {})
        for k, v in self.c.items():
            parts = [(k, v)]
            for p, pa, phi_pa, step, m in _crt_factors(self.n):
                nxt = []
                for k1, v1 in parts:
                    e = k1 % pa
                    if e < phi_pa:
                        nxt.append((k1, v1))
                    else:
                        nxt += [((k1 + (j * step + e - phi_pa - e) * m) % self.n, -v1)
                                for j in range(p - 1)]
                parts = nxt
            out = out + Ref(self.n, parts)
        return out

    def demote(self):
        can = self.canonical()
        if not can.c:
            return Ref(1, {})
        g = gcd(self.n, *can.c)
        return Ref(self.n // g, {k // g: v for k, v in can.c.items()})

    def __str__(self):
        d = self.demote()
        parts = []
        for k, v in sorted(d.canonical().c.items()):
            z = f"zeta({d.n})" + (f"^{k}" if k != 1 else "")
            body = str(abs(v)) if k == 0 else z if abs(v) == 1 else f"{abs(v)}*{z}"
            sign = ("" if v > 0 else "-") if not parts else ("+ " if v > 0 else "- ")
            parts.append(sign + body)
        return " ".join(parts) or "0"

    def inverse(self):
        d = self.demote()
        if len(d.c) == 1:
            ((k, v),) = d.c.items()
            return Ref(d.n, {-k: 1 / v})
        prod = Ref(1, {0: 1})
        for a in range(2, d.n):
            if gcd(a, d.n) == 1:
                prod = prod * Ref(d.n, {k * a: v for k, v in d.c.items()})
        (norm,) = (d * prod).canonical().at(1).values()
        return prod * Ref(1, {0: 1 / norm})


def same(x: CycNumber, r: Ref) -> bool:
    """Equal modulus and raw terms, and the numerators in normal form."""
    nums, d = x.raw_numerators(x.modulus)
    normal = d > 0 and gcd(d, *nums.values()) == 1 and (nums or d == 1)
    return normal and x.modulus == r.n and x.raw_items(x.modulus) == r.c


@st.composite
def ref_pairs(draw):
    """A CycNumber and its Ref built from the same raw terms: int and
    Fraction values, repeated exponents and terms that cancel."""
    n = draw(st.sampled_from([1, 2, 3, 4, 5, 6, 8, 9, 12, 15]))
    terms = draw(st.lists(st.tuples(
        st.integers(-2 * n, 2 * n),
        st.one_of(st.integers(-9, 9),
                  st.fractions(min_value=-9, max_value=9, max_denominator=45)),
    ), max_size=4))
    terms += [(k + n, -v) for k, v in terms[:draw(st.integers(0, 1))]]
    return CycNumber(n, terms), Ref(n, terms)


@given(ref_pairs(), ref_pairs(), st.integers(-2, 3))
@settings(max_examples=200, deadline=None)
def test_int_numerators_match_the_fraction_reference(xr, yr, e):
    (x, rx), (y, ry) = xr, yr
    assert same(x, rx) and same(y, ry)
    assert same(x + y, rx + ry)
    assert same(x - y, rx - ry)
    assert same(x * y, rx * ry)
    assert same(-x, -rx)
    assert (x == y) == (rx == ry)
    assert x.power_basis() == rx.power_basis()
    assert same(x.demote(), rx.demote())
    assert str(x) == str(rx)
    if e >= 0 or not x.is_zero():
        assert same(x**e, rx**e)
    if not y.is_zero():
        assert same(y.inverse(), ry.inverse())
        assert same(x * y.inverse(), rx * ry.inverse())


# moduli of three and four prime powers, and divisors of them, so that a
# sum reads most of its terms at an lcm that no summand has
SUM_MODULI = [1, 3, 4, 5, 7, 12, 20, 28, 30, 60, 105, 210, 420]


@st.composite
def summand_lists(draw):
    """(CycNumber, Ref) pairs built from the same raw terms, over mixed
    moduli and denominators, with the negations of some of them so that
    terms cancel; empty and one-element lists included."""
    pairs = []
    for _ in range(draw(st.integers(0, 5))):
        n = draw(st.sampled_from(SUM_MODULI))
        terms = draw(st.lists(st.tuples(
            st.integers(0, n - 1),
            st.one_of(st.integers(-9, 9),
                      st.fractions(min_value=-9, max_value=9, max_denominator=30)),
        ), max_size=3))
        pairs.append((CycNumber(n, terms), Ref(n, terms)))
    pairs += [(-x, -r) for x, r in pairs[:draw(st.integers(0, 2))]]
    return draw(st.permutations(pairs))


def raw(x: CycNumber) -> tuple:
    return x._N, x._c, x._d


@given(summand_lists())
@settings(max_examples=300, deadline=None)
def test_sum_is_raw_equal_to_the_left_fold(pairs):
    xs = [x for x, _ in pairs]
    total = CycScalars().sum(x for x in xs)
    fold = functools.reduce(operator.add, xs[1:], xs[0]) if xs else CycNumber.zero()
    assert raw(total) == raw(fold)
    assert same(total, functools.reduce(operator.add, [r for _, r in pairs], Ref(1, {})))


def test_scalar_context():
    scal = CycScalars()
    assert scal.one() == 1
    assert scal.zero().is_zero()
    assert scal.from_fraction(Fraction(2, 3)) == Fraction(2, 3)
    assert scal.root_of_unity(12, 14) == scal.root_of_unity(6, 1)
    x = cyc_embed_root(5, 2)
    assert scal.embed_cyc(x) is x


def _int_poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def test_cyclotomic_poly_divisor_product():
    # prod over d | n of Phi_d is x^n - 1
    for n in range(1, 200):
        prod = [1]
        for d in range(1, n + 1):
            if n % d == 0:
                prod = _int_poly_mul(prod, cyclotomic_poly(d))
        assert prod == [-1] + [0] * (n - 1) + [1]
    assert cyclotomic_poly(12) == (1, 0, -1, 0, 1)
    # the first cyclotomic polynomial with a coefficient outside {-1, 0, 1}
    assert cyclotomic_poly(105)[7] == -2


def test_is_prime_matches_trial_division():
    for n in range(-3, 20000):
        expected = n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))
        assert is_prime(n) == expected, n


def test_is_prime_pseudoprimes_and_large_values():
    # Carmichael numbers, the strong pseudoprime to bases 2, 3, 5, 7, and
    # the one to every prime base up to 37
    for n in (561, 41041, 3215031751, 318665857834031151167461):
        assert not is_prime(n)
    assert is_prime(2**61 - 1)
    assert not is_prime(2**61 + 1)
    with pytest.raises(ValueError):
        is_prime(3317044064679887385961981)
