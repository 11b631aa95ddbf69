import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rsexact.cyclo import CycNumber, CycScalars, cyc_embed_root
from rsexact.errors import NotExpandable, NotMonomialMultiple
from rsexact.ratfun import (
    EulerFactor,
    Laurent,
    RationalFunction,
    euler_normalize,
    format_poly,
    series_coefficients,
)

SCAL = CycScalars()


def L(coeffs):
    return Laurent(SCAL, {k: CycNumber.from_fraction(v) for k, v in coeffs.items()})


def test_laurent_basic_ops():
    a = L({0: 1, 2: 3})
    b = L({-1: 2, 2: -3})
    # a sum is built from the (degree, coefficient) pairs of its terms
    assert Laurent(SCAL, [*a.items(), *b.items()]).items() == L({-1: 2, 0: 1}).items()
    assert Laurent(SCAL, [*a.items(), *a.scale(-1).items()]).is_zero()
    prod = L({0: 2}) * L({1: Fraction(1, 2)})
    assert prod == L({1: 1})
    assert a.shift(3).min_degree() == 3
    assert a.coeff(2) == 3
    assert a.coeff(17) == 0


def test_rational_function_canonical_form():
    # 6 / (2 - 2 X^2) reduces to 3 / (1 - X^2)
    f = RationalFunction(L({0: 6}), L({0: 2, 2: -2}))
    assert f.num == L({0: 3})
    assert f.den == L({0: 1, 2: -1})
    # common factor cancels: (1 - X^2)/(1 - X) == 1 + X
    g = RationalFunction(L({0: 1, 2: -1}), L({0: 1, 1: -1}))
    assert g == RationalFunction.from_laurent(L({0: 1, 1: 1}))
    # X powers are swept into the numerator
    h = RationalFunction(L({0: 1}), L({1: 1, 2: 1}))
    assert h.num == L({-1: 1})
    assert h.den == L({0: 1, 1: 1})


def test_rational_function_with_root_of_unity_pole():
    # (q-1)(1+aX) / (1-a^2 X^2) == (q-1) / (1-aX) for a = zeta_4
    a = cyc_embed_root(4, 1)
    num = Laurent(SCAL, {0: CycNumber.from_fraction(2), 1: 2 * a})
    den = Laurent(SCAL, {0: CycNumber.one(), 2: -(a * a)})
    f = RationalFunction(num, den)
    assert f.num == L({0: 2})
    assert f.den == Laurent(SCAL, {0: CycNumber.one(), 1: -a})


def test_rational_function_equality_and_arithmetic():
    f = RationalFunction(L({0: 1}), L({0: 1, 1: -1}))
    poly = RationalFunction.from_laurent
    # 1/(1-X) * (1-X^2) = 1 + X
    assert f * poly(L({0: 1, 2: -1})) == poly(L({0: 1, 1: 1}))
    p = f * RationalFunction(L({0: 1, 1: -1}), L({0: 1}))
    assert p == poly(L({0: 1}))
    assert (f * poly(L({}))).is_zero() and not p.is_zero()


def test_euler_normalize_reference_example():
    f = RationalFunction(L({0: 6}), L({0: 2, 2: -2}))
    factor, c, m = euler_normalize(f)
    assert factor == EulerFactor(L({0: 1, 2: -1}))
    assert c == 3
    assert m == 0


def test_euler_normalize_with_shift():
    f = RationalFunction(L({3: Fraction(1, 2)}), L({0: 1, 1: -2}))
    factor, c, m = euler_normalize(f)
    assert factor.poly == L({0: 1, 1: -2})
    assert c == Fraction(1, 2)
    assert m == 3


def test_euler_normalize_rejects_non_monomial():
    f = RationalFunction(L({0: 1, 1: 1}), L({0: 1, 2: -1}))
    # (1+X)/(1-X^2) = 1/(1-X): canonicalization makes this one legal
    factor, c, m = euler_normalize(f)
    assert factor.poly == L({0: 1, 1: -1})
    g = RationalFunction(L({0: 1, 1: 2}), L({0: 1, 1: -1}))
    with pytest.raises(NotMonomialMultiple):
        euler_normalize(g)
    with pytest.raises(NotMonomialMultiple):
        euler_normalize(RationalFunction(L({}), L({0: 1})))


def test_euler_factor_validation():
    with pytest.raises(ValueError):
        EulerFactor(L({0: 2}))
    with pytest.raises(ValueError):
        EulerFactor(L({-1: 1, 0: 1}))
    one = EulerFactor.one(SCAL)
    assert one.poly.max_degree() == 0


def test_series_geometric():
    f = RationalFunction(L({0: 1}), L({0: 1, 1: -1}))
    assert series_coefficients(f, 5) == [1, 1, 1, 1, 1, 1]
    g = RationalFunction(L({0: 3}), L({0: 1, 2: -1}))
    assert series_coefficients(g, 6) == [3, 0, 3, 0, 3, 0, 3]


def test_series_with_numerator_shift():
    f = RationalFunction(L({2: 1}), L({0: 1, 1: -2}))
    # X^2/(1-2X): coefficients 0,0,1,2,4,8
    assert series_coefficients(f, 5) == [0, 0, 1, 2, 4, 8]


def test_series_rejects_laurent_tail():
    f = RationalFunction(L({-1: 1}), L({0: 1, 1: -1}))
    with pytest.raises(NotExpandable):
        series_coefficients(f, 3)


def test_series_matches_long_division_random():
    rng = random.Random(123)
    for _ in range(40):
        num = L({k: rng.randrange(-3, 4) for k in range(rng.randrange(1, 4))})
        den_tail = {k: rng.randrange(-2, 3) for k in range(1, rng.randrange(2, 4))}
        den = L({0: 1, **den_tail})
        f = RationalFunction(num, den)
        coeffs = series_coefficients(f, 8)
        # multiply back: den * series should match num up to degree 8
        series = Laurent(SCAL, {k: c for k, c in enumerate(coeffs)})
        back = f.den * series
        for k in range(9):
            assert back.coeff(k) == f.num.coeff(k)


def test_format_poly():
    assert format_poly(L({})) == "0"
    assert format_poly(L({0: 1, 2: -1})) == "1 - X^2"
    assert format_poly(L({1: 1})) == "X"
    s = format_poly(Laurent(SCAL, {2: 1 + cyc_embed_root(3, 1)}))
    assert s == "(1 + zeta(3))*X^2"


def test_json_round_trip():
    a = cyc_embed_root(4, 1)
    f = RationalFunction(
        Laurent(SCAL, {0: CycNumber.from_fraction(2)}),
        Laurent(SCAL, {0: CycNumber.one(), 1: -a}),
    )
    obj = f.to_json()
    g = RationalFunction.from_json(obj, SCAL)
    assert g == f
    assert obj["modulus"] == 4


@given(st.lists(st.integers(-4, 4), min_size=1, max_size=4),
       st.lists(st.integers(-4, 4), min_size=0, max_size=3),
       st.lists(st.integers(-4, 4), min_size=1, max_size=3))
@settings(max_examples=60, deadline=None)
def test_mul_div_round_trip(num_coeffs, den_tail, common_tail):
    num = L({k: v for k, v in enumerate(num_coeffs)})
    den = L({0: 1, **{k + 1: v for k, v in enumerate(den_tail)}})
    f = RationalFunction(num, den)
    # a common factor with constant term 1 divides out exactly
    common = L({0: 1, **{k + 1: v for k, v in enumerate(common_tail)}})
    assert RationalFunction(num * common, den * common) == f
    g = RationalFunction(den, num) if not num.is_zero() else None
    if g is not None:
        assert f * g == RationalFunction.from_laurent(L({0: 1}))


@st.composite
def degree_terms(draw):
    """(degree, CycNumber) pairs over mixed moduli and denominators, with
    repeated degrees and negated copies so that some degrees cancel."""
    pairs = []
    for _ in range(draw(st.integers(0, 8))):
        n = draw(st.sampled_from([1, 3, 4, 12, 30, 60]))
        terms = draw(st.lists(st.tuples(
            st.integers(0, n - 1),
            st.fractions(min_value=-9, max_value=9, max_denominator=12),
        ), max_size=3))
        pairs.append((draw(st.integers(-2, 3)), CycNumber(n, terms)))
    pairs += [(k, -v) for k, v in pairs[:draw(st.integers(0, 2))]]
    return draw(st.permutations(pairs))


@given(degree_terms())
@settings(max_examples=200, deadline=None)
def test_laurent_is_raw_equal_to_the_per_term_build(pairs):
    want: dict = {}
    for k, v in pairs:
        want[k] = v if k not in want else want[k] + v
    want = {k: v for k, v in want.items() if v}
    got = Laurent(SCAL, iter(pairs))._c
    assert got.keys() == want.keys()
    assert all((v._N, v._c, v._d) == (want[k]._N, want[k]._c, want[k]._d)
               for k, v in got.items())
