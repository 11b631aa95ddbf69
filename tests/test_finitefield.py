import pickle
import random

import pytest

from rsexact.cyclo import CycNumber, cyc_embed_root
from rsexact.finitefield import AddChar, MultChar, gf


def test_standard_defining_polynomials():
    assert gf(2, 2).poly == (1, 1, 1)  # x^2+x+1
    assert gf(3, 2).poly == (1, 0, 1)  # x^2+1
    assert gf(2, 3).poly == (1, 0, 1, 1)  # x^3+x^2+1 is the first hit in scan order


def test_rejects_bad_parameters():
    with pytest.raises(ValueError):
        gf(4, 1)
    with pytest.raises(ValueError):
        gf(2, 0)
    with pytest.raises(ValueError):
        gf(2, 2, poly=(1, 0, 1))  # x^2+1 = (x+1)^2 over F_2


def test_default_field_is_interned_under_its_polynomial():
    # default first, then the same field named by its polynomial
    F = gf(5, 3)
    assert gf(5, 3, F.poly) is F
    assert gf(5, 3, list(F.poly)) is F


def test_named_field_is_interned_as_the_default():
    # polynomial first, then the default; (1, 0, 4, 1) is the first
    # irreducible cubic over F_11 in scan order
    F = gf(11, 3, (1, 0, 4, 1))
    assert gf(11, 3) is F
    assert F.poly == (1, 0, 4, 1)


def test_unpickled_field_is_the_interned_field():
    F = gf(7, 2)
    assert pickle.loads(pickle.dumps(F)) is F
    x = F.gen() + 3
    assert pickle.loads(pickle.dumps(x)).field is F


def test_unpickled_field_reuses_the_dlog_table():
    F = gf(7, 2)
    assert F.dlog(F.gen()) >= 0
    assert pickle.loads(pickle.dumps(F))._dlog is F._dlog


def test_enumeration_and_hashing():
    F9 = gf(3, 2)
    elems = list(F9)
    assert len(elems) == 9
    assert len(set(elems)) == 9
    assert sum(1 for _ in F9.units()) == 8


@pytest.mark.parametrize("p,d", [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2), (2, 3), (5, 2)])
def test_field_axioms(p, d):
    F = gf(p, d)
    rng = random.Random(p * 100 + d)
    elems = list(F)
    for _ in range(60):
        a, b, c = (rng.choice(elems) for _ in range(3))
        assert a * (b + c) == a * b + a * c
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert a + F.zero() == a
        assert a * F.one() == a
    for x in F.units():
        assert x * x.inverse() == F.one()
        assert x ** (F.order - 1) == F.one()


def test_frobenius_is_additive():
    F = gf(3, 2)
    for a in F:
        for b in F:
            assert (a + b) ** 3 == a**3 + b**3


def test_dlog_is_a_bijection_onto_the_exponents():
    F = gf(3, 2)
    units = list(F.units())
    assert sorted(F.dlog(x) for x in units) == list(range(F.order - 1))
    for x in units:
        for y in units:
            assert F.dlog(x * y) == (F.dlog(x) + F.dlog(y)) % (F.order - 1)
    with pytest.raises(ZeroDivisionError):
        F.dlog(F.zero())


def test_dlog_f5():
    # smallest primitive root mod 5 is 2
    F = gf(5)
    assert F.dlog(F.constant(2)) == 1


def test_mult_char_is_multiplicative():
    F9 = gf(3, 2)
    theta = MultChar(F9, 3)
    units = list(F9.units())
    for x in units:
        for y in units:
            assert theta.value(x * y) == theta.value(x) * theta.value(y)
    assert theta.value(F9.one()) == 1


def test_mult_char_orthogonality():
    F9 = gf(3, 2)
    for t in range(8):
        theta = MultChar(F9, t)
        total = sum((theta.value(x) for x in F9.units()), CycNumber.zero())
        if t == 0:
            assert total == 8
        else:
            assert total.is_zero()


def test_mult_char_regularity():
    F4 = gf(2, 2)
    assert MultChar(F4, 1).is_regular()
    assert MultChar(F4, 2).is_regular()
    assert not MultChar(F4, 0).is_regular()
    F9 = gf(3, 2)
    regular = [t for t in range(8) if MultChar(F9, t).is_regular()]
    assert regular == [1, 2, 3, 5, 6, 7]
    F8 = gf(2, 3)
    regular8 = [t for t in range(7) if MultChar(F8, t).is_regular()]
    assert regular8 == [1, 2, 3, 4, 5, 6]


def test_mult_char_inverse_and_values():
    F4 = gf(2, 2)
    theta = MultChar(F4, 1)
    g = next(x for x in F4.units() if F4.dlog(x) == 1)
    assert theta.value(g) == cyc_embed_root(3, 1)
    inv = theta.inverse()
    for x in F4.units():
        assert theta.value(x) * inv.value(x) == 1


def test_add_char_is_additive():
    psi = AddChar(gf(7), 3)
    for x in range(-7, 14):
        for y in range(7):
            assert psi.value(x + y) == psi.value(x) * psi.value(y)


def test_add_char_values_and_orthogonality():
    F3 = gf(3)
    psi = AddChar(F3, 1)
    assert psi.value(1) == cyc_embed_root(3, 1)
    assert psi.value(2) == cyc_embed_root(3, 2)
    for a in range(3):
        chi = AddChar(F3, a)
        total = sum((chi.value(x) for x in range(3)), CycNumber.zero())
        if a == 0:
            assert total == 3
        else:
            assert total.is_zero()


def test_add_char_inverse():
    F5 = gf(5)
    psi = AddChar(F5, 2)
    inv = psi.inverse()
    for x in range(5):
        assert psi.value(x) * inv.value(x) == 1
    assert AddChar(F5, 0).is_trivial()
    assert AddChar(F5, 5).is_trivial()
    assert AddChar(F5, 7) == psi
    assert not psi.is_trivial()


def test_add_char_needs_a_prime_field():
    with pytest.raises(ValueError):
        AddChar(gf(3, 2), 1)
    with pytest.raises(ValueError):
        AddChar(gf(2, 3), 0)


def test_element_str_is_ascending_in_w():
    F = gf(5, 3)
    assert str(F.element((1, 2, 1))) == "1 + 2*w + w^2"
    assert str(F.element((0, 0, 3))) == "3*w^2"
    assert str(F.element((4,))) == "4"
    assert str(F.zero()) == "0"


def test_gen_is_class_of_variable():
    # in F_7[x]/(x + 4) the class of x is -4 = 3
    assert gf(7, 1, (4, 1)).gen() == 3
    F = gf(3, 2)
    assert F.gen() == F.element((0, 1))
