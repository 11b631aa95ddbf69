"""Small finite fields F_{p^d} with explicit, hashable elements.

Hand-rolled rather than wrapped from a CAS because the group layers need
things CAS field objects make awkward: deterministic element enumeration,
hashable elements usable as dict keys and discrete logarithms against a
fixed generator.  The fields the group layers enumerate are tiny (at most
a few thousand elements), so tables are cheap; the residue fields of the
mod-ell reduction can be larger and use only the arithmetic.

Also defines the two character types the construction needs: multiplicative
characters x -> zeta_{p^d-1}^{t * dlog(x)} and additive characters
x -> zeta_p^{a x} of the prime field, whose values are plain ints mod p;
both hand back roots of unity through a scalar context so the same code
drives cyclotomic and residue-field evaluation.

There is one field object per (p, degree, poly): ``gf`` interns every field
it builds, and unpickling goes back through ``gf``, so fields compare by
identity and elements of one field check ``is`` on their fields.  ``GF`` is
built only through ``gf``.
"""

from __future__ import annotations

import itertools
from functools import cached_property

from .cyclo import CYC, _prime_powers, is_prime


# -- polynomial helpers (tuples low-to-high, coefficients in Z/p) ---------


def _trim(t):
    i = len(t)
    while i and t[i - 1] == 0:
        i -= 1
    return tuple(t[:i])


def _padd(a, b, p):
    n = max(len(a), len(b))
    if not n:
        return ()
    return _trim(
        tuple(
            ((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)) % p
            for i in range(n)
        )
    )


def _pmul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _trim([c % p for c in out])


def _pdivmod(a, b, p):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a)
    db = len(b) - 1
    inv_lead = pow(b[-1], -1, p)
    quo = [0] * max(0, len(a) - db)
    for i in range(len(quo) - 1, -1, -1):
        c = rem[i + db] * inv_lead % p
        if c:
            quo[i] = c
            for j, y in enumerate(b):
                rem[i + j] -= c * y
    return _trim(quo), _trim([c % p for c in rem[:db]])


def _pmod(a, m, p):
    return _pdivmod(a, m, p)[1]


def _pgcd(a, b, p):
    while b:
        a, b = b, _pmod(a, b, p)
    if a:
        inv = pow(a[-1], -1, p)
        a = tuple(c * inv % p for c in a)
    return a


def _ppow(a, e, m, p):
    """a**e modulo m."""
    out, base = (1,), _pmod(a, m, p)
    while e:
        if e & 1:
            out = _pmod(_pmul(out, base, p), m, p)
        e >>= 1
        if e:
            base = _pmod(_pmul(base, base, p), m, p)
    return out


def _is_irreducible(f, p):
    d = len(f) - 1
    if d < 1:
        return False
    x = (0, 1)
    # x^(p^d) == x mod f, and x^(p^(d/r)) - x coprime to f for prime r | d
    if _pmod(_padd(_ppow(x, p**d, f, p), tuple(-c % p for c in x), p), f, p):
        return False
    for r, _, _, _ in _prime_powers(d):
        h = _padd(_ppow(x, p ** (d // r), f, p), tuple(-c % p for c in x), p)
        if len(_pgcd(h, f, p)) > 1:
            return False
    return True


class GF:
    """The field with p**degree elements, as F_p[w]/(poly); build it with gf."""

    def __init__(self, p, degree, poly=None):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if degree < 1:
            raise ValueError("degree must be >= 1")
        self.p = p
        self.degree = degree
        self.order = p**degree
        if poly is None:
            poly = self._find_poly(p, degree)
        poly = tuple(c % p for c in poly)
        if len(poly) != degree + 1 or poly[-1] != 1 or not _is_irreducible(poly, p):
            raise ValueError("defining polynomial must be monic irreducible of the right degree")
        self.poly = poly

    @staticmethod
    def _find_poly(p, degree):
        for tail in itertools.product(range(p), repeat=degree):
            f = tail + (1,)
            if _is_irreducible(f, p):
                return f
        raise AssertionError("no irreducible polynomial found")

    def __repr__(self):
        return f"GF({self.p}^{self.degree})"

    def __reduce__(self):
        # unpickled through the intern table, so the copy is the process's
        # own field object, with its tables
        return gf, (self.p, self.degree, self.poly)

    def element(self, coeffs):
        c = tuple(coeffs)[: self.degree]
        c = tuple(v % self.p for v in c) + (0,) * (self.degree - len(c))
        return FFElement(self, c)

    def constant(self, n):
        return self.element((n,))

    def zero(self):
        return self.constant(0)

    def one(self):
        return self.constant(1)

    def gen(self):
        """The class of w."""
        return self.element(_pmod((0, 1), self.poly, self.p))

    def __iter__(self):
        for c in itertools.product(range(self.p), repeat=self.degree):
            yield FFElement(self, c)

    def units(self):
        return (x for x in self if x)

    @cached_property
    def _powers(self):
        """The powers g^0, ..., g^(order - 2) of the generator g."""
        n = self.order - 1
        primes = [r for r, _, _, _ in _prime_powers(n)]
        g = next(x for x in self.units() if all(x ** (n // r) != self.one() for r in primes))
        powers = [self.one()]
        for _ in range(n - 1):
            powers.append(powers[-1] * g)
        return powers

    @cached_property
    def _dlog(self):
        return {x: i for i, x in enumerate(self._powers)}

    def dlog(self, x):
        if not x:
            raise ZeroDivisionError("dlog of zero")
        return self._dlog[x]


class FFElement:
    """An element of a GF field; immutable and hashable."""

    __slots__ = ("field", "c")

    def __init__(self, field, c):
        self.field = field
        self.c = c

    def _coerce(self, other):
        if isinstance(other, FFElement):
            if other.field is not self.field:
                raise ValueError("elements of different fields")
            return other
        if isinstance(other, int):
            return self.field.constant(other)
        return None

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.c == other.c

    def __hash__(self):
        return hash((self.field.p, self.field.poly, self.c))

    def __bool__(self):
        return any(self.c)

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        p = self.field.p
        return FFElement(self.field, tuple((a + b) % p for a, b in zip(self.c, other.c)))

    __radd__ = __add__

    def __neg__(self):
        p = self.field.p
        return FFElement(self.field, tuple(-a % p for a in self.c))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        f = self.field
        if f.degree == 1:
            return FFElement(f, (self.c[0] * other.c[0] % f.p,))
        prod = _pmod(_pmul(_trim(self.c), _trim(other.c), f.p), f.poly, f.p)
        return f.element(prod)

    __rmul__ = __mul__

    def inverse(self):
        if not self:
            raise ZeroDivisionError("inverse of zero field element")
        f = self.field
        if f.degree == 1:
            return FFElement(f, (pow(self.c[0], -1, f.p),))
        # extended Euclid on (self, poly)
        r0, r1 = _trim(self.c), f.poly
        s0, s1 = (1,), ()
        while r1:
            q, r = _pdivmod(r0, r1, f.p)
            r0, r1 = r1, r
            s0, s1 = s1, _padd(s0, tuple(-v % f.p for v in _pmul(q, s1, f.p)), f.p)
        inv_lead = pow(r0[-1], -1, f.p)
        s0 = tuple(v * inv_lead % f.p for v in s0)
        return f.element(_pmod(s0, f.poly, f.p))

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        out = self.field.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def __str__(self):
        """Ascending in the class w of the variable: 1 + 2*w + w^2."""
        if not self:
            return "0"
        parts = []
        for i, a in enumerate(self.c):
            if not a:
                continue
            if i == 0:
                parts.append(str(a))
            else:
                w = "w" if i == 1 else f"w^{i}"
                parts.append(w if a == 1 else f"{a}*{w}")
        return " + ".join(parts)

    def __repr__(self):
        return f"<{self.field!r}: {self}>"


_GF_CACHE: dict = {}


def gf(p, degree=1, poly=None):
    """The field with p**degree elements, as F_p[w]/(poly); the first
    irreducible polynomial in enumeration order when poly is None.

    Fields are interned: there is one object per (p, degree, poly), and a
    default field is the same object as the field named by its resolved
    polynomial.  So fields compare by identity, and ``GF`` is built only here.
    """
    key = (p, degree, None if poly is None else tuple(poly))
    field = _GF_CACHE.get(key)
    if field is None:
        field = GF(p, degree, poly)
        field = _GF_CACHE.setdefault((p, degree, field.poly), field)
        _GF_CACHE[key] = field
    return field


class MultChar:
    """x -> zeta_M^(t * dlog x) on the units of a field, M = order - 1."""

    __slots__ = ("field", "t")

    def __init__(self, field: GF, t: int):
        self.field = field
        self.t = t % (field.order - 1)

    @property
    def modulus(self):
        return self.field.order - 1

    def value(self, x: FFElement, scal=CYC):
        if not x:
            raise ValueError("multiplicative character evaluated at zero")
        m = self.modulus
        return scal.root_of_unity(m, self.t * self.field.dlog(x) % m)

    def inverse(self):
        return MultChar(self.field, -self.t)

    def orbit(self):
        """Exponent orbit of t under the p-power Frobenius."""
        m = self.modulus
        return frozenset(self.t * pow(self.field.p, i, m) % m for i in range(self.field.degree))

    def is_regular(self):
        return len(self.orbit()) == self.field.degree

    def __eq__(self, other):
        if not isinstance(other, MultChar):
            return NotImplemented
        return self.field is other.field and self.t == other.t

    def __hash__(self):
        # value-based, so frozensets of characters iterate alike in every run
        return hash((self.field.p, self.field.poly, self.t))

    def __repr__(self):
        return f"<MultChar t={self.t} on {self.field!r}>"


class AddChar:
    """x -> zeta_p^(a x) on the prime field F_p, for ints x and a mod p."""

    __slots__ = ("field", "a")

    def __init__(self, field: GF, a=1):
        if field.degree != 1:
            raise ValueError(f"{field!r} is not a prime field")
        self.field = field
        self.a = a % field.p

    def value(self, x: int, scal=CYC):
        p = self.field.p
        return scal.root_of_unity(p, self.a * x % p)

    def inverse(self):
        return AddChar(self.field, -self.a)

    def is_trivial(self):
        return not self.a

    def __eq__(self, other):
        if not isinstance(other, AddChar):
            return NotImplemented
        return self.field is other.field and self.a == other.a

    def __repr__(self):
        return f"<AddChar a={self.a} on {self.field!r}>"
