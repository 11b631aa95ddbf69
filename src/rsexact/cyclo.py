"""Exact arithmetic in the cyclotomic fields Q(zeta_N).

A :class:`CycNumber` is a sparse rational linear combination of roots of
unity, stored as int numerators ``{exponent mod N: int}`` over one positive
int denominator d, with gcd(d, numerators) = 1 (zero has d = 1); the
constructor is the one place that reduces exponents, sums equal ones, drops
what cancels and divides out the gcd.  Ring operations therefore run on
ints: a product multiplies numerators and denominators, and a sum, of two
elements or of a whole sequence (``CycScalars.sum``), is one construction
at the lcm of the moduli and of the denominators.  ``Fraction`` appears
only at the boundaries (``raw_items``, ``power_basis``,
``rational_value``, ``str``).
Arithmetic never forces a canonical form; equality and zero tests reduce
lazily to the basis of the roots zeta_N^k whose exponent k, taken mod each
prime power p^a of N, is below phi(p^a).  That is the tensor product of the
prime-power power bases, relabelled by the Chinese remainder theorem, so
canonical coordinates are keyed by exponent mod N as well; reducing to it is
cheap and needs no precomputed tables.  Elements with different moduli mix
freely: binary operations embed both into Q(zeta_lcm).  The dense
power-basis vector modulo the N-th cyclotomic polynomial is produced only at
serialization boundaries.

The printable grammar is sums of terms ``a/b * zeta(N)^k``; ``parse_cyc``
and ``str`` round-trip, and an element formats its text once and keeps it.

The integer helpers the package shares live here too: the prime-power
splitting of N, a deterministic primality test and the integer cyclotomic
polynomials.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cache
from itertools import chain
from math import gcd, lcm

@cache
def _prime_powers(n: int):
    """Tuples (p, p**a, phi(p**a), p**(a-1)) for each prime p dividing n."""
    out = []
    m = n
    p = 2
    while m > 1:
        if p * p > m:
            out.append((m, m, m - 1, 1))
            break
        if m % p:
            p += 1
            continue
        pa = 1
        while m % p == 0:
            m //= p
            pa *= p
        out.append((p, pa, pa - pa // p, pa // p))
        p += 1
    return tuple(out)


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981  # least strong pseudoprime to all of _MR_BASES


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact below _MR_LIMIT (about 3.3e24);
    larger n raise ValueError rather than get a probabilistic answer."""
    if n < 2:
        return False
    if n >= _MR_LIMIT:
        raise ValueError(f"{n} is too large for the deterministic primality test")
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@cache
def cyclotomic_poly(n: int) -> tuple[int, ...]:
    """Ascending integer coefficients of the n-th cyclotomic polynomial, from
    Phi_1 = x - 1, Phi_mp(x) = Phi_m(x^p) / Phi_m(x) for a prime p not
    dividing m, and Phi_n(x) = Phi_rad(n)(x^(n / rad(n)))."""
    f = (-1, 1)
    rad = 1
    for p, _, _, _ in _prime_powers(n):
        num = [0] * ((len(f) - 1) * p + 1)
        num[::p] = f
        # exact division by the monic f
        quo = [0] * (len(num) - len(f) + 1)
        for i in range(len(quo) - 1, -1, -1):
            c = quo[i] = num[i + len(f) - 1]
            for j, y in enumerate(f):
                num[i + j] -= c * y
        f = tuple(quo)
        rad *= p
    out = [0] * ((len(f) - 1) * (n // rad) + 1)
    out[:: n // rad] = f
    return tuple(out)


@cache
def _crt_factors(n: int):
    """The tuples of _prime_powers(n), each extended by the multiplier M with
    M = 1 mod p**a and M = 0 mod n / p**a, so k = sum(k_i * M_i) mod n."""
    return tuple(
        (p, pa, phi_pa, step, n // pa * pow(n // pa, -1, pa) % n)
        for p, pa, phi_pa, step in _prime_powers(n)
    )


def _coerce(value):
    if isinstance(value, CycNumber):
        return value
    if isinstance(value, (int, Fraction)):
        return CycNumber.from_fraction(value)
    return NotImplemented


class CycNumber:
    """An element of Q(zeta_N), immutable."""

    __slots__ = ("_N", "_c", "_d", "_canon", "_text")

    def __init__(self, modulus: int, coeffs, den: int = 1):
        """The element sum(v * zeta_N**k) / den, for coeffs a dict or an
        iterable of (exponent k, value v) pairs, v an int or a Fraction, and
        den a positive int.  This is the only merge: equal exponents mod N
        are summed, what cancels is dropped, Fraction values are scaled to
        the lcm of their denominators and the gcd of the numerators with the
        denominator is divided out."""
        if modulus < 1:
            raise ValueError("modulus must be a positive integer")
        c: dict[int, int] = {}
        ints = True
        for k, v in coeffs.items() if isinstance(coeffs, dict) else coeffs:
            if not isinstance(v, int):
                ints = False
                if not isinstance(v, Fraction):
                    v = Fraction(v)
            if v:
                k %= modulus
                w = c.get(k)
                if w is None:
                    c[k] = v
                else:
                    s = w + v
                    if s:
                        c[k] = s
                    else:
                        del c[k]
        if not ints:
            scale = lcm(*(v.denominator for v in c.values()))
            c = {k: v.numerator * (scale // v.denominator) for k, v in c.items()}
            den *= scale
        if not c:
            den = 1
        elif den != 1:
            g = gcd(den, *c.values())
            if g != 1:
                c = {k: v // g for k, v in c.items()}
                den //= g
        self._N = modulus
        self._c = c
        self._d = den
        # _canon, canonical forms by conductor, is set by the first
        # _canonical_at call and _text, str(self), by the first str() call

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, modulus: int = 1) -> "CycNumber":
        return cls(modulus, {})

    @classmethod
    def one(cls) -> "CycNumber":
        return cls(1, {0: 1})

    @classmethod
    def from_fraction(cls, value) -> "CycNumber":
        return cls(1, {0: value})

    @property
    def modulus(self) -> int:
        return self._N

    def raw_numerators(self, big: int) -> tuple[dict, int]:
        """Raw exponent -> int numerator dict read at conductor big (a
        multiple of this element's modulus), and the common denominator d:
        the element is sum(n * zeta_big**k) / d, with d > 0 and coprime to
        the numerators taken together.  Any ring morphism sending the
        primitive big-th root to a root of unity of the same order
        identifies equal elements, so consumers may map these terms term by
        term."""
        if big % self._N:
            raise ValueError(f"{big} is not a multiple of the modulus {self._N}")
        return dict(self._raw_at(big)), self._d

    def raw_items(self, big: int) -> dict:
        """Raw exponent -> Fraction coefficient dict read at conductor big,
        the terms of raw_numerators(big) over their denominator."""
        nums, d = self.raw_numerators(big)
        return {k: Fraction(v, d) for k, v in nums.items()}

    # -- canonicalization ------------------------------------------------

    def _raw_at(self, big: int) -> dict:
        """Raw numerators at conductor big, over the denominator _d."""
        if big == self._N:
            return self._c
        t = big // self._N
        return {(k * t) % big: v for k, v in self._c.items()}

    def _canonical_at(self, big: int) -> tuple[dict, int]:
        """Coordinates inside Q(zeta_big) on the basis of exponents k with
        k mod p^a < phi(p^a) for every prime power p^a of big, as int
        numerators keyed by k over one denominator, in normal form, so
        equal elements give equal pairs."""
        try:
            cached = self._canon.get(big)
        except AttributeError:  # the first canonical form of this element
            self._canon = {}
            cached = None
        if cached is not None:
            return cached
        pps = _crt_factors(big)
        raw = self._raw_at(big)
        work = list(raw.items())
        leaves = []
        reduced = False
        while work:
            k, v = work.pop()
            for p, pa, phi_pa, step, m in pps:
                e = k % pa
                if e >= phi_pa:
                    # zeta_{p^a}^e = -sum_j zeta_{p^a}^(j p^(a-1) + r); moving
                    # the p^a residue of k by d moves k by d * m
                    r = e - phi_pa  # 0 <= r < step
                    for j in range(p - 1):
                        work.append(((k + (j * step + r - e) * m) % big, -v))
                    reduced = True
                    break
            else:
                leaves.append((k, v))
        if reduced:
            canon = CycNumber(big, leaves, self._d)
            out = (canon._c, canon._d)
        else:
            # every raw exponent is a basis exponent: the raw terms, already
            # merged and in normal form, are the coordinates
            out = (raw, self._d)
        self._canon[big] = out
        return out

    def is_zero(self) -> bool:
        return not self._c or not self._canonical_at(self._N)[0]

    def __bool__(self) -> bool:
        return not self.is_zero()

    def is_rational(self) -> bool:
        can = self._canonical_at(self._N)[0]
        return not can or (len(can) == 1 and 0 in can)

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("element is not rational")
        can, d = self._canonical_at(self._N)
        return Fraction(can.get(0, 0), d)

    def _combined_canonical(self) -> list[tuple[int, Fraction]]:
        """Canonical terms as (exponent mod N, coefficient), sorted."""
        can, d = self._canonical_at(self._N)
        return [(k, Fraction(v, d)) for k, v in sorted(can.items())]

    def demote(self) -> "CycNumber":
        """Equal element at the smallest modulus N/g visible from the support."""
        can, d = self._canonical_at(self._N)
        if not can:
            return CycNumber(1, {})
        g = gcd(self._N, *can)
        return CycNumber(self._N // g, {k // g: v for k, v in can.items()}, d)

    # -- ring operations -------------------------------------------------

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self._N == other._N and self._d == other._d and self._c == other._c:
            return True
        big = lcm(self._N, other._N)
        return self._canonical_at(big) == other._canonical_at(big)

    __hash__ = None  # mutable-cache value type; use power_basis() tuples to key

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _merge((self, other))

    __radd__ = __add__

    def __neg__(self):
        return CycNumber(self._N, {k: -v for k, v in self._c.items()}, self._d)

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        big = lcm(self._N, other._N)
        b = other._raw_at(big).items()
        # a plain loop: a comprehension runs in its own frame on CPython 3.11
        terms = []
        for k1, v1 in self._raw_at(big).items():
            for k2, v2 in b:
                terms.append((k1 + k2, v1 * v2))
        return CycNumber(big, terms, self._d * other._d)

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        if len(self._c) == 1:
            ((k, v),) = self._c.items()
            return CycNumber(self._N, {k * n: v**n}, self._d**n)
        result = CycNumber.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def conj(self, a: int) -> "CycNumber":
        """Galois conjugate zeta -> zeta**a, for a invertible mod the modulus."""
        if gcd(a, self._N) != 1:
            raise ValueError("conjugation index must be invertible mod N")
        return CycNumber(self._N, {k * a: v for k, v in self._c.items()}, self._d)

    def inverse(self) -> "CycNumber":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in Q(zeta_N)")
        d = self.demote()
        if len(d._c) == 1:
            ((k, v),) = d._c.items()
            return CycNumber(d._N, {-k: Fraction(d._d, v)})
        prod = CycNumber.one()
        for a in range(2, d._N):
            if gcd(a, d._N) == 1:
                prod = prod * d.conj(a)
        norm = (d * prod).rational_value()  # full Galois norm, always in Q
        return prod * CycNumber.from_fraction(1 / norm)

    # -- boundary representations ----------------------------------------

    def power_basis(self) -> list[Fraction]:
        """Coefficients on 1, zeta, ..., zeta**(phi(N)-1) modulo Phi_N: the
        int numerators are divided by the monic Phi_N from the top exponent
        down, and the remainder is put over the denominator once."""
        phi = cyclotomic_poly(self._N)
        deg = len(phi) - 1
        # x**k = -x**(k - deg) * sum(a_j x**j, j < deg) modulo Phi_N
        tail = [(j - deg, a) for j, a in enumerate(phi[:deg]) if a]
        vec = [0] * self._N
        for k, v in self._c.items():
            vec[k] = v
        for k in range(self._N - 1, deg - 1, -1):
            c = vec[k]
            if c:
                for j, a in tail:
                    vec[k + j] -= c * a
        return [Fraction(x, self._d) for x in vec[:deg]]

    @classmethod
    def from_power_basis(cls, modulus: int, coords) -> "CycNumber":
        return cls(modulus, enumerate(coords))

    def __str__(self) -> str:
        try:
            return self._text
        except AttributeError:  # the first call formats and keeps the text
            self._text = text = self._format()
            return text

    def _format(self) -> str:
        """The canonical terms of the demoted element, in the grammar of
        parse_cyc."""
        d = self.demote()
        terms = d._combined_canonical()
        if not terms:
            return "0"
        parts = []
        for k, v in terms:
            if k == 0:
                body = str(abs(v))
            else:
                z = f"zeta({d._N})" + (f"^{k}" if k != 1 else "")
                body = z if abs(v) == 1 else f"{abs(v)}*{z}"
            if not parts:
                parts.append(body if v > 0 else "-" + body)
            else:
                parts.append(("+ " if v > 0 else "- ") + body)
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"parse_cyc({str(self)!r})"


def _merge(values) -> CycNumber:
    """The sum of a sequence of CycNumbers in one construction: every raw
    term is read at the lcm of the moduli and scaled to the lcm of the
    denominators.  At a fixed modulus the raw terms of an element are
    unique (int numerators over the reduced denominator, cancelled
    exponents dropped), so this is raw-equal to any order of pairwise
    additions; one element is returned as it is."""
    if len(values) == 1:
        return values[0]
    big = lcm(*[v._N for v in values])
    den = lcm(*[v._d for v in values])
    return CycNumber(big, chain.from_iterable(_scaled_terms(values, big, den)), den)


def _scaled_terms(values, big: int, den: int):
    """The raw terms of each value at modulus big over denominator den,
    one value at a time, so a merge holds only its result and one value's
    terms; the constructor reduces the exponents mod big."""
    for v in values:
        t, s = big // v._N, den // v._d
        if t == 1 and s == 1:
            yield v._c.items()
        else:
            yield [(k * t, c * s) for k, c in v._c.items()]


def cyc_embed_root(modulus: int, k: int) -> CycNumber:
    """The root of unity zeta_modulus**k."""
    return CycNumber(modulus, {k: 1})


# -- string grammar -------------------------------------------------------

_TOKEN = re.compile(r"\s*(zeta|\d+/\d+|\d+|[()^*+-])")


def _tokenize(text: str) -> list[str]:
    text = text.strip()
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ValueError(f"bad cyclotomic literal near {text[pos:]!r}")
        out.append(m.group(1))
        pos = m.end()
    return out


class _Parser:
    def __init__(self, tokens: list[str]):
        self.tokens = tokens
        self.i = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def take(self, expect: str | None = None) -> str:
        tok = self.peek()
        if tok is None or (expect is not None and tok != expect):
            raise ValueError(f"expected {expect or 'token'}, got {tok!r}")
        self.i += 1
        return tok

    def take_number(self) -> str:
        tok = self.take()
        if not re.fullmatch(r"\d+(/\d+)?", tok):
            raise ValueError(f"expected number, got {tok!r}")
        return tok

    def parse(self) -> CycNumber:
        terms = [self.term()]
        while self.peek() in ("+", "-"):
            op = self.take()
            rhs = self.term()
            terms.append(rhs if op == "+" else -rhs)
        if self.peek() is not None:
            raise ValueError(f"trailing input at {self.tokens[self.i:]!r}")
        return _merge(terms)

    def term(self) -> CycNumber:
        sign = 1
        while self.peek() in ("+", "-"):
            if self.take() == "-":
                sign = -sign
        value = self.factor()
        while self.peek() == "*":
            self.take()
            value = value * self.factor()
        return value if sign == 1 else -value

    def factor(self) -> CycNumber:
        if self.peek() == "zeta":
            self.take()
            self.take("(")
            n = int(self.take_number())
            self.take(")")
            k = 1
            if self.peek() == "^":
                self.take()
                sign = 1
                if self.peek() == "-":
                    self.take()
                    sign = -1
                k = sign * int(self.take_number())
            return cyc_embed_root(n, k)
        tok = self.take_number()
        try:
            return CycNumber.from_fraction(Fraction(tok))
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {tok!r}") from None


def parse_cyc(text: str) -> CycNumber:
    return _Parser(_tokenize(text)).parse()


class CycScalars:
    """Characteristic-zero scalar context: plain cyclotomic numbers."""

    def one(self) -> CycNumber:
        return CycNumber.one()

    def zero(self) -> CycNumber:
        return CycNumber.zero()

    def from_fraction(self, value) -> CycNumber:
        return CycNumber.from_fraction(value)

    def root_of_unity(self, modulus: int, k: int) -> CycNumber:
        return cyc_embed_root(modulus, k)

    def embed_cyc(self, value: CycNumber) -> CycNumber:
        return value

    def sum(self, values) -> CycNumber:
        """The sum of the values, in one merge (_merge); the only way the
        package adds a sequence of cyclotomic numbers."""
        return _merge(tuple(values))


# the characteristic-zero context; every `scal` parameter defaults to it
CYC = CycScalars()
