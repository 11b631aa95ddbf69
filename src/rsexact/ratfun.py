"""Laurent polynomials and rational functions in one variable X.

Coefficients live in a scalar context (cyclotomic numbers or a residue
field); the code only uses ``+ - *``, ``inverse()``, truthiness and ``==`` on
them, and the context's ``sum`` to add a sequence.  RationalFunction keeps
a canonical form -- numerator carries the X power, denominator is a
polynomial with constant term 1 and no common factor with the numerator --
so structural equality is equality of functions.
"""

from __future__ import annotations

from .errors import NotExpandable, NotMonomialMultiple


class Laurent:
    """Sparse Laurent polynomial sum c_k X**k over a scalar context."""

    __slots__ = ("scal", "_c")

    def __init__(self, scal, coeffs):
        """coeffs is a dict or an iterable of (degree, coefficient) pairs;
        the coefficients of each degree are added by one scal.sum, here and
        nowhere else, and each sum is zero-tested once."""
        self.scal = scal
        if not isinstance(coeffs, dict):
            by_degree: dict = {}
            for k, v in coeffs:
                by_degree.setdefault(k, []).append(v)
            coeffs = {k: scal.sum(vs) for k, vs in by_degree.items()}
        self._c = {k: v for k, v in coeffs.items() if v}

    @classmethod
    def from_const(cls, scal, value) -> "Laurent":
        return cls(scal, {0: value})

    @classmethod
    def zero(cls, scal) -> "Laurent":
        return cls(scal, {})

    def is_zero(self) -> bool:
        return not self._c

    def coeff(self, k: int):
        v = self._c.get(k)
        return self.scal.zero() if v is None else v

    def items(self):
        return sorted(self._c.items())

    def min_degree(self) -> int:
        return min(self._c)

    def max_degree(self) -> int:
        return max(self._c)

    def shift(self, k: int) -> "Laurent":
        """Multiply by X**k."""
        return Laurent(self.scal, {d + k: v for d, v in self._c.items()})

    def scale(self, c) -> "Laurent":
        return Laurent(self.scal, {d: c * v for d, v in self._c.items()})

    def __eq__(self, other):
        if not isinstance(other, Laurent):
            return NotImplemented
        return self._c == other._c

    __hash__ = None

    def __mul__(self, other):
        b = other._c.items()
        terms = []
        for k1, v1 in self._c.items():
            for k2, v2 in b:
                terms.append((k1 + k2, v1 * v2))
        return Laurent(self.scal, terms)

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"<Laurent {self}>"


def format_poly(poly: Laurent) -> str:
    if poly.is_zero():
        return "0"
    parts = []
    for deg, v in poly.items():
        cs = str(v)
        wrapped = f"({cs})" if (" " in cs or "+" in cs[1:]) else cs
        if deg == 0:
            body = cs if wrapped == cs else wrapped
        else:
            xs = "X" if deg == 1 else f"X^{deg}"
            if cs == "1":
                body = xs
            elif cs == "-1":
                body = f"-{xs}"
            else:
                body = f"{wrapped}*{xs}"
        parts.append(body)
    out = parts[0]
    for body in parts[1:]:
        if body.startswith("-"):
            out += " - " + body[1:]
        else:
            out += " + " + body
    return out


def _poly_divmod(a: Laurent, b: Laurent):
    """Euclidean division of plain polynomials (b nonzero, degrees >= 0)."""
    scal = a.scal
    rem = dict(a._c)
    db = b.max_degree()
    lead_inv = b._c[db].inverse()
    quo: dict = {}
    while rem:
        da = max(rem)
        if da < db:
            break
        c = rem[da] * lead_inv
        quo[da - db] = c
        for k, v in b._c.items():
            kk = da - db + k
            w = rem.get(kk)
            s = -(c * v) if w is None else w - c * v
            if s:
                rem[kk] = s
            else:
                rem.pop(kk, None)
    return Laurent(scal, quo), Laurent(scal, rem)


def _poly_gcd(a: Laurent, b: Laurent) -> Laurent:
    """Monic gcd of plain polynomials over the coefficient field."""
    while not b.is_zero():
        _, r = _poly_divmod(a, b)
        a, b = b, r
    if a.is_zero():
        return a
    return a.scale(a._c[a.max_degree()].inverse())


class RationalFunction:
    """Quotient of Laurent polynomials, kept in canonical reduced form.

    The denominator is a polynomial with constant term 1 that shares no
    factor with the numerator; any overall X power sits in the numerator.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Laurent, den: Laurent):
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        scal = num.scal
        if num.is_zero():
            self.num = Laurent.zero(scal)
            self.den = Laurent.from_const(scal, scal.one())
            return
        s = den.min_degree()
        den0 = den.shift(-s)
        num0 = num.shift(-s)
        t = num0.min_degree()
        nu = num0.shift(-t)
        g = _poly_gcd(nu, den0)
        if g.max_degree() > 0:
            nu, _ = _poly_divmod(nu, g)
            den0, _ = _poly_divmod(den0, g)
        c0_inv = den0.coeff(0).inverse()
        self.num = nu.scale(c0_inv).shift(t)
        self.den = den0.scale(c0_inv)

    @classmethod
    def from_laurent(cls, poly: Laurent) -> "RationalFunction":
        return cls(poly, Laurent.from_const(poly.scal, poly.scal.one()))

    @property
    def scal(self):
        return self.num.scal

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __eq__(self, other):
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    __hash__ = None

    def __mul__(self, other):
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return RationalFunction(self.num * other.num, self.den * other.den)

    def __str__(self) -> str:
        if self.den == Laurent.from_const(self.scal, self.scal.one()):
            return format_poly(self.num)
        return f"({format_poly(self.num)}) / ({format_poly(self.den)})"

    def __repr__(self) -> str:
        return f"<RationalFunction {self}>"

    def to_json(self) -> dict:
        """Serialize with cyclotomic coefficients at a common modulus."""
        from math import lcm

        from .cyclo import cyc_embed_root

        big = 1
        for part in (self.num, self.den):
            for _, v in part.items():
                big = lcm(big, v.demote().modulus)
        unit = cyc_embed_root(big, 0)

        def encode(poly: Laurent):
            out = []
            for deg, v in poly.items():
                out.append([deg, [str(c) for c in (v * unit).power_basis()]])
            return out

        return {"modulus": big, "num": encode(self.num), "den": encode(self.den)}

    @classmethod
    def from_json(cls, obj: dict, scal) -> "RationalFunction":
        big = int(obj["modulus"])

        def decode(entries):
            from .cyclo import CycNumber

            return Laurent(
                scal,
                {int(d): CycNumber.from_power_basis(big, coords) for d, coords in entries},
            )

        return cls(decode(obj["num"]), decode(obj["den"]))


class EulerFactor:
    """An inverse-normalized local factor L(X) = 1/Q(X) with Q(0) = 1."""

    __slots__ = ("poly",)

    def __init__(self, poly: Laurent):
        if poly.is_zero() or poly.min_degree() < 0:
            raise ValueError("Euler-factor denominator must be a polynomial")
        if not poly.coeff(0) == poly.scal.one():
            raise ValueError("Euler-factor denominator must have constant term 1")
        self.poly = poly

    @classmethod
    def one(cls, scal) -> "EulerFactor":
        return cls(Laurent.from_const(scal, scal.one()))

    def __eq__(self, other):
        if not isinstance(other, EulerFactor):
            return NotImplemented
        return self.poly == other.poly

    __hash__ = None

    def __str__(self) -> str:
        return f"1/({format_poly(self.poly)})"

    def __repr__(self) -> str:
        return f"<EulerFactor {self}>"


def euler_normalize(f: RationalFunction):
    """Split f as c * X**m * L(X) with L an inverse-normalized Euler factor.

    Raises NotMonomialMultiple when the (canonical) numerator of f has more
    than one term, i.e. f is not a monomial multiple of 1/den.
    """
    if f.is_zero():
        raise NotMonomialMultiple("zero has no Euler-factor normalization")
    terms = f.num.items()
    if len(terms) != 1:
        raise NotMonomialMultiple(
            f"numerator {format_poly(f.num)} is not a single monomial"
        )
    ((m, c),) = terms
    return EulerFactor(f.den), c, m


def series_coefficients(f: RationalFunction, kmax: int):
    """Power-series coefficients c_0 .. c_kmax of f around X = 0."""
    if not f.is_zero() and f.num.min_degree() < 0:
        raise NotExpandable("negative X powers survive in the numerator")
    scal = f.scal
    den = [(j, d) for j, d in f.den.items() if j > 0]
    out = []
    for k in range(kmax + 1):
        tail = scal.sum(d * out[k - j] for j, d in den if j <= k)
        out.append(f.num.coeff(k) - tail)
    return out
