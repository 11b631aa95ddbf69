"""Matrices over small finite fields and the group enumerations behind the
finite-level construction: GL_n(F_q) for n <= 3, unipotent subgroups,
and conjugacy classification by eigenvalue pattern.

Eigenvalues are located by scanning the field (and its quadratic/cubic
extension) for roots of the characteristic polynomial, which avoids any
discriminant casework and works uniformly in characteristic 2.
"""

from __future__ import annotations

import itertools
from functools import cache

from .errors import TooLarge
from .finitefield import FFElement, GF, embed_element, gf

_ENUM_LIMIT = 10**8


def small_det(r):
    """Determinant of an n x n matrix, n <= 3, given by its rows over any
    commutative ring (ints, FFElements)."""
    if len(r) == 1:
        return r[0][0]
    if len(r) == 2:
        return r[0][0] * r[1][1] - r[0][1] * r[1][0]
    if len(r) == 3:
        return (
            r[0][0] * (r[1][1] * r[2][2] - r[1][2] * r[2][1])
            - r[0][1] * (r[1][0] * r[2][2] - r[1][2] * r[2][0])
            + r[0][2] * (r[1][0] * r[2][1] - r[1][1] * r[2][0])
        )
    raise ValueError("only n <= 3 supported")


def small_adjugate(r):
    """The adjugate of an n x n matrix, n <= 3, over any commutative ring:
    adj(r) * r = det(r) * Id."""
    if len(r) == 1:
        return [[1]]
    if len(r) == 2:
        return [[r[1][1], -r[0][1]], [-r[1][0], r[0][0]]]
    if len(r) == 3:
        (a, b, c), (d, e, f), (g, h, i) = r
        return [
            [e * i - f * h, c * h - b * i, b * f - c * e],
            [f * g - d * i, a * i - c * g, c * d - a * f],
            [d * h - e * g, b * g - a * h, a * e - b * d],
        ]
    raise ValueError("only n <= 3 supported")


class FiniteMatrix:
    """Immutable n x n matrix over a GF field, hashable."""

    __slots__ = ("field", "rows")

    def __init__(self, field: GF, rows):
        coerced = []
        for row in rows:
            coerced.append(
                tuple(
                    e if isinstance(e, FFElement) else field.constant(e) for e in row
                )
            )
        self.field = field
        self.rows = tuple(coerced)

    @classmethod
    def identity(cls, field: GF, n: int) -> "FiniteMatrix":
        return cls(field, [[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def diagonal(cls, field: GF, entries) -> "FiniteMatrix":
        n = len(entries)
        return cls(
            field, [[entries[i] if i == j else 0 for j in range(n)] for i in range(n)]
        )

    @property
    def n(self) -> int:
        return len(self.rows)

    def entry(self, i: int, j: int) -> FFElement:
        return self.rows[i][j]

    def key(self):
        """Deterministic sort key (flattened coefficient tuples)."""
        return tuple(e.c for row in self.rows for e in row)

    def __eq__(self, other):
        if not isinstance(other, FiniteMatrix):
            return NotImplemented
        return self.field is other.field and self.rows == other.rows

    def __hash__(self):
        return hash(self.key())

    def __mul__(self, other):
        if isinstance(other, FiniteMatrix):
            n = self.n
            bcols = tuple(zip(*other.rows))
            return FiniteMatrix(
                self.field,
                [
                    [
                        sum(
                            (self.rows[i][k] * bcols[j][k] for k in range(n)),
                            self.field.zero(),
                        )
                        for j in range(n)
                    ]
                    for i in range(n)
                ],
            )
        if isinstance(other, FFElement):
            return FiniteMatrix(
                self.field, [[e * other for e in row] for row in self.rows]
            )
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, FFElement):
            return self * other
        return NotImplemented

    def trace(self) -> FFElement:
        return sum(
            (self.rows[i][i] for i in range(self.n)), self.field.zero()
        )

    def det(self) -> FFElement:
        return small_det(self.rows)

    def inverse(self) -> "FiniteMatrix":
        d = self.det()
        if not d:
            raise ZeroDivisionError("singular matrix")
        di = d.inverse()
        return FiniteMatrix(
            self.field, [[e * di for e in row] for row in small_adjugate(self.rows)]
        )

    def is_scalar(self) -> bool:
        z = self.rows[0][0]
        n = self.n
        return all(
            self.rows[i][j] == (z if i == j else self.field.zero())
            for i in range(n)
            for j in range(n)
        )

    def __repr__(self):
        body = "; ".join(",".join(str(e) for e in row) for row in self.rows)
        return f"[{body}]"


def order_gl(q: int, n: int) -> int:
    out = 1
    for i in range(n):
        out *= q**n - q**i
    return out


def matrix_rank(g: FiniteMatrix) -> int:
    rows = [list(r) for r in g.rows]
    n = g.n
    rank = 0
    col = 0
    while rank < n and col < n:
        pivot = next((i for i in range(rank, n) if rows[i][col]), None)
        if pivot is None:
            col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = rows[rank][col].inverse()
        rows[rank] = [e * inv for e in rows[rank]]
        for i in range(n):
            if i != rank and rows[i][col]:
                c = rows[i][col]
                rows[i] = [a - c * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
        col += 1
    return rank


@cache
def enumerate_group(field: GF, n: int):
    """All of GL_n over the field, in deterministic order."""
    if field.order ** (n * n) > _ENUM_LIMIT:
        raise TooLarge(f"GL_{n}(F_{field.order}) enumeration exceeds the guard")
    elems = list(field)
    out = []
    for entries in itertools.product(elems, repeat=n * n):
        m = FiniteMatrix(field, [entries[i * n : (i + 1) * n] for i in range(n)])
        if m.det():
            out.append(m)
    return out


@cache
def enumerate_unitriangular(field: GF, n: int):
    """Upper unitriangular matrices, deterministic order."""
    pos = [(i, j) for i in range(n) for j in range(n) if i < j]
    out = []
    for vals in itertools.product(list(field), repeat=len(pos)):
        rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        m = FiniteMatrix(field, rows)
        filled = [list(r) for r in m.rows]
        for (i, j), v in zip(pos, vals):
            filled[i][j] = v
        out.append(FiniteMatrix(field, filled))
    return out


@cache
def _roots_in(field: GF, coeffs: tuple):
    """Roots in `field` of a monic polynomial given by low-to-high coeffs."""
    out = []
    for x in field:
        acc = field.zero()
        xp = field.one()
        for c in coeffs:
            acc = acc + c * xp
            xp = xp * x
        if not acc:
            out.append(x)
    return out


def classify_conjugacy(g: FiniteMatrix):
    """Conjugacy class label by eigenvalue pattern.

    n=2 kinds: ("central", z), ("unipotent", z) for non-scalar with double
    eigenvalue z, ("split", {a, b}), ("elliptic", {x, x^q}).
    n=3 kinds: ("central", z), ("u21", z), ("u3", z) for the two nontrivial
    unipotent shapes around the scalar z, ("elliptic", {x, x^q, x^q^2}),
    and ("other", None) for every remaining (split or mixed) class.
    """
    F = g.field
    if g.n == 2:
        tr = g.trace()
        det = g.det()
        roots = _roots_in(F, (det, -tr, F.one()))
        if len(roots) == 2:
            return ("split", frozenset(roots))
        if len(roots) == 1:
            z = roots[0]
            return ("central", z) if g.is_scalar() else ("unipotent", z)
        big = gf(F.p, F.degree * 2)
        coeffs = (embed_element(det, big), embed_element(-tr, big), big.one())
        ext_roots = _roots_in(big, coeffs)
        assert len(ext_roots) == 2
        return ("elliptic", frozenset(ext_roots))
    if g.n == 3:
        r = g.rows
        t1 = g.trace()
        t3 = g.det()
        # the trace of the adjugate, summed from the principal 2 x 2 minors
        # alone: the whole adjugate takes three times the products
        m01, m02, m12 = (small_det(((r[i][i], r[i][j]), (r[j][i], r[j][j])))
                         for i, j in ((0, 1), (0, 2), (1, 2)))
        t2 = m01 + m02 + m12
        coeffs = (-t3, t2, -t1, F.one())
        roots = _roots_in(F, coeffs)
        if not roots:
            big = gf(F.p, F.degree * 3)
            ext = _roots_in(big, tuple(embed_element(c, big) for c in coeffs[:-1]) + (big.one(),))
            assert len(ext) == 3
            return ("elliptic", frozenset(ext))
        if len(roots) == 1:
            z = roots[0]
            three = F.constant(3)
            if t1 == three * z and t2 == three * z * z and t3 == z * z * z:
                zi = FiniteMatrix.identity(F, 3) * z
                rank = matrix_rank(
                    FiniteMatrix(
                        F,
                        [
                            [g.rows[i][j] - zi.rows[i][j] for j in range(3)]
                            for i in range(3)
                        ],
                    )
                )
                if rank == 0:
                    return ("central", z)
                if rank == 1:
                    return ("u21", z)
                return ("u3", z)
        return ("other", None)
    raise ValueError("only n in {2, 3} supported")


@cache
def n_orbit_rep(g: FiniteMatrix) -> FiniteMatrix:
    """Lexicographically least element of (unitriangular N) * g."""
    return min((u * g for u in enumerate_unitriangular(g.field, g.n)), key=FiniteMatrix.key)


@cache
def n_coset_reps(field: GF, k: int):
    """Orbit-minimum representatives for N_k\\GL_k over the field."""
    seen = set()
    reps = []
    for g in enumerate_group(field, k):
        r = n_orbit_rep(g)
        if r not in seen:
            seen.add(r)
            reps.append(r)
    reps.sort(key=FiniteMatrix.key)
    return reps


def n_right_coset_canonical(g: FiniteMatrix) -> FiniteMatrix:
    """Canonical representative of g*N, N the upper unitriangular group.

    Right multiplication by N adds earlier columns into later ones; the
    unique coset member whose column j vanishes at the pivot rows of columns
    0..j-1 (pivot = bottom-most unclaimed nonzero row) is returned.
    """
    n = g.n
    cols = [list(col) for col in zip(*g.rows)]
    pivots: list[int] = []
    for j in range(n):
        for jj in range(j):
            pi = pivots[jj]
            if cols[j][pi]:
                c = cols[j][pi] / cols[jj][pi]
                cols[j] = [a - c * b for a, b in zip(cols[j], cols[jj])]
        pivot = next(i for i in range(n - 1, -1, -1) if i not in pivots and cols[j][i])
        pivots.append(pivot)
    return FiniteMatrix(g.field, [[cols[j][i] for j in range(n)] for i in range(n)])


def embed_block(h: FiniteMatrix, n: int) -> FiniteMatrix:
    """Top-left embedding of a k x k matrix into GL_n, identity elsewhere."""
    k = h.n
    F = h.field
    rows = [[0] * n for _ in range(n)]
    m = FiniteMatrix(F, rows)
    filled = [list(r) for r in m.rows]
    for i in range(k):
        for j in range(k):
            filled[i][j] = h.rows[i][j]
    for i in range(k, n):
        filled[i][i] = F.one()
    return FiniteMatrix(F, filled)
