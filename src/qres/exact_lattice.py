"""Exact integer lattice arithmetic.

Arbitrary-precision integer vectors and matrices with the integer solver
(determinants and adjugates), the Smith normal form and primitivity.  All
values are immutable and every operation is a pure function; Python's
native integers provide the arbitrary precision.

A vector is its tuple: :class:`IntegerVector` subclasses ``tuple``, so
hashing, equality and lexicographic order run in C, a vector sorts as its
entries do, and every routine that takes int rows takes vectors as they
are, with no unwrapping.

One solver serves every cone.  :func:`adjugate` returns, for ``k``
integer rows, their first column basis ``P``, ``det A_P`` and
``adj(A_P)``; from these every :class:`~qres.cones_fans.Cone`, of any
dimension, reads coordinates as integer dot products over one denominator
(Cramer's rule).  A nonsingular square matrix of size 2, 3 or 4, which is
every full-dimensional cone of rank 2 to 4, takes a closed form (cross
products for size 3, the 2x2 minors of two row pairs for size 4); every
other input takes one fraction-free (Bareiss) Gauss-Jordan elimination,
:func:`bareiss_adjugate`, which the tests also use as the reference for the
closed forms.  The same sizes have a closed-form determinant alone,
:func:`closed_determinant`, which :func:`determinant` and the cone
constructor read.  :func:`span_coordinates` and :func:`matrix_rank` eliminate
over ``Fraction`` and are only the reference the tests compare against.

One Smith elimination, :func:`smith_elimination`, works on int rows, such
as a cone's generators, and returns the diagonal and the left transform as
lists, so the classifier reads a cone's characters without building a
matrix object per cone.  It works in place on one copy of the rows,
touching only the rows and columns from the current pivot on, and skips
the divisibility scan after a pivot of 1; the tests keep the earlier
list-rebuilding elimination as its reference.  It records its column
operations instead of applying each one to a right transform, which no
chart needs; only :func:`smith_rows` builds ``right`` from that record,
and :func:`smith_normal_form` wraps it for callers holding an
:class:`IntegerMatrix` and returns a :class:`SmithDecomposition`.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .errors import DegenerateInputError, DimensionError


class IntegerVector(tuple):
    """A lattice vector: the tuple of its integer entries, whose length is
    the ambient lattice rank.

    Equality, hashing, ordering, indexing and ``len`` are the tuple's, so a
    vector equals and hashes like the plain tuple of its entries, and
    vectors sort lexicographically.  The arithmetic is the lattice's: ``+``
    and ``-`` act entrywise on vectors of equal rank and ``k * v`` scales;
    ``v * k`` is an error, not a repetition.
    """

    __slots__ = ()

    def __new__(cls, entries: Iterable[int]) -> "IntegerVector":
        v = tuple.__new__(cls, map(int, entries))
        if not v:
            raise DimensionError("a lattice vector needs at least one entry")
        return v

    @property
    def entries(self) -> tuple[int, ...]:
        """The entries as a plain tuple, a copy; the vector is one already."""
        return tuple(self)

    @property
    def rank(self) -> int:
        return len(self)

    def is_zero(self) -> bool:
        return not any(self)

    def dot(self, other: "IntegerVector") -> int:
        self._check_rank(other)
        return sum(map(operator.mul, self, other))

    def __add__(self, other: "IntegerVector") -> "IntegerVector":
        self._check_rank(other)
        return IntegerVector(map(operator.add, self, other))

    def __sub__(self, other: "IntegerVector") -> "IntegerVector":
        self._check_rank(other)
        return IntegerVector(map(operator.sub, self, other))

    def __neg__(self) -> "IntegerVector":
        return IntegerVector(-a for a in self)

    def __mul__(self, k: object) -> "IntegerVector":
        return NotImplemented

    def __rmul__(self, k: int) -> "IntegerVector":
        return IntegerVector(k * a for a in self)

    def __repr__(self) -> str:
        return f"({', '.join(map(str, self))})"

    def _check_rank(self, other: "IntegerVector") -> None:
        if self.rank != other.rank:
            raise DimensionError(f"rank mismatch: {self.rank} vs {other.rank}")


@dataclass(frozen=True)
class IntegerMatrix:
    """Rectangular matrix whose rows are :class:`IntegerVector` of equal rank."""

    rows: tuple[IntegerVector, ...]

    def __init__(self, rows: Iterable[Iterable[int] | IntegerVector]):
        rs = tuple(r if isinstance(r, IntegerVector) else IntegerVector(r) for r in rows)
        if not rs:
            raise DimensionError("a matrix needs at least one row")
        if len({r.rank for r in rs}) != 1:
            raise DimensionError("rows have unequal rank")
        object.__setattr__(self, "rows", rs)

    @classmethod
    def identity(cls, n: int) -> "IntegerMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return self.rows[0].rank

    def entry(self, i: int, j: int) -> int:
        return self.rows[i][j]

    def transpose(self) -> "IntegerMatrix":
        return IntegerMatrix(
            [[self.entry(i, j) for i in range(self.nrows)] for j in range(self.ncols)]
        )

    def __matmul__(self, other: "IntegerMatrix") -> "IntegerMatrix":
        if self.ncols != other.nrows:
            raise DimensionError("inner dimensions do not match")
        cols = other.transpose().rows
        return IntegerMatrix([[r.dot(c) for c in cols] for r in self.rows])

    def to_lists(self) -> list[list[int]]:
        return [list(r) for r in self.rows]

    def __repr__(self) -> str:
        return "[" + "; ".join(repr(r) for r in self.rows) + "]"


@dataclass(frozen=True)
class SmithDecomposition:
    """Unimodular ``left`` and ``right`` with ``left @ m @ right`` diagonal.

    The diagonal entries are nonnegative and each divides the next.
    """

    left: IntegerMatrix
    diagonal: tuple[int, ...]
    right: IntegerMatrix

    def diagonal_matrix(self) -> IntegerMatrix:
        nr, nc = self.left.nrows, self.right.nrows
        return IntegerMatrix(
            [
                [self.diagonal[i] if i == j and i < len(self.diagonal) else 0 for j in range(nc)]
                for i in range(nr)
            ]
        )

    def apply_to(self, m: IntegerMatrix) -> IntegerMatrix:
        return self.left @ m @ self.right

    @property
    def nontrivial(self) -> tuple[int, ...]:
        """Invariant factors greater than 1, in divisor-chain order."""
        return tuple(d for d in self.diagonal if d > 1)


def determinant(m: IntegerMatrix) -> int:
    """Exact determinant of a square matrix: :func:`closed_determinant` for
    sizes 2 to 4, the Bareiss elimination otherwise."""
    if m.nrows != m.ncols:
        raise DimensionError(f"determinant of a {m.nrows}x{m.ncols} matrix")
    det = closed_determinant(m.rows)
    return bareiss_adjugate(m.rows)[1] if det is None else det


def closed_determinant(rows: Sequence[Sequence[int]]) -> Optional[int]:
    """``det A`` of a square ``A`` of size 2, 3 or 4 by its closed form, the
    one :func:`adjugate` expands, or ``None`` for any other size; the caller
    has checked that ``A`` is square.  It makes no adjugate, so a caller
    that needs only the determinant, or needs the adjugate later if at all,
    pays a few products."""
    closed = _DETERMINANTS.get(len(rows))
    return None if closed is None else closed(*rows)


def adjugate(
    rows: Sequence[Sequence[int]],
) -> tuple[tuple[int, ...], int, Optional[list[list[int]]]]:
    """Pivot columns ``P``, ``det A_P`` and ``adj(A_P)`` of ``k`` integer
    rows ``A`` of length ``n``, given as int sequences.

    A nonsingular square ``A`` of size 2, 3 or 4 takes a closed form: its
    first column basis is every column and ``adj(A) = det(A) A^-1`` is
    unique, so the result is exactly :func:`bareiss_adjugate`'s.  Every
    other input (singular, not square or larger) goes to that elimination.
    """
    k = len(rows)
    n = len(rows[0]) if rows else 0
    if any(len(r) != n for r in rows):
        raise DimensionError("adjugate of rows of unequal length")
    if k == n:
        closed = _CLOSED_FORMS.get(n)
        if closed is not None:
            det, adj = closed(*rows)
            if det:
                return _ALL_COLUMNS[n], det, adj
    return bareiss_adjugate(rows)


def _adjugate2(r0, r1):
    a0, a1 = r0
    b0, b1 = r1
    return a0 * b1 - a1 * b0, [[b1, -a1], [-b0, a0]]


def _adjugate3(r0, r1, r2):
    # column j of adj(A) is the cross product of the two rows other than j
    a0, a1, a2 = r0
    b0, b1, b2 = r1
    c0, c1, c2 = r2
    x0, x1, x2 = b1 * c2 - b2 * c1, b2 * c0 - b0 * c2, b0 * c1 - b1 * c0
    y0, y1, y2 = c1 * a2 - c2 * a1, c2 * a0 - c0 * a2, c0 * a1 - c1 * a0
    z0, z1, z2 = a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0
    return a0 * x0 + a1 * x1 + a2 * x2, [[x0, y0, z0], [x1, y1, z1], [x2, y2, z2]]


def _adjugate4(r0, r1, r2, r3):
    # Laplace expansion along rows 0-1: s_ij and t_ij are the 2x2 minors of
    # rows 0-1 and of rows 2-3 on columns i < j; the cofactor of an entry in
    # rows 0-1 combines the other row of the pair with the t minors on the
    # complementary columns, and symmetrically for rows 2-3
    a0, a1, a2, a3 = r0
    b0, b1, b2, b3 = r1
    c0, c1, c2, c3 = r2
    d0, d1, d2, d3 = r3
    s01, s02, s03 = a0 * b1 - a1 * b0, a0 * b2 - a2 * b0, a0 * b3 - a3 * b0
    s12, s13, s23 = a1 * b2 - a2 * b1, a1 * b3 - a3 * b1, a2 * b3 - a3 * b2
    t01, t02, t03 = c0 * d1 - c1 * d0, c0 * d2 - c2 * d0, c0 * d3 - c3 * d0
    t12, t13, t23 = c1 * d2 - c2 * d1, c1 * d3 - c3 * d1, c2 * d3 - c3 * d2
    det = s01 * t23 - s02 * t13 + s03 * t12 + s12 * t03 - s13 * t02 + s23 * t01
    # column j of adj(A) holds the cofactors of row j
    return det, [
        [
            b1 * t23 - b2 * t13 + b3 * t12,
            a2 * t13 - a1 * t23 - a3 * t12,
            d1 * s23 - d2 * s13 + d3 * s12,
            c2 * s13 - c1 * s23 - c3 * s12,
        ],
        [
            b2 * t03 - b0 * t23 - b3 * t02,
            a0 * t23 - a2 * t03 + a3 * t02,
            d2 * s03 - d0 * s23 - d3 * s02,
            c0 * s23 - c2 * s03 + c3 * s02,
        ],
        [
            b0 * t13 - b1 * t03 + b3 * t01,
            a1 * t03 - a0 * t13 - a3 * t01,
            d0 * s13 - d1 * s03 + d3 * s01,
            c1 * s03 - c0 * s13 - c3 * s01,
        ],
        [
            b1 * t02 - b0 * t12 - b2 * t01,
            a0 * t12 - a1 * t02 + a2 * t01,
            d1 * s02 - d0 * s12 - d2 * s01,
            c0 * s12 - c1 * s02 + c2 * s01,
        ],
    ]


def _determinant2(r0, r1):
    a0, a1 = r0
    b0, b1 = r1
    return a0 * b1 - a1 * b0


def _determinant3(r0, r1, r2):
    a0, a1, a2 = r0
    b0, b1, b2 = r1
    c0, c1, c2 = r2
    return a0 * (b1 * c2 - b2 * c1) + a1 * (b2 * c0 - b0 * c2) + a2 * (b0 * c1 - b1 * c0)


def _determinant4(r0, r1, r2, r3):
    # the Laplace expansion of _adjugate4 along rows 0-1
    a0, a1, a2, a3 = r0
    b0, b1, b2, b3 = r1
    c0, c1, c2, c3 = r2
    d0, d1, d2, d3 = r3
    return (
        (a0 * b1 - a1 * b0) * (c2 * d3 - c3 * d2)
        - (a0 * b2 - a2 * b0) * (c1 * d3 - c3 * d1)
        + (a0 * b3 - a3 * b0) * (c1 * d2 - c2 * d1)
        + (a1 * b2 - a2 * b1) * (c0 * d3 - c3 * d0)
        - (a1 * b3 - a3 * b1) * (c0 * d2 - c2 * d0)
        + (a2 * b3 - a3 * b2) * (c0 * d1 - c1 * d0)
    )


_CLOSED_FORMS = {2: _adjugate2, 3: _adjugate3, 4: _adjugate4}
_DETERMINANTS = {2: _determinant2, 3: _determinant3, 4: _determinant4}
_ALL_COLUMNS = {n: tuple(range(n)) for n in _CLOSED_FORMS}


def bareiss_adjugate(
    rows: Sequence[Sequence[int]],
) -> tuple[tuple[int, ...], int, Optional[list[list[int]]]]:
    """:func:`adjugate` by fraction-free (Bareiss) Gauss-Jordan elimination
    of ``[A | I_k]``, for any shape.

    It pivots on the first nonzero entry of each column among the unused
    rows, so ``P`` is the lexicographically first column basis.  After ``r``
    pivots every entry is, up to sign, an ``(r+1)``-minor of ``[A | I_k]``,
    so each division by the previous pivot is exact.  It ends at ``d*I`` on
    ``P`` and ``d*A_P^-1`` on the right, ``d = +-det A_P``.  Fewer than
    ``k`` pivots (always when ``k > n``) means the rows are dependent; then
    ``(P, 0, None)`` is returned.
    """
    k = len(rows)
    n = len(rows[0]) if rows else 0
    if any(len(r) != n for r in rows):
        raise DimensionError("adjugate of rows of unequal length")
    a = [list(r) + [1 if i == j else 0 for j in range(k)] for i, r in enumerate(rows)]
    pivots: list[int] = []
    sign = 1
    prev = 1
    c = 0
    for r in range(k):
        # the first nonzero entry, in rows r and below, of the first column having one
        pivot = r
        while c < n and a[pivot][c] == 0:
            pivot += 1
            if pivot == k:
                pivot = r
                c += 1
        if c == n:
            return tuple(pivots), 0, None
        if pivot != r:
            a[r], a[pivot] = a[pivot], a[r]
            sign = -sign
        rr = a[r]
        piv = rr[c]
        for i in range(k):
            if i != r:
                ri = a[i]
                f = ri[c]
                a[i] = [(piv * x - f * y) // prev for x, y in zip(ri, rr)]
        prev = piv
        pivots.append(c)
        c += 1
    return tuple(pivots), sign * prev, [[sign * x for x in row[n:]] for row in a]


def smith_elimination(
    rows: Sequence[Sequence[int]],
) -> tuple[tuple[int, ...], list[list[int]], list[tuple[int, ...]]]:
    """The Smith elimination of ``k`` integer rows of length ``n``, given as
    int sequences: ``(diagonal, left, column_ops)`` with ``left`` (``k x k``)
    unimodular int rows and ``left @ rows @ right`` zero off its diagonal,
    whose ``min(k, n)`` entries are nonnegative and each divide the next.
    ``right`` is the product of ``column_ops``, in order: ``(t, s)`` swaps
    columns ``t`` and ``s``, ``(j, t, q)`` subtracts ``q`` times column
    ``t`` from column ``j``; :func:`smith_rows` builds it.

    Pivoting is deterministic: the entry of smallest nonzero absolute value
    in the remaining submatrix wins, ties broken in row-major order, so the
    decomposition is reproducible across runs.  The pivot is made positive,
    then its column and its row are reduced by floor division, the column
    first.  A remainder repeats the step; so does an entry of the remaining
    submatrix that the pivot does not divide, after its row is added to the
    pivot's.

    The work runs in place on one copy of the rows.  Before step ``t``
    every row and column below ``t`` is zero off the diagonal, so row
    operations touch columns ``t`` on and column operations rows ``t`` on
    (``left`` is updated whole); a pivot of 1 divides everything, so it
    needs no divisibility scan.
    """
    nr = len(rows)
    nc = len(rows[0]) if rows else 0
    if not nc or any(len(r) != nc for r in rows):
        raise DimensionError("Smith normal form of an empty or ragged matrix")
    a = [list(r) for r in rows]
    left = [[int(i == j) for j in range(nr)] for i in range(nr)]
    ops: list[tuple[int, ...]] = []
    size = min(nr, nc)
    t = 0
    while t < size:
        best = pi = pj = 0
        for i in range(t, nr):
            row = a[i]
            for j in range(t, nc):
                v = abs(row[j])
                if v and (not best or v < best):
                    best, pi, pj = v, i, j
        if not best:
            break
        if pi != t:
            a[t], a[pi] = a[pi], a[t]
            left[t], left[pi] = left[pi], left[t]
        at, lt = a[t], left[t]
        if pj != t:
            for i in range(t, nr):
                row = a[i]
                row[t], row[pj] = row[pj], row[t]
            ops.append((t, pj))
        if at[t] < 0:
            for j in range(t, nc):
                at[j] = -at[j]
            for j in range(nr):
                lt[j] = -lt[j]
        p = at[t]
        changed = False
        for i in range(t + 1, nr):
            ai = a[i]
            q, r = divmod(ai[t], p)
            if q:
                for j in range(t, nc):
                    ai[j] -= q * at[j]
                li = left[i]
                for j in range(nr):
                    li[j] -= q * lt[j]
            if r:
                changed = True
        for j in range(t + 1, nc):
            q, r = divmod(at[j], p)
            if q:
                for i in range(t, nr):
                    row = a[i]
                    row[j] -= q * row[t]
                ops.append((j, t, q))
            if r:
                changed = True
        if changed:
            continue
        # column and row t are clear beyond the pivot; enforce divisibility,
        # which a pivot of 1 always has
        viol = None if p == 1 else next(
            (i for i in range(t + 1, nr) if any(x % p for x in a[i][t + 1 :])), None
        )
        if viol is None:
            t += 1
        else:
            av, lv = a[viol], left[viol]
            for j in range(t, nc):
                at[j] += av[j]
            for j in range(nr):
                lt[j] += lv[j]
    return tuple(a[i][i] for i in range(size)), left, ops


def smith_rows(
    rows: Sequence[Sequence[int]],
) -> tuple[tuple[int, ...], list[list[int]], list[list[int]]]:
    """Smith normal form of ``k`` integer rows of length ``n``:
    ``(diagonal, left, right)`` of :func:`smith_elimination`, with the
    unimodular ``right`` (``n x n`` int rows) built from its column
    operations, applied in order to the columns of the identity."""
    diagonal, left, ops = smith_elimination(rows)
    n = len(rows[0])
    cols = [[int(i == j) for i in range(n)] for j in range(n)]
    for op in ops:
        if len(op) == 2:
            t, s = op
            cols[t], cols[s] = cols[s], cols[t]
        else:
            j, t, q = op
            cols[j] = [x - q * y for x, y in zip(cols[j], cols[t])]
    return diagonal, left, [list(r) for r in zip(*cols)]


def smith_normal_form(m: IntegerMatrix) -> SmithDecomposition:
    """Smith normal form with explicit unimodular transforms, as a
    :class:`SmithDecomposition`: :func:`smith_rows` of the matrix's rows,
    wrapped for callers holding an :class:`IntegerMatrix`."""
    diagonal, left, right = smith_rows(m.rows)
    return SmithDecomposition(IntegerMatrix(left), diagonal, IntegerMatrix(right))


def matrix_rank(m: IntegerMatrix) -> int:
    """Rank over the rationals, by exact elimination."""
    a = [[Fraction(x) for x in row] for row in m.to_lists()]
    nr, nc = m.nrows, m.ncols
    r = 0
    for c in range(nc):
        pivot = next((i for i in range(r, nr) if a[i][c] != 0), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        inv = 1 / a[r][c]
        a[r] = [x * inv for x in a[r]]
        for i in range(nr):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        r += 1
        if r == nr:
            break
    return r


def primitive(v: IntegerVector) -> IntegerVector:
    """Divide out the gcd of the entries, preserving direction."""
    if v.is_zero():
        raise DegenerateInputError("the zero vector has no primitive representative")
    g = math.gcd(*v)
    return IntegerVector(e // g for e in v)


def is_primitive(v: IntegerVector) -> bool:
    # the gcd of the entries is 0 for the zero vector
    return math.gcd(*v) == 1


def span_coordinates(
    rows: Sequence[IntegerVector], target: IntegerVector
) -> Optional[tuple[Fraction, ...]]:
    """Coordinates of ``target`` in the rational span of independent ``rows``.

    Returns ``None`` when ``target`` lies outside the span.  Raises
    :class:`DimensionError` if the rows are linearly dependent.
    """
    m = len(rows)
    n = target.rank
    if m == 0:
        return () if target.is_zero() else None
    if any(r.rank != n for r in rows):
        raise DimensionError("row rank does not match target rank")
    # Solve sum_j x_j rows[j] = target as the n x m system A x = b.
    aug = [
        [Fraction(rows[j][i]) for j in range(m)] + [Fraction(target[i])]
        for i in range(n)
    ]
    r = 0
    pivot_rows = []
    for c in range(m):
        pivot = next((i for i in range(r, n) if aug[i][c] != 0), None)
        if pivot is None:
            raise DimensionError("rows are linearly dependent")
        aug[r], aug[pivot] = aug[pivot], aug[r]
        inv = 1 / aug[r][c]
        aug[r] = [x * inv for x in aug[r]]
        for i in range(n):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        pivot_rows.append(r)
        r += 1
    for i in range(r, n):
        if aug[i][m] != 0:
            return None
    return tuple(aug[i][m] for i in pivot_rows)
