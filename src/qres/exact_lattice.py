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
matrix object per cone.  It dispatches on shape.  A square input of size 2
or 3, every chart of rank 2 or 3, runs a kernel that holds its entries, its
left transform and its pivot search in local variables: the 3x3 kernel
clears the first row and column, then hands the trailing 2x2 block to the
2x2 kernel's loop, which returns the block's diagonal and the 2x2 transform
its row operations multiply the two trailing left rows by.  Every other
shape runs the general loop, in place on one copy of the rows, touching
only the rows and columns from the current pivot on; its pivot search
stops at the first entry of absolute value 1, and it skips the
divisibility scan after a pivot of 1.  Both follow the same steps in the
same order, so a kernel returns exactly the general loop's result; the
tests keep the earlier list-rebuilding elimination as the reference for
both.  The elimination records its column operations instead of applying
each one to a right transform, which no chart needs; only
:func:`smith_rows` builds ``right`` from that record, and
:func:`smith_normal_form` wraps it for callers holding an
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

    A square input of size 2 or 3 runs a kernel on local variables
    (:func:`_smith2`, :func:`_smith3`) that takes these steps in this
    order and returns the same result.  Every other shape runs in place on
    one copy of the rows.  Before step ``t`` every row and column below
    ``t`` is zero off the diagonal, so row operations touch columns ``t``
    on and column operations rows ``t`` on (``left`` is updated whole).  An
    entry of absolute value 1 is the row-major first minimum wherever it
    stands, so the pivot search stops there; a pivot of 1 divides
    everything, so it needs no divisibility scan.
    """
    nr = len(rows)
    nc = len(rows[0]) if rows else 0
    if not nc or set(map(len, rows)) != {nc}:
        raise DimensionError("Smith normal form of an empty or ragged matrix")
    if nr == nc and nr in _SMITH_KERNELS:
        return _SMITH_KERNELS[nr](rows)
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
                    if v == 1:
                        break
            else:
                continue
            break
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


def _smith_block(a, b, c, d, t, ops):
    """Steps ``t`` and ``t + 1`` of :func:`smith_elimination` on its trailing
    2x2 block ``[[a, b], [c, d]]``, whose rows and columns are ``t`` and
    ``t + 1``; column operations go to ``ops`` under those indices.  Returns
    the block's diagonal and the entries ``m0, m1, m2, m3`` of the 2x2
    transform by which its row operations multiply left rows ``t`` and
    ``t + 1``."""
    m0, m1, m2, m3 = 1, 0, 0, 1
    while True:
        # the smallest nonzero |entry|, row-major ties: k indexes a, b, c, d
        k, best = 0, abs(a)
        v = abs(b)
        if v and (not best or v < best):
            k, best = 1, v
        v = abs(c)
        if v and (not best or v < best):
            k, best = 2, v
        v = abs(d)
        if v and (not best or v < best):
            k, best = 3, v
        if not best:
            return a, d, m0, m1, m2, m3
        if k > 1:
            a, b, c, d = c, d, a, b
            m0, m1, m2, m3 = m2, m3, m0, m1
        if k & 1:
            a, b, c, d = b, a, d, c
            ops.append((t, t + 1))
        if a < 0:
            a, b, m0, m1 = -a, -b, -m0, -m1
        q, r = divmod(c, a)
        if q:
            c -= q * a
            d -= q * b
            m2 -= q * m0
            m3 -= q * m1
        q, s = divmod(b, a)
        if q:
            b -= q * a
            d -= q * c
            ops.append((t + 1, t, q))
        if r or s:
            continue
        if a == 1 or not d % a:
            break
        # b and c are 0: add row t + 1 to row t
        b = d
        m0 += m2
        m1 += m3
    if d < 0:
        d, m2, m3 = -d, -m2, -m3
    return a, d, m0, m1, m2, m3


def _smith2(rows):
    """:func:`smith_elimination` of two rows of length 2."""
    (a, b), (c, d) = rows
    ops: list[tuple[int, ...]] = []
    d0, d1, m0, m1, m2, m3 = _smith_block(a, b, c, d, 0, ops)
    return (d0, d1), [[m0, m1], [m2, m3]], ops


def _smith3(rows):
    """:func:`smith_elimination` of three rows of length 3: step 0 on the
    entries ``a*``, ``b*``, ``c*`` and the left rows ``x*``, ``y*``, ``z*``,
    then :func:`_smith_block` on the trailing block."""
    (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = rows
    x0, x1, x2, y0, y1, y2, z0, z1, z2 = 1, 0, 0, 0, 1, 0, 0, 0, 1
    ops: list[tuple[int, ...]] = []
    while True:
        # the smallest nonzero |entry|, row-major ties: k = 3 * row + column
        k, best = 0, abs(a0)
        v = abs(a1)
        if v and (not best or v < best):
            k, best = 1, v
        v = abs(a2)
        if v and (not best or v < best):
            k, best = 2, v
        v = abs(b0)
        if v and (not best or v < best):
            k, best = 3, v
        v = abs(b1)
        if v and (not best or v < best):
            k, best = 4, v
        v = abs(b2)
        if v and (not best or v < best):
            k, best = 5, v
        v = abs(c0)
        if v and (not best or v < best):
            k, best = 6, v
        v = abs(c1)
        if v and (not best or v < best):
            k, best = 7, v
        v = abs(c2)
        if v and (not best or v < best):
            k, best = 8, v
        if not best:
            return (a0, b1, c2), [[x0, x1, x2], [y0, y1, y2], [z0, z1, z2]], ops
        if k > 5:
            a0, a1, a2, x0, x1, x2, c0, c1, c2, z0, z1, z2 = (
                c0, c1, c2, z0, z1, z2, a0, a1, a2, x0, x1, x2
            )
        elif k > 2:
            a0, a1, a2, x0, x1, x2, b0, b1, b2, y0, y1, y2 = (
                b0, b1, b2, y0, y1, y2, a0, a1, a2, x0, x1, x2
            )
        k %= 3
        if k == 1:
            a0, a1, b0, b1, c0, c1 = a1, a0, b1, b0, c1, c0
            ops.append((0, 1))
        elif k == 2:
            a0, a2, b0, b2, c0, c2 = a2, a0, b2, b0, c2, c0
            ops.append((0, 2))
        if a0 < 0:
            a0, a1, a2, x0, x1, x2 = -a0, -a1, -a2, -x0, -x1, -x2
        q, r = divmod(b0, a0)
        if q:
            b0, b1, b2 = b0 - q * a0, b1 - q * a1, b2 - q * a2
            y0, y1, y2 = y0 - q * x0, y1 - q * x1, y2 - q * x2
        q, s = divmod(c0, a0)
        if q:
            c0, c1, c2 = c0 - q * a0, c1 - q * a1, c2 - q * a2
            z0, z1, z2 = z0 - q * x0, z1 - q * x1, z2 - q * x2
        q, u = divmod(a1, a0)
        if q:
            a1, b1, c1 = a1 - q * a0, b1 - q * b0, c1 - q * c0
            ops.append((1, 0, q))
        q, v = divmod(a2, a0)
        if q:
            a2, b2, c2 = a2 - q * a0, b2 - q * b0, c2 - q * c0
            ops.append((2, 0, q))
        if r or s or u or v:
            continue
        # row and column 0 are clear beyond a0: add the first row of the
        # block that a0 does not divide to row 0
        if a0 == 1:
            break
        if b1 % a0 or b2 % a0:
            a1, a2, x0, x1, x2 = b1, b2, x0 + y0, x1 + y1, x2 + y2
        elif c1 % a0 or c2 % a0:
            a1, a2, x0, x1, x2 = c1, c2, x0 + z0, x1 + z1, x2 + z2
        else:
            break
    d1, d2, m0, m1, m2, m3 = _smith_block(b1, b2, c1, c2, 1, ops)
    return (a0, d1, d2), [
        [x0, x1, x2],
        [m0 * y0 + m1 * z0, m0 * y1 + m1 * z1, m0 * y2 + m1 * z2],
        [m2 * y0 + m3 * z0, m2 * y1 + m3 * z1, m2 * y2 + m3 * z2],
    ], ops


_SMITH_KERNELS = {2: _smith2, 3: _smith3}


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
