"""Exact integer lattice arithmetic.

Arbitrary-precision integer vectors and matrices with determinants, Hermite
and Smith normal forms, primitivity and exact rational solving.  All values
are immutable and every operation is a pure function; Python's native
integers provide the arbitrary precision.

One solver serves every cone.  :func:`adjugate` is one fraction-free
(Bareiss) Gauss-Jordan elimination of ``k`` integer rows; from its pivot
columns ``P``, ``det A_P`` and ``adj(A_P)`` every
:class:`~qres.cones_fans.Cone`, of any dimension, reads coordinates as
integer dot products over one denominator (Cramer's rule).
:func:`span_coordinates` and :func:`matrix_rank` eliminate over ``Fraction``
and are only the reference the tests compare against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .errors import DegenerateInputError, DimensionError


@dataclass(frozen=True)
class IntegerVector:
    """Immutable integer vector; its length is the ambient lattice rank."""

    entries: tuple[int, ...]

    def __init__(self, entries: Iterable[int]):
        ent = tuple(int(e) for e in entries)
        if not ent:
            raise DimensionError("a lattice vector needs at least one entry")
        object.__setattr__(self, "entries", ent)
        object.__setattr__(self, "_hash", hash((ent,)))

    def __hash__(self) -> int:
        # computed once: vectors are hashed on every set insert and cache lookup
        return self._hash

    @property
    def rank(self) -> int:
        return len(self.entries)

    def is_zero(self) -> bool:
        return all(e == 0 for e in self.entries)

    def dot(self, other: "IntegerVector") -> int:
        self._check_rank(other)
        return sum(a * b for a, b in zip(self.entries, other.entries))

    def __add__(self, other: "IntegerVector") -> "IntegerVector":
        self._check_rank(other)
        return IntegerVector(a + b for a, b in zip(self.entries, other.entries))

    def __sub__(self, other: "IntegerVector") -> "IntegerVector":
        self._check_rank(other)
        return IntegerVector(a - b for a, b in zip(self.entries, other.entries))

    def __neg__(self) -> "IntegerVector":
        return IntegerVector(-a for a in self.entries)

    def __rmul__(self, k: int) -> "IntegerVector":
        return IntegerVector(k * a for a in self.entries)

    def __getitem__(self, i: int) -> int:
        return self.entries[i]

    def __repr__(self) -> str:
        return f"({', '.join(str(e) for e in self.entries)})"

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
        return self.rows[i].entries[j]

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
        return [list(r.entries) for r in self.rows]

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
    """Exact determinant by fraction-free (Bareiss) elimination."""
    if m.nrows != m.ncols:
        raise DimensionError(f"determinant of a {m.nrows}x{m.ncols} matrix")
    return adjugate(m.to_lists())[1]


def adjugate(
    rows: Sequence[Sequence[int]],
) -> tuple[tuple[int, ...], int, Optional[list[list[int]]]]:
    """Pivot columns ``P``, ``det A_P`` and ``adj(A_P)`` of ``k`` integer
    rows ``A`` of length ``n``, given as int lists.

    Fraction-free (Bareiss) Gauss-Jordan elimination of ``[A | I_k]``,
    pivoting on the first nonzero entry of each column among the unused
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


def _swap_rows(a: list[list[int]], i: int, j: int) -> None:
    a[i], a[j] = a[j], a[i]


def _swap_cols(a: list[list[int]], i: int, j: int) -> None:
    for row in a:
        row[i], row[j] = row[j], row[i]


def smith_normal_form(m: IntegerMatrix) -> SmithDecomposition:
    """Smith normal form with explicit unimodular transforms.

    Pivoting is deterministic: the submatrix entry of smallest nonzero
    absolute value wins, ties broken in row-major order, so the
    decomposition is reproducible across runs.
    """
    a = m.to_lists()
    nr, nc = m.nrows, m.ncols
    left = [[int(i == j) for j in range(nr)] for i in range(nr)]
    right = [[int(i == j) for j in range(nc)] for i in range(nc)]

    def add_row(src: int, dst: int, q: int) -> None:
        # row_dst -= q * row_src
        for j in range(nc):
            a[dst][j] -= q * a[src][j]
        for j in range(nr):
            left[dst][j] -= q * left[src][j]

    def add_col(src: int, dst: int, q: int) -> None:
        for i in range(nr):
            a[i][dst] -= q * a[i][src]
        for i in range(nc):
            right[i][dst] -= q * right[i][src]

    t = 0
    while t < min(nr, nc):
        best: Optional[tuple[int, int]] = None
        best_val = 0
        for i in range(t, nr):
            for j in range(t, nc):
                v = abs(a[i][j])
                if v and (best is None or v < best_val):
                    best, best_val = (i, j), v
        if best is None:
            break
        pi, pj = best
        if pi != t:
            _swap_rows(a, t, pi)
            _swap_rows(left, t, pi)
        if pj != t:
            _swap_cols(a, t, pj)
            _swap_cols(right, pj, t)
        if a[t][t] < 0:
            for j in range(nc):
                a[t][j] = -a[t][j]
            for j in range(nr):
                left[t][j] = -left[t][j]

        changed = False
        for i in range(t + 1, nr):
            q, r = divmod(a[i][t], a[t][t])
            if q:
                add_row(t, i, q)
            if r:
                changed = True
        for j in range(t + 1, nc):
            q, r = divmod(a[t][j], a[t][t])
            if q:
                add_col(t, j, q)
            if r:
                changed = True
        if changed:
            continue
        # column and row t are clear beyond the pivot; enforce divisibility
        viol = next(
            (
                (i, j)
                for i in range(t + 1, nr)
                for j in range(t + 1, nc)
                if a[i][j] % a[t][t]
            ),
            None,
        )
        if viol is not None:
            add_row(viol[0], t, -1)
            continue
        t += 1

    diag = tuple(a[i][i] for i in range(min(nr, nc)))
    return SmithDecomposition(IntegerMatrix(left), diag, IntegerMatrix(right))


def hermite_normal_form(m: IntegerMatrix) -> IntegerMatrix:
    """Row-style Hermite normal form with zero rows dropped.

    The rows form a canonical basis of the row lattice: echelon shape,
    positive pivots, entries above each pivot reduced into ``[0, pivot)``.
    """
    a = m.to_lists()
    nr, nc = m.nrows, m.ncols
    r = 0
    for c in range(nc):
        while True:
            live = [i for i in range(r, nr) if a[i][c] != 0]
            if not live:
                break
            pivot = min(live, key=lambda i: (abs(a[i][c]), i))
            if pivot != r:
                _swap_rows(a, r, pivot)
            if a[r][c] < 0:
                a[r] = [-x for x in a[r]]
            done = True
            for i in range(r + 1, nr):
                q = a[i][c] // a[r][c]
                if q:
                    a[i] = [x - q * y for x, y in zip(a[i], a[r])]
                if a[i][c]:
                    done = False
            if done:
                break
        if r < nr and a[r][c] != 0:
            for i in range(r):
                q = a[i][c] // a[r][c]
                if q:
                    a[i] = [x - q * y for x, y in zip(a[i], a[r])]
            r += 1
    rows = [row for row in a[:r]]
    if not rows:
        raise DegenerateInputError("zero matrix has an empty Hermite basis")
    return IntegerMatrix(rows)


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
    g = math.gcd(*[abs(e) for e in v.entries])
    return IntegerVector(e // g for e in v.entries)


def is_primitive(v: IntegerVector) -> bool:
    return not v.is_zero() and math.gcd(*[abs(e) for e in v.entries]) == 1


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
        [Fraction(rows[j].entries[i]) for j in range(m)] + [Fraction(target.entries[i])]
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
