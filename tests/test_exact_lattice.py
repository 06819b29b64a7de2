import hashlib
import itertools
import json
import random
from typing import Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qres import cones_fans, quotient_classifier
from qres.errors import DegenerateInputError, DimensionError
from qres.exact_lattice import (
    IntegerMatrix,
    IntegerVector,
    determinant,
    is_primitive,
    primitive,
    smith_elimination,
    smith_normal_form,
    smith_rows,
    span_coordinates,
)
from qres.resolution_engine import marked_fan_from_characters, resolve
from fractions import Fraction

from test_resolution_engine import CASES


def det_by_permutation_expansion(rows):
    """Independent determinant oracle: signed sum over permutations."""
    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = list(perm)
        # count inversions for the signature
        inv = sum(
            1 for i in range(n) for j in range(i + 1, n) if seen[i] > seen[j]
        )
        sign = -1 if inv % 2 else 1
        prod = 1
        for i, j in enumerate(perm):
            prod *= rows[i][j]
        total += sign * prod
    return total


class TestDeterminant:
    def test_identity(self):
        assert determinant(IntegerMatrix([[1, 0], [0, 1]])) == 1

    def test_cofactor(self):
        assert determinant(IntegerMatrix([[0, 1], [-1, 3]])) == 1

    def test_diagonal(self):
        assert determinant(IntegerMatrix([[2, 0], [0, 3]])) == 6

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            determinant(IntegerMatrix([[1, 2, 3], [4, 5, 6]]))

    @given(
        st.lists(
            st.lists(st.integers(-9, 9), min_size=3, max_size=3),
            min_size=3,
            max_size=3,
        )
    )
    def test_matches_permutation_expansion(self, rows):
        assert determinant(IntegerMatrix(rows)) == det_by_permutation_expansion(rows)


SNF_GOLDEN_SHA256 = "6ffbca823baa03907d0780702a5dbe88dbcd1d0c8c021cdeaaf2e0fb167b266b"

matrices = st.integers(1, 3).flatmap(
    lambda n: st.integers(1, 3).flatmap(
        lambda m: st.lists(
            st.lists(st.integers(-9, 9), min_size=m, max_size=m),
            min_size=n,
            max_size=n,
        )
    )
)


class TestSmithNormalForm:
    def test_identity(self):
        assert smith_normal_form(IntegerMatrix.identity(2)).diagonal == (1, 1)

    def test_diag_2_3(self):
        # brute-force enumeration of Z^2/(image) gives a cyclic group of order 6
        assert smith_normal_form(IntegerMatrix([[2, 0], [0, 3]])).diagonal == (1, 6)

    def test_diag_2_2(self):
        assert smith_normal_form(IntegerMatrix([[2, 0], [0, 2]])).diagonal == (2, 2)

    @given(matrices)
    @settings(max_examples=200)
    def test_decomposition_invariants(self, rows):
        m = IntegerMatrix(rows)
        snf = smith_normal_form(m)
        assert snf.apply_to(m) == snf.diagonal_matrix()
        assert abs(determinant(snf.left)) == 1
        assert abs(determinant(snf.right)) == 1
        diag = snf.diagonal
        assert all(d >= 0 for d in diag)
        for a, b in zip(diag, diag[1:]):
            if a:
                assert b % a == 0
            else:
                assert b == 0

    def test_deterministic(self):
        m = IntegerMatrix([[4, 6, 2], [2, -8, 9], [0, 3, 3]])
        first = smith_normal_form(m)
        second = smith_normal_form(m)
        assert first == second

    def test_transforms_are_pinned(self):
        # the left transform carries the unit of each chart's characters,
        # which traces record, so the whole decomposition (pivot rule, sign,
        # reduction order, divisibility fix-up) is pinned, not just the
        # diagonal; the digest was recorded from the IntegerMatrix-based
        # elimination that smith_rows replaced
        rng = random.Random("snf-golden")
        digest = hashlib.sha256()
        for _ in range(3000):
            nr, nc = rng.randint(1, 5), rng.randint(1, 5)
            rows = [[rng.randint(-40, 40) for _ in range(nc)] for _ in range(nr)]
            snf = smith_normal_form(IntegerMatrix(rows))
            before = [r[:] for r in rows]
            diagonal, left, right = smith_rows(rows)
            assert rows == before
            assert (diagonal, left, right) == (
                snf.diagonal, snf.left.to_lists(), snf.right.to_lists()
            )
            digest.update(json.dumps([list(diagonal), left, right]).encode())
        assert digest.hexdigest() == SNF_GOLDEN_SHA256

    @pytest.mark.parametrize(
        "rows", [[], [[]], [[1, 2], [3]]], ids=["no-rows", "empty-row", "ragged"]
    )
    def test_rows_of_no_shape_are_rejected(self, rows):
        with pytest.raises(DimensionError):
            smith_rows(rows)


# The list-based Smith elimination as it was before it ran in place, kept
# verbatim as the reference: the in-place one must return the same
# (diagonal, left, ops), since traces record the left transform's unit.
def reference_smith_elimination(
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
        if pj != t:
            for row in a:
                row[t], row[pj] = row[pj], row[t]
            ops.append((t, pj))
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            left[t] = [-x for x in left[t]]
        at, lt = a[t], left[t]
        p = at[t]
        changed = False
        for i in range(t + 1, nr):
            q, r = divmod(a[i][t], p)
            if q:
                a[i] = [x - q * y for x, y in zip(a[i], at)]
                left[i] = [x - q * y for x, y in zip(left[i], lt)]
            if r:
                changed = True
        for j in range(t + 1, nc):
            q, r = divmod(at[j], p)
            if q:
                for row in a:
                    row[j] -= q * row[t]
                ops.append((j, t, q))
            if r:
                changed = True
        if changed:
            continue
        # column and row t are clear beyond the pivot; enforce divisibility
        viol = next((i for i in range(t + 1, nr) if any(x % p for x in a[i][t + 1 :])), None)
        if viol is None:
            t += 1
        else:
            a[t] = [x + y for x, y in zip(at, a[viol])]
            left[t] = [x + y for x, y in zip(lt, left[viol])]
    return tuple(a[i][i] for i in range(size)), left, ops


# entries in [-60, 60]; in half of the matrices some are 6-digit numbers
smith_small = st.integers(-60, 60)
smith_large = st.integers(100_000, 999_999) | st.integers(-999_999, -100_000)
smith_matrices = st.sampled_from([smith_small, smith_small | smith_large]).flatmap(
    lambda entries: st.integers(1, 5).flatmap(
        lambda n: st.integers(1, 5).flatmap(
            lambda m: st.lists(
                st.lists(entries, min_size=m, max_size=m), min_size=n, max_size=n
            )
        )
    )
)


@given(smith_matrices)
@settings(max_examples=400)
def test_in_place_smith_elimination_equals_the_reference(rows):
    before = [r[:] for r in rows]
    assert smith_elimination(rows) == reference_smith_elimination(rows)
    assert rows == before


# the 2x2 and 3x3 kernels: units and ties, 2-digit and 6-digit entries
kernel_entries = st.integers(-3, 3) | st.integers(-60, 60) | st.integers(-999_999, 999_999)


@st.composite
def kernel_matrices(draw):
    """A square int matrix of size 2 or 3, free or with a zero row, a zero
    column, one row a combination of the others, or a zero trailing block."""
    n = draw(st.sampled_from([2, 3]))
    rows = draw(
        st.lists(st.lists(kernel_entries, min_size=n, max_size=n), min_size=n, max_size=n)
    )
    shape = draw(st.sampled_from(["free", "zero row", "zero column", "singular", "zero block"]))
    i = draw(st.integers(0, n - 1))
    if shape == "zero row":
        rows[i] = [0] * n
    elif shape == "zero column":
        for row in rows:
            row[i] = 0
    elif shape == "singular":
        others = [r for k, r in enumerate(rows) if k != i]
        factors = draw(st.lists(st.integers(-4, 4), min_size=n - 1, max_size=n - 1))
        rows[i] = [sum(f * r[j] for f, r in zip(factors, others)) for j in range(n)]
    elif shape == "zero block":
        for row in rows[1:]:
            row[1:] = [0] * (n - 1)
    return rows


@given(kernel_matrices())
@settings(max_examples=1500)
def test_kernels_equal_the_reference(rows):
    before = [r[:] for r in rows]
    assert smith_elimination(rows) == reference_smith_elimination(rows)
    assert rows == before


# one input per branch of the kernels, with the step that shows the branch
KERNEL_BRANCHES = {
    "column swap 2": ([[3, 1], [5, 7]], lambda d, l, ops: ops[0] == (0, 1)),
    "row swap 2": ([[5, 7], [1, 3]], lambda d, l, ops: l[0] == [0, 1]),
    "negative pivot 2": ([[-1, 4], [3, 5]], lambda d, l, ops: l[0] == [-1, 0]),
    "remainder retry 2": ([[2, 3], [5, 7]], lambda d, l, ops: d == (1, 1)),
    "divisibility fix-up 2": ([[2, 0], [0, 3]], lambda d, l, ops: d == (1, 6)),
    "zero matrix 2": ([[0, 0], [0, 0]], lambda d, l, ops: d == (0, 0) and not ops),
    "zero second step 2": ([[2, 4], [1, 2]], lambda d, l, ops: d == (1, 0)),
    "negative second pivot 2": ([[1, 0], [0, -5]], lambda d, l, ops: l[1] == [0, -1]),
    "column swap to 1": ([[4, 2, 6], [5, 3, 9], [7, 8, 4]], lambda d, l, ops: ops[0] == (0, 1)),
    "column swap to 2": ([[4, 6, 2], [5, 9, 3], [7, 4, 8]], lambda d, l, ops: ops[0] == (0, 2)),
    "row swap to 1": ([[0, 3, 5], [1, 0, 0], [0, 4, 7]], lambda d, l, ops: l[0] == [0, 1, 0]),
    "row swap to 2": ([[0, 3, 5], [0, 4, 7], [1, 0, 0]], lambda d, l, ops: l[0] == [0, 0, 1]),
    "negative pivot 3": ([[-1, 4, 6], [3, 5, 7], [2, 8, 9]], lambda d, l, ops: l[0] == [-1, 0, 0]),
    "remainder retry 3": ([[2, 3, 5], [5, 7, 9], [4, 6, 11]], lambda d, l, ops: d[0] == 1),
    "fix-up from row 1": ([[2, 0, 0], [0, 3, 0], [0, 0, 4]], lambda d, l, ops: d == (1, 2, 12)),
    "fix-up from row 2": ([[2, 0, 0], [0, 4, 0], [0, 0, 3]], lambda d, l, ops: d == (1, 2, 12)),
    "zero matrix 3": ([[0] * 3] * 3, lambda d, l, ops: d == (0, 0, 0) and not ops),
    "zero trailing block": (
        [[2, 4, 6], [0, 0, 0], [0, 0, 0]], lambda d, l, ops: d == (2, 0, 0)
    ),
    "zero last step": ([[1, 2, 3], [4, 5, 6], [7, 8, 9]], lambda d, l, ops: d == (1, 3, 0)),
}


@pytest.mark.parametrize("rows, shows", KERNEL_BRANCHES.values(), ids=KERNEL_BRANCHES)
def test_each_kernel_branch_equals_the_reference(rows, shows):
    result = smith_elimination(rows)
    assert result == reference_smith_elimination(rows)
    assert shows(*result)


def test_kernels_equal_the_reference_on_every_chart_matrix(monkeypatch):
    # every Smith elimination that resolving the CASES types runs, replayed
    # through smith_elimination (the kernels for 2x2 and 3x3) and the reference
    seen = []

    def recording(rows):
        seen.append([list(r) for r in rows])
        return smith_elimination(rows)

    monkeypatch.setattr(quotient_classifier, "smith_elimination", recording)
    monkeypatch.setattr(cones_fans, "smith_elimination", recording)
    quotient_classifier.cone_characters.cache_clear()
    try:
        for order, chars, p in CASES:
            resolve(marked_fan_from_characters(order, chars, p))
    finally:
        quotient_classifier.cone_characters.cache_clear()
    sizes = {(len(rows), len(rows[0])) for rows in seen}
    assert {(2, 2), (3, 3)} <= sizes
    for rows in seen:
        assert smith_elimination(rows) == reference_smith_elimination(rows)


vector_entries = st.lists(st.integers(-2**70, 2**70), min_size=1, max_size=4)


class TestIntegerVector:
    """A vector is the tuple of its entries, with lattice arithmetic."""

    def test_is_a_slotted_tuple(self):
        v = IntegerVector([3, -1])
        assert isinstance(v, tuple)
        assert IntegerVector.__slots__ == ()
        assert not hasattr(v, "__dict__")
        # equality, hashing and indexing are the tuple's own C slots
        assert not {"__eq__", "__hash__", "_hash", "__getitem__"} & set(vars(IntegerVector))
        assert type(v.entries) is tuple
        assert v.entries == (3, -1)

    @given(vector_entries, vector_entries)
    def test_equality_hash_order_and_len_are_those_of_the_entries(self, a, b):
        v, w = IntegerVector(a), IntegerVector(b)
        assert (v == w) == (v.entries == w.entries)
        assert hash(v) == hash(v.entries)
        assert (v < w) == (v.entries < w.entries)
        assert len(v) == len(v.entries) == v.rank
        assert sorted([v, w]) == sorted([v.entries, w.entries])

    def test_entries_are_coerced_to_int(self):
        v = IntegerVector([True, 2.0, "7"])
        assert v.entries == (1, 2, 7)
        assert all(type(x) is int for x in v)

    def test_repr(self):
        assert repr(IntegerVector([5])) == "(5)"
        assert repr(IntegerVector([1, -2, 3])) == "(1, -2, 3)"
        assert f"{IntegerVector([5])}" == "(5)"

    def test_scalar_multiple_scales_from_the_left_only(self):
        v = IntegerVector([1, -2])
        assert 3 * v == IntegerVector([3, -6])
        assert type(3 * v) is IntegerVector
        with pytest.raises(TypeError):
            v * 3

    def test_arithmetic_is_entrywise(self):
        v, w = IntegerVector([1, -2]), IntegerVector([4, 5])
        assert v + w == (5, 3) and type(v + w) is IntegerVector
        assert v - w == (-3, -7) and type(v - w) is IntegerVector
        assert -v == (-1, 2) and type(-v) is IntegerVector
        assert v.dot(w) == -6
        with pytest.raises(DimensionError):
            v + IntegerVector([1, 2, 3])

    def test_empty_vector_rejected(self):
        with pytest.raises(DimensionError):
            IntegerVector([])


class TestPrimitive:
    def test_divides_gcd(self):
        assert primitive(IntegerVector([2, 4])) == IntegerVector([1, 2])

    def test_already_primitive(self):
        assert primitive(IntegerVector([1, 0, 0])) == IntegerVector([1, 0, 0])

    def test_sign_preserved(self):
        assert primitive(IntegerVector([-3, 6, 9])) == IntegerVector([-1, 2, 3])

    def test_zero_rejected(self):
        with pytest.raises(DegenerateInputError):
            primitive(IntegerVector([0, 0]))

    @given(st.lists(st.integers(-50, 50), min_size=1, max_size=4))
    def test_result_is_primitive(self, entries):
        v = IntegerVector(entries)
        if v.is_zero():
            return
        assert is_primitive(primitive(v))


class TestRationalCoordinates:
    """Coordinates in a square basis, by ``span_coordinates``."""

    def test_skew_basis(self):
        basis = IntegerMatrix([[1, 0], [-1, 2]])
        assert span_coordinates(basis.rows, IntegerVector([0, 1])) == (
            Fraction(1, 2),
            Fraction(1, 2),
        )

    def test_identity_basis(self):
        basis = IntegerMatrix.identity(2)
        assert span_coordinates(basis.rows, IntegerVector([7, -2])) == (7, -2)

    def test_weighted_basis(self):
        basis = IntegerMatrix([[1, 0], [-2, 5]])
        assert span_coordinates(basis.rows, IntegerVector([0, 1])) == (
            Fraction(2, 5),
            Fraction(1, 5),
        )

    def test_singular_rejected(self):
        with pytest.raises(DimensionError):
            span_coordinates(IntegerMatrix([[1, 1], [2, 2]]).rows, IntegerVector([1, 0]))

    @given(
        st.lists(st.lists(st.integers(-6, 6), min_size=3, max_size=3), min_size=3, max_size=3),
        st.lists(st.integers(-6, 6), min_size=3, max_size=3),
    )
    def test_recombination(self, rows, target):
        m = IntegerMatrix(rows)
        if determinant(m) == 0:
            return
        coords = span_coordinates(m.rows, IntegerVector(target))
        recombined = [
            sum(c * r for c, r in zip(coords, (row.entries[j] for row in m.rows)))
            for j in range(3)
        ]
        assert recombined == list(target)


class TestSpanCoordinates:
    def test_outside_span(self):
        rows = (IntegerVector([1, 0, 0]),)
        assert span_coordinates(rows, IntegerVector([0, 1, 0])) is None

    def test_inside_span(self):
        rows = (IntegerVector([1, 0, 0]), IntegerVector([0, 2, 0]))
        coords = span_coordinates(rows, IntegerVector([3, 1, 0]))
        assert coords == (3, Fraction(1, 2))

    def test_empty_rows(self):
        assert span_coordinates((), IntegerVector([0, 0])) == ()
        assert span_coordinates((), IntegerVector([1, 0])) is None
