"""The integer cone kernel against the rational reference it replaced.

Every cone, full-dimensional or not, answers ``numerators``, ``contains``,
``multiplicity`` and star subdivision from one cached
minor ``det`` on its first column basis and its cofactor rows, builds the
pieces of a subdivision with ``det`` only, their rows made when first read
by the constructor's ``adjugate`` helper, and settles most pairs of the fan
check with one cofactor row, run as bit masks of its signs on the rays of
the fan, computed for every ray at once in packed big-integer lanes.  These tests compare every answer with the ``Fraction``
elimination of ``span_coordinates`` and ``matrix_rank``, the constructor's
own elimination (and its closed forms with the Bareiss elimination), the
Smith normal form, the all-pairs maximality rule, the
one-ray-at-a-time reference subdivision, the one-dot-product-per-ray sign
masks and the ``Fraction`` Fourier-Motzkin fan check written out below, on
cones of rank 2-5 and of every dimension.  The constructor's closed-form
determinant is compared with ``_kernel``, the one source of rows, the
exact check that substitutes each common ray's equality with the one that
passed it to Fourier-Motzkin as two inequalities, and the Fourier-Motzkin
elimination that drops rows by Chernikov's rule with the one that combined
every pair.
"""

import functools
import itertools
import math
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qres import cones_fans
from qres.cones_fans import (
    Cone,
    Fan,
    _meet_in_common_face,
    _subdivide_cone,
    faces,
    multiplicity,
    star_subdivide,
    validate_fan,
)
from qres.errors import DegenerateInputError, MeasureError, SupportError
from qres.exact_lattice import (
    IntegerMatrix,
    IntegerVector,
    adjugate,
    bareiss_adjugate,
    closed_determinant,
    determinant,
    matrix_rank,
    primitive,
    smith_normal_form,
    span_coordinates,
)
from qres.resolution_engine import marked_fan_from_characters, resolve


def primitive_vectors(rank, bound=6):
    return (
        st.lists(st.integers(-bound, bound), min_size=rank, max_size=rank)
        .filter(any)
        .map(lambda e: primitive(IntegerVector(e)))
    )


@st.composite
def full_cones(draw, rank=None):
    """Full-dimensional cone of rank 2-4: a triangular matrix with nonzero
    diagonal, mixed by unimodular column operations and a coordinate
    permutation, so the sorted generators have either determinant sign."""
    n = rank if rank is not None else draw(st.integers(2, 4))
    nonzero = st.sampled_from([-3, -2, -1, 1, 2, 3])
    rows = [
        [draw(st.integers(-4, 4)) if j < i else draw(nonzero) if j == i else 0 for j in range(n)]
        for i in range(n)
    ]
    for _ in range(draw(st.integers(0, 3))):
        src, dst = draw(st.permutations(range(n)))[:2]
        k = draw(st.integers(-2, 2))
        for r in rows:
            r[dst] += k * r[src]
    perm = draw(st.permutations(range(n)))
    return Cone(n, [primitive(IntegerVector([r[j] for j in perm])) for r in rows])


@st.composite
def lower_cones(draw):
    """A face of dimension 1 to rank-1 of a full cone of rank 3-5, and the
    generators of the full cone it leaves out (so off its span)."""
    full = draw(full_cones(draw(st.integers(3, 5))))
    kept = draw(st.permutations(range(full.rank)))[: draw(st.integers(1, full.rank - 1))]
    c = Cone(full.rank, [g for i, g in enumerate(full.generators) if i in kept])
    return c, [g for i, g in enumerate(full.generators) if i not in kept]


@st.composite
def any_cones(draw):
    """A full cone of rank 2-4 or a lower-dimensional one of rank 3-5."""
    return draw(st.one_of(full_cones(), lower_cones().map(lambda d: d[0])))


def combine(c, coeffs):
    return [sum(k * g.entries[i] for k, g in zip(coeffs, c.generators)) for i in range(c.rank)]


@st.composite
def cone_and_points(draw):
    """A full or lower-dimensional cone with probe points: in the relative
    interior, on faces, in the span but outside, off the span, and lattice
    points of the span with fractional coordinates."""
    if draw(st.booleans()):
        c, off = draw(full_cones()), []
    else:
        c, off = draw(lower_cones())
    n, k = c.rank, c.dim
    points = []
    for _ in range(6):
        coeffs = draw(st.lists(st.integers(0, 4), min_size=k, max_size=k).filter(any))
        v = combine(c, coeffs)
        points.append(IntegerVector(v))  # in the cone; on a face when a coefficient is 0
        points.append(primitive(IntegerVector(v)))
        points.append(IntegerVector([-x for x in v]))  # outside
        points.append(IntegerVector(v[:-1] + [v[-1] + draw(st.integers(-3, 3))]))
        if off:
            w = draw(st.sampled_from(off))
            t = draw(st.sampled_from([-2, -1, 1, 2]))
            points.append(IntegerVector([x + t * y for x, y in zip(v, w.entries)]))
    points.extend(draw(st.lists(primitive_vectors(n), min_size=1, max_size=4)))
    points.extend(c.generators)
    points.append(IntegerVector([0] * n))
    return c, points


def reference_contains(c, v):
    coords = span_coordinates(c.generators, v)
    return coords is not None and all(x >= 0 for x in coords)


def reference_maximal(cones):
    """The all-pairs rule: drop every cone whose rays are a subset of another's."""
    cs = set(cones)
    return frozenset(
        c
        for c in cs
        if not any(c is not d and set(c.generators) <= set(d.generators) for d in cs)
    )


def reference_star(cones, u):
    """Star subdivision of a cone collection by rational elimination."""
    out = []
    for c in cones:
        coords = span_coordinates(c.generators, u)
        if coords is None or any(x < 0 for x in coords):
            out.append(c)
            continue
        slots = [i for i, x in enumerate(coords) if x > 0]
        if len(slots) == 1 and coords[slots[0]] == 1:
            out.append(c)
            continue
        for i in slots:
            gens = list(c.generators)
            gens[i] = u
            out.append(Cone(c.rank, gens))
    return reference_maximal(out)


def containing_cone(cones, u):
    """The first cone of a collection, in sorted order, containing ``u`` by
    the rational reference: a scan over every cone, which is how the tests
    find the cone :func:`star_subdivide` takes with each ray."""
    return next(c for c in sorted(cones, key=Cone.sort_key) if reference_contains(c, u))


def first_column_basis(rows):
    """The lexicographically first column basis, greedily by ``matrix_rank``."""
    basis = []
    for c in range(len(rows[0])):
        cols = [[r[j] for r in rows] for j in basis + [c]]
        if matrix_rank(IntegerMatrix(cols)) > len(basis):
            basis.append(c)
    return tuple(basis)


@st.composite
def integer_rows(draw):
    """``k`` rows of length ``n``, ``k <= n + 1``; with small entries and
    optionally a row made a combination of others, often rank-deficient."""
    n = draw(st.integers(1, 5))
    k = draw(st.integers(1, n + 1))
    rows = draw(
        st.lists(
            st.lists(st.integers(-3, 3), min_size=n, max_size=n), min_size=k, max_size=k
        )
    )
    if k > 1 and draw(st.booleans()):
        a, b = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
        rows[-1] = [a * x + b * y for x, y in zip(rows[0], rows[-2])]
    return rows


class TestAdjugate:
    @given(st.integers(1, 5).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-5, 5), min_size=n, max_size=n), min_size=n, max_size=n
        )
    ))
    @settings(max_examples=200)
    def test_adjugate_inverts(self, rows):
        n = len(rows)
        pivots, det, adj = adjugate(rows)
        assert det == determinant(IntegerMatrix(rows))
        # the closed-form determinant alone covers sizes 2-4
        assert closed_determinant(rows) == (det if 2 <= n <= 4 else None)
        if det == 0:
            assert adj is None
            return
        assert pivots == tuple(range(n))
        prod = [[sum(rows[i][k] * adj[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
        assert prod == [[det if i == j else 0 for j in range(n)] for i in range(n)]

    def test_closed_forms_equal_the_elimination(self):
        # small entries make singular squares common; those and every other
        # input fall through to the elimination, so both answers must agree
        singular = []

        @given(st.integers(2, 4).flatmap(
            lambda n: st.lists(
                st.lists(st.integers(-2, 2), min_size=n, max_size=n), min_size=n, max_size=n
            )
        ))
        @settings(max_examples=600, deadline=None)
        def check(rows):
            got = adjugate(rows)
            assert got == bareiss_adjugate(rows)
            assert closed_determinant(rows) == got[1]
            singular.append(got[1] == 0)

        check()
        assert any(singular) and not all(singular)

    def test_non_square_and_rank_deficient(self):
        shapes = set()

        @given(integer_rows())
        @settings(max_examples=300, deadline=None)
        def check(rows):
            k = len(rows)
            pivots, det, adj = adjugate(rows)
            assert pivots == first_column_basis(rows)
            assert len(pivots) == matrix_rank(IntegerMatrix(rows))
            shapes.add((k == len(rows[0]), len(pivots) == k))
            if len(pivots) < k:
                assert det == 0 and adj is None
                return
            sub = [[r[j] for j in pivots] for r in rows]
            assert det == determinant(IntegerMatrix(sub)) != 0
            prod = [[sum(adj[i][t] * sub[t][j] for t in range(k)) for j in range(k)] for i in range(k)]
            assert prod == [[det if i == j else 0 for j in range(k)] for i in range(k)]

        check()
        assert shapes == {(a, b) for a in (True, False) for b in (True, False)}


def assert_kernel(c):
    """``det`` and the cofactor rows are the kernel's defining data: rows
    zero off the first column basis ``P`` of the generators, dual to them."""
    pivots = first_column_basis([g.entries for g in c.generators]) if c.dim else ()
    assert c.det > 0 and len(c.cofactors) == c.dim
    for j, row in enumerate(c.cofactors):
        assert len(row) == c.rank
        assert all(x == 0 for i, x in enumerate(row) if i not in pivots)
        for l, g in enumerate(c.generators):
            assert sum(a * b for a, b in zip(row, g.entries)) == (c.det if j == l else 0)
    if c.dim:
        minor = [[g.entries[i] for i in pivots] for g in c.generators]
        assert c.det == abs(determinant(IntegerMatrix(minor)))


class TestFullDimensionalKernel:
    """The kernel of full-dimensional cones, and of the lower-dimensional
    cones that share it."""

    @given(cone_and_points())
    @settings(max_examples=150, deadline=None)
    def test_contains_and_coordinates_match_elimination(self, data):
        c, points = data
        assert_kernel(c)
        for v in points:
            want = span_coordinates(c.generators, v)
            nd = c.numerators(v)
            assert (nd is None) == (want is None)
            if nd is not None:
                assert nd[1] == c.det
                assert tuple(Fraction(x, nd[1]) for x in nd[0]) == want
            assert c.contains(v) == reference_contains(c, v)

    @given(any_cones())
    @settings(max_examples=150, deadline=None)
    def test_multiplicity_is_snf_product(self, c):
        diag = smith_normal_form(IntegerMatrix(c.generators)).diagonal
        assert multiplicity(c) == math.prod(diag)
        if c.is_full_dimensional():
            assert multiplicity(c) == c.det
        if c.det == 1:
            assert set(diag) == {1}

    def test_both_determinant_signs_are_drawn(self):
        signs = set()

        @given(full_cones())
        @settings(max_examples=60, deadline=None)
        def record(c):
            signs.add(determinant(IntegerMatrix(c.generators)) > 0)

        record()
        assert signs == {True, False}

    def test_both_determinant_signs_are_normalized(self):
        pos = Cone(2, [(1, 0), (0, 1)])
        neg = Cone(2, [(0, 1), (1, 0)])
        flipped = Cone(2, [(1, 0), (-1, -2)])  # sorted rows (-1,-2),(1,0): det 2
        twisted = Cone(2, [(1, 0), (-1, 2)])  # sorted rows (-1,2),(1,0): det -2
        assert pos.det == neg.det == 1
        assert flipped.det == twisted.det == 2
        nums, det = twisted.numerators(IntegerVector((0, 1)))
        assert tuple(Fraction(x, det) for x in nums) == span_coordinates(
            twisted.generators, IntegerVector((0, 1))
        )
        assert twisted.contains(IntegerVector((0, 1)))
        assert not twisted.contains(IntegerVector((0, -1)))

    def test_dependent_generators_rejected(self):
        with pytest.raises(DegenerateInputError):
            Cone(3, [(1, 0, 0), (0, 1, 0), (1, 1, 0)])

    def test_lower_dimensional_cones_use_the_cofactor_rows(self):
        c = Cone(3, [(1, 0, 0), (-1, 2, 0)])
        # sorted rows (-1,2,0),(1,0,0); P = (0, 1) with minor -2
        assert c.det == 2 and c.cofactors == ((0, 1, 0), (2, 1, 0))
        assert multiplicity(c) == 2
        assert c.contains(IntegerVector((0, 1, 0)))
        assert not c.contains(IntegerVector((0, 1, 1)))
        assert c.numerators(IntegerVector((0, 1, 0))) == ((1, 1), 2)
        assert c.numerators(IntegerVector((0, 1, 1))) is None
        # the minor on P is not always the multiplicity, nor the least denominator
        d = Cone(3, [(1, 0, 0), (1, 2, 2)])
        assert d.det == 2 and multiplicity(d) == 2
        e = Cone(3, [(1, 0, 1), (1, 2, 3)])
        assert e.det == 2 and multiplicity(e) == 2
        f = Cone(3, [(2, 0, 1), (0, 2, 1)])
        assert f.det == 4 and multiplicity(f) == 2
        assert f.numerators(IntegerVector((1, 1, 1))) == ((2, 2), 4)

    def test_zero_cone(self):
        z = Cone(3, [])
        assert z.det == 1 and z.cofactors == ()
        assert multiplicity(z) == 1
        assert z.numerators(IntegerVector((0, 0, 0))) == ((), 1)
        assert z.numerators(IntegerVector((0, 1, 0))) is None
        assert z.contains(IntegerVector((0, 0, 0)))
        assert not z.contains(IntegerVector((1, 0, 0)))


@st.composite
def generator_lists(draw):
    """Rank 1-5 and 1 to rank primitive vectors with small entries, the
    last one often a combination of two others, so repeated and dependent
    generators are common."""
    n = draw(st.integers(1, 5))
    gens = draw(st.lists(primitive_vectors(n, 2), min_size=1, max_size=n))
    if len(gens) > 2 and draw(st.booleans()):
        a, b = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
        v = [a * x + b * y for x, y in zip(gens[0], gens[1])]
        if any(v):
            gens[-1] = primitive(IntegerVector(v))
    return n, gens


class TestLeanConstructor:
    """A full-dimensional cone of rank 2-4 takes ``det`` from the closed-form
    determinant and makes its rows on first read; every cone's ``det`` and
    rows are those of ``_kernel``, the one source of rows."""

    def test_det_and_rows_equal_the_kernel(self):
        seen = set()

        @given(generator_lists())
        @settings(max_examples=500, deadline=None)
        def check(data):
            n, gens = data
            ordered = tuple(sorted(set(gens)))
            full = len(ordered) == n
            try:
                det, rows = cones_fans._kernel(n, ordered)
            except DegenerateInputError as exc:
                with pytest.raises(DegenerateInputError) as info:
                    Cone(n, gens)
                assert str(info.value) == str(exc)
                seen.add((full, "dependent"))
                return
            c = Cone(n, gens)
            lean = full and 2 <= n <= 4
            assert ("cofactors" in c.__dict__) is not lean
            assert c.det == det and c.cofactors == rows
            seen.add((full, "lean" if lean else "independent"))

        check()
        assert seen == {
            (True, "lean"),
            (True, "independent"),
            (True, "dependent"),
            (False, "independent"),
            (False, "dependent"),
        }


# faces of the orthant of rank 4 whose sorted generators have a first
# maximal minor of each sign
LOWER_NEG = Cone(4, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)])
LOWER_POS = Cone(4, [(-1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)])


class TestSubdivideCone:
    def test_ray_outside_raises_measure_error(self):
        c = Cone(2, [(1, 0), (0, 1)])
        with pytest.raises(MeasureError):
            _subdivide_cone(c, IntegerVector((-1, 1)))

    def test_existing_generator_returns_cone(self):
        c = Cone(2, [(1, 0), (-1, 3)])
        assert _subdivide_cone(c, IntegerVector((-1, 3))) == (c,)

    def test_pieces_from_parent_rows_equal_the_constructor(self):
        seen = set()

        # a lower-dimensional cone of each minor sign, cut at an interior ray
        # and at a ray of a proper face: each kind the assertion below needs
        # u sorting before every generator, after every generator and between
        # them with a replaced generator on each side: every branch of the
        # sorted insertion in _subdivide_cone
        @example((Cone(2, [(2, -1), (2, 1)]), IntegerVector((1, 0)), [0, 1]))
        @example((Cone(2, [(-2, -1), (-2, 1)]), IntegerVector((-1, 0)), [0, 1]))
        @example(
            (Cone(3, [(1, -1, 0), (1, 0, 1), (1, 1, 0)]), IntegerVector((1, 0, 0)), [0, 2])
        )
        @example((LOWER_NEG, IntegerVector((1, 1, 1, 0)), [0, 1, 2]))
        @example((LOWER_NEG, IntegerVector((0, 1, 1, 0)), [0, 1]))
        @example((LOWER_POS, IntegerVector((-1, 1, 1, 0)), [0, 1, 2]))
        @example((LOWER_POS, IntegerVector((-1, 0, 1, 0)), [0, 1]))
        @given(cone_and_ray())
        @settings(max_examples=300, deadline=None)
        def check(data):
            c, u, support = data
            pieces = _subdivide_cone(c, u)
            if len(support) == 1:
                assert pieces == (c,)
                return
            expected = []
            for i in support:
                gens = list(c.generators)
                gens[i] = u
                expected.append(Cone(c.rank, gens))
            assert len(pieces) == len(expected)
            for got, want in zip(pieces, expected):
                assert got.generators == want.generators
                assert got.det == want.det
                # a piece makes its rows on first read, by the constructor's helper
                assert "cofactors" not in got.__dict__
                assert got.cofactors == want.cofactors
                assert got == want and hash(got) == hash(want)
                diag = smith_normal_form(IntegerMatrix(got.generators)).diagonal
                assert multiplicity(got) == math.prod(diag)
                if got.det == 1:
                    assert set(diag) == {1}
            _, det, _ = adjugate([g.entries for g in c.generators])
            seen.add((c.is_full_dimensional(), len(support) == c.dim, det > 0))

        check()
        # interior rays and rays on proper faces, under both signs of the
        # minor, of full-dimensional cones; each kind for lower-dimensional ones
        both = {True, False}
        assert {(b, d) for a, b, d in seen if a} == {(b, d) for b in both for d in both}
        assert {b for a, b, _ in seen if not a} == {d for a, _, d in seen if not a} == both

    def test_lower_dimensional_pieces_read_the_constructor_rows(self):
        c = Cone(3, [(1, 0, 0), (-1, 2, 0)])
        pieces = _subdivide_cone(c, IntegerVector((0, 1, 0)))
        want = {Cone(3, [(0, 1, 0), (-1, 2, 0)]), Cone(3, [(1, 0, 0), (0, 1, 0)])}
        assert set(pieces) == want
        for p in pieces:
            (q,) = [w for w in want if w == p]
            assert p.det == q.det == 1
            assert "cofactors" not in p.__dict__
            assert p.cofactors == q.cofactors

    def test_final_cones_of_a_resolve_compute_no_rows(self):
        trace = resolve(marked_fan_from_characters(31, (1, 5, 11)))
        cones = trace.final.fan.cones
        assert len(cones) == 115
        assert not [c for c in cones if "cofactors" in c.__dict__]


@st.composite
def cone_and_ray(draw):
    """A full cone of rank 2-4 or a lower-dimensional one of rank 3-5, a
    primitive ray in the relative interior of a drawn face (the whole cone
    or a proper face), and that face's generator positions."""
    c = draw(any_cones())
    k = c.dim
    support = sorted(draw(st.permutations(range(k)))[: draw(st.integers(1, k))])
    coeffs = [draw(st.integers(1, 5)) if i in support else 0 for i in range(k)]
    return c, primitive(IntegerVector(combine(c, coeffs))), support


@st.composite
def mixed_cone_lists(draw, max_rank=4):
    """Full cones of one rank plus some of their faces and stray lower cones."""
    n = draw(st.integers(2, max_rank))
    full = draw(st.lists(full_cones(n), min_size=1, max_size=4))
    cones = list(full)
    for c in full:
        fs = sorted(faces(c), key=Cone.sort_key)
        cones.extend(draw(st.lists(st.sampled_from(fs), max_size=3)))
    for _ in range(draw(st.integers(0, 3))):
        k = draw(st.integers(1, n - 1))
        gens = draw(st.lists(primitive_vectors(n), min_size=k, max_size=k, unique=True))
        try:
            cones.append(Cone(n, gens))
        except DegenerateInputError:
            pass
    return n, draw(st.permutations(cones))


class TestFanMaximality:
    @given(mixed_cone_lists())
    @settings(max_examples=150, deadline=None)
    def test_matches_all_pairs_rule(self, data):
        n, cones = data
        assert Fan(n, cones).cones == reference_maximal(cones)


@st.composite
def subdivided_fans(draw):
    """A valid fan: one full cone star-subdivided by the reference at up to
    three rays inside it."""
    c = draw(full_cones())
    n = c.rank
    cones = frozenset([c])
    for _ in range(draw(st.integers(0, 3))):
        coeffs = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n).filter(any))
        v = [sum(k * g.entries[i] for k, g in zip(coeffs, c.generators)) for i in range(n)]
        cones = reference_star(cones, primitive(IntegerVector(v)))
    return n, list(cones)


@st.composite
def fan_and_rays(draw):
    """A valid fan from :func:`subdivided_fans` and rays inside its cones."""
    n, cones = draw(subdivided_fans())
    rays = []
    for _ in range(draw(st.integers(1, 4))):
        c = draw(st.sampled_from(sorted(cones, key=Cone.sort_key)))
        coeffs = draw(
            st.lists(st.integers(0, 3), min_size=c.dim, max_size=c.dim).filter(any)
        )
        v = [sum(k * g.entries[i] for k, g in zip(coeffs, c.generators)) for i in range(n)]
        rays.append(primitive(IntegerVector(v)))
    return n, cones, rays


class TestStarSubdivide:
    @given(fan_and_rays())
    @settings(max_examples=160, deadline=None)
    def test_matches_reference_subdivision(self, data):
        n, cones, rays = data
        start = fan = Fan(n, cones)
        expected = fan.cones
        found = []
        for u in rays:
            # star subdivision keeps the support, so some cone contains u
            found.append(containing_cone(expected, u))
            fan = star_subdivide(fan, [u], found[-1:])
            expected = reference_star(expected, u)
            assert fan.cones == expected
        # the same rays in one call, each with the cone found for it
        assert star_subdivide(start, rays, found).cones == expected

    def test_hinted_batch_takes_the_local_path(self, monkeypatch):
        c = Cone(3, [(1, 0, 0), (0, 1, 0), (-1, -5, 31)])
        # e1 + e2 and e2 + w lie on faces of c; e1 + e2 + w inside it, whose
        # minimal face (c itself) the first ray has split by then, so c is
        # no longer a cone to take it with
        rays = [IntegerVector(v) for v in [(1, 1, 0), (-1, -4, 31), (0, -4, 31)]]
        found = []
        real = cones_fans._face_star

        def recording(index, cone, u):
            star, nums = real(index, cone, u)
            found.append(len(star))
            return star, nums

        monkeypatch.setattr(cones_fans, "_face_star", recording)
        out = star_subdivide(Fan(3, [c]), rays[:2], [c, c])
        assert out.cones == functools.reduce(reference_star, rays[:2], frozenset([c]))
        assert found == [1, 1]
        with pytest.raises(SupportError, match="is not a cone of the fan"):
            star_subdivide(Fan(3, [c]), rays, [c, c, c])

    def test_iterated_subdivision_of_a_rank3_cone(self):
        c = Cone(3, [(1, 0, 0), (0, 1, 0), (-1, -5, 31)])
        fan, expected = Fan(3, [c]), frozenset([c])
        for coeffs in itertools.product(range(1, 3), repeat=3):
            v = [sum(k * g.entries[i] for k, g in zip(coeffs, c.generators)) for i in range(3)]
            u = primitive(IntegerVector(v))
            fan = star_subdivide(fan, [u], [containing_cone(expected, u)])
            expected = reference_star(expected, u)
            assert fan.cones == expected


def entries_key(c):
    """The sort key of a cone when vectors wrapped their entries."""
    return tuple(g.entries for g in c.generators)


class TestSortOrder:
    """Vectors are tuples, so the generator tuple is a cone's sort key."""

    @given(mixed_cone_lists(max_rank=5))
    @settings(max_examples=150, deadline=None)
    def test_sort_key_orders_cones_as_their_entries(self, data):
        _, cones = data
        assert all(c.sort_key() is c.generators for c in cones)
        assert sorted(cones, key=Cone.sort_key) == sorted(cones, key=entries_key)
        for a, b in itertools.product(cones, repeat=2):
            assert (a.sort_key() < b.sort_key()) == (entries_key(a) < entries_key(b))

    @given(fan_and_rays())
    @settings(max_examples=80, deadline=None)
    def test_rays_are_the_generators_sorted_by_entries(self, data):
        n, cones, rays = data
        start = Fan(n, cones)
        found = [containing_cone(start.cones, u) for u in rays[:1]]
        for fan in (start, star_subdivide(start, rays[:1], found)):
            gens = {g for c in fan.cones for g in c.generators}
            expected = tuple(sorted(gens, key=lambda g: g.entries))
            assert fan.rays() == expected
            assert all(type(r) is IntegerVector for r in fan.rays())


def reference_meet(sigma, tau):
    """Whether two cones meet in their common face: a separating functional
    (zero on the shared rays, >= 1 on the rays of ``sigma`` only, <= -1 on
    those of ``tau`` only) by ``Fraction`` Fourier-Motzkin elimination, each
    derived inequality scaled to coprime integers."""
    common = set(sigma.generators) & set(tau.generators)
    rows = [(g.entries, 0) for g in common]
    rows += [(tuple(-e for e in g.entries), 0) for g in common]
    rows += [(g.entries, 1) for g in sigma.generators if g not in common]
    rows += [(tuple(-e for e in g.entries), 1) for g in tau.generators if g not in common]
    system = set(rows)
    for k in range(sigma.rank):
        pos = [(c, r) for c, r in system if c[k] > 0]
        neg = [(c, r) for c, r in system if c[k] < 0]
        rest = {(c, r) for c, r in system if c[k] == 0}
        for cp, rp in pos:
            for cn, rn in neg:
                a, b = cp[k], -cn[k]
                row = [Fraction(b * x + a * y) for x, y in zip(cp, cn)] + [Fraction(b * rp + a * rn)]
                scale = math.lcm(*(x.denominator for x in row))
                ints = [int(x * scale) for x in row]
                g = math.gcd(*ints) or 1
                rest.add((tuple(x // g for x in ints[:-1]), ints[-1] // g))
        system = rest
    return all(r <= 0 for _, r in system)


def paired_meet(sigma, tau):
    """``_meet_in_common_face`` as it was before it substituted equalities:
    each common ray ``g`` goes to ``_fm_feasible`` as the two inequalities
    ``+-g . w >= 0``, which the elimination then combines with the others."""
    common = set(sigma.generators) & set(tau.generators)
    s_only = [g for g in sigma.generators if g not in common]
    t_only = [g for g in tau.generators if g not in common]
    if not s_only and not t_only:
        return True
    constraints = []
    for g in common:
        constraints.append((tuple(g), 0))
        constraints.append((tuple(-x for x in g), 0))
    constraints += [(tuple(g), 1) for g in s_only]
    constraints += [(tuple(-x for x in g), 1) for g in t_only]
    return cones_fans._fm_feasible(sigma.rank, constraints)


@st.composite
def cone_pairs(draw):
    """Two cones of rank 2-4 sharing some rays: the first a full cone of
    either determinant sign or one of its faces, the second spanned by some
    of those rays plus random primitive rays, full or lower-dimensional."""
    sigma = draw(full_cones())
    n = sigma.rank
    shared = draw(st.lists(st.sampled_from(sigma.generators), max_size=n - 1, unique=True))
    extra = draw(
        st.lists(primitive_vectors(n, 4), min_size=1, max_size=n - len(shared), unique=True)
    )
    try:
        tau = Cone(n, shared + extra)
    except DegenerateInputError:
        tau = Cone(n, extra[:1])
    if draw(st.booleans()):
        kept = set(shared) | set(draw(st.lists(st.sampled_from(sigma.generators), unique=True)))
        sigma = Cone(n, sorted(kept, key=lambda g: g.entries) or sigma.generators[:1])
    return draw(st.permutations([sigma, tau]))


class TestFacetCertificate:
    def test_matches_fraction_fourier_motzkin(self):
        seen = set()

        @given(cone_pairs())
        @settings(max_examples=400, deadline=None)
        def check(pair):
            sigma, tau = pair
            with mock.patch.object(
                cones_fans, "_fm_feasible", wraps=cones_fans._fm_feasible
            ) as fm:
                got = _meet_in_common_face(sigma, tau)
            want = reference_meet(sigma, tau)
            assert got == want == reference_meet(tau, sigma)
            # common rays substituted or passed as paired inequalities
            assert got == paired_meet(sigma, tau) == _meet_in_common_face(tau, sigma)
            assert validate_fan(Fan(sigma.rank, [sigma, tau])) == want
            full = sigma.is_full_dimensional() and tau.is_full_dimensional()
            shared = bool(set(sigma.generators) & set(tau.generators))
            seen.add((want, fm.called, full, shared))

        check()
        # the rows run only inside validate_fan, so invalid pairs, also of
        # two full cones, and valid ones reach the elimination here, with
        # and without common rays
        assert (False, True, True) in {s[:3] for s in seen}
        assert (True, True) in {s[:2] for s in seen}
        assert {(want, shared) for want, _, _, shared in seen} == {
            (a, b) for a in (True, False) for b in (True, False)
        }

    def test_pair_no_row_settles_validates(self):
        # two cones of the resolved 1/97(1,13,41) fan
        sigma = Cone(3, [(-51, -36, 70), (-44, -31, 61), (-34, -24, 47)])
        tau = Cone(3, [(-34, -24, 47), (-24, -17, 33), (-17, -12, 24)])
        with mock.patch.object(
            cones_fans, "_fm_feasible", wraps=cones_fans._fm_feasible
        ) as fm:
            assert _meet_in_common_face(sigma, tau)
            assert validate_fan(Fan(3, [sigma, tau]))
        assert fm.call_count == 2

    def test_a_moved_rank4_cone_is_rejected(self):
        fan = resolve(marked_fan_from_characters(8, (4, 3, 2, 7))).final.fan
        assert validate_fan(fan)
        cones = fan.sorted_cones()
        # sigma and tau share a facet; sigma's other ray g is pushed past it,
        # along tau's other ray h, so that sigma overlaps tau
        sigma, tau = next(
            (a, b)
            for a, b in itertools.combinations(cones, 2)
            if len(set(a.generators) & set(b.generators)) == 3
        )
        (g,) = set(sigma.generators) - set(tau.generators)
        (h,) = set(tau.generators) - set(sigma.generators)
        row = sigma.cofactors[sigma.generators.index(g)]  # zero on the facet

        def side(v):
            return sum(a * b for a, b in zip(row, v))

        assert side(g) > 0 > side(h)
        k = side(g) // -side(h) + 1
        moved_ray = primitive(IntegerVector([x + k * y for x, y in zip(g, h)]))
        assert side(moved_ray) < 0
        moved = Cone(4, [moved_ray if v == g else v for v in sigma.generators])
        assert not _meet_in_common_face(moved, tau)
        assert not paired_meet(moved, tau)
        rest = [c for c in cones if c != sigma]
        assert validate_fan(Fan(4, rest))
        assert not validate_fan(Fan(4, [*rest, moved]))


def reference_fm_feasible(num_vars, constraints):
    """``_fm_feasible`` as it was before it chose the variable, dropped rows
    by Chernikov's rule and decided on zero rows: every variable in order,
    every pair combined."""
    system = set(constraints)
    for k in range(num_vars):
        pos, neg, rest = [], [], set()
        for coeffs, rhs in system:
            if coeffs[k] > 0:
                pos.append((coeffs, rhs))
            elif coeffs[k] < 0:
                neg.append((coeffs, rhs))
            else:
                rest.add((coeffs, rhs))
        for (cp, rp) in pos:
            for (cn, rn) in neg:
                # cp[k] * cn - cn[k] * cp eliminates w_k with a positive combination
                a, b = cp[k], -cn[k]
                coeffs = tuple(b * x + a * y for x, y in zip(cp, cn))
                rhs = b * rp + a * rn
                g = math.gcd(*coeffs, rhs) or 1
                rest.add((tuple(x // g for x in coeffs), rhs // g))
        system = rest
    return all(rhs <= 0 for _, rhs in system)


@st.composite
def fm_systems(draw):
    """Systems of up to 8 rows in 1-4 variables, small entries, so that both
    verdicts, zero rows and repeated rows come up."""
    n = draw(st.integers(1, 4))
    bound = draw(st.sampled_from([1, 3, 9]))
    row = st.tuples(
        st.lists(st.integers(-bound, bound), min_size=n, max_size=n).map(tuple),
        st.integers(-2, 2),
    )
    return n, draw(st.lists(row, max_size=8))


# the final fans of the CASES types of test_resolution_engine.py and of
# three types whose traces tests/pins.py pins; 1/131(1,7,19,31) is left out,
# as its 14,523 cones send about 1.6 million systems to the elimination
FM_FANS = [
    (31, (1, 5, 11), 0),
    (13, (1, 3, 5, 7), 0),
    (12, (1, 5, 7), 2),
    (18, (10, 15, 11), 3),
    (45, (19, 17, 32), 5),
    (7, (3, 1), 0),
    (50, (13, 1), 0),
    (101, (37, 1), 0),
    (1009, (400, 1), 0),
    (1009, (1, 400, 617), 0),
    (101, (1, 7, 19, 31), 0),
    (286861, (1, 282801), 0),
]


class TestFourierMotzkin:
    # infeasible systems where two equal rows with different sets of input
    # rows arise: keeping only one of them, with its set, loses the
    # contradiction under Chernikov's rule
    @example(
        (
            3,
            [((2, 0, 1), 0), ((0, 1, 2), -1), ((1, -2, 0), 0), ((1, 1, -2), 0)]
            + [((-1, 2, -2), 2), ((0, 0, -2), -1), ((-1, -2, -1), 0)],
        )
    )
    @example(
        (
            3,
            [((0, 0, -1), -1), ((2, 2, -1), 0), ((2, -2, 2), -1), ((-2, 2, -1), 2)]
            + [((2, 0, 2), -1), ((-2, -1, -2), 1), ((-2, 0, 1), 0)],
        )
    )
    @example((2, [((1, 0), 1), ((-1, 0), 0)]))
    @example((3, [((0, 0, 0), 1)]))
    @example((3, [((0, 0, 0), 0), ((1, -1, 0), 1)]))
    @given(fm_systems())
    @settings(max_examples=600, deadline=None)
    def test_matches_the_plain_elimination(self, system):
        n, rows = system
        assert cones_fans._fm_feasible(n, rows) == reference_fm_feasible(n, rows)

    def test_fan_check_systems_match_the_plain_elimination(self, monkeypatch):
        # every system validate_fan sends to the elimination for these fans,
        # and, for every hundredth, the system with one row contradicted (the
        # plain elimination takes about 0.15 s on each of those)
        systems = []
        real = cones_fans._fm_feasible

        def recording(n, rows):
            systems.append((n, list(rows)))
            return real(n, rows)

        monkeypatch.setattr(cones_fans, "_fm_feasible", recording)
        for case in FM_FANS:
            assert validate_fan(resolve(marked_fan_from_characters(*case)).final.fan)
        assert len(systems) > 7000
        for n, rows in systems:
            assert real(n, rows) is reference_fm_feasible(n, rows) is True
        for n, rows in systems[::100]:
            coeffs, rhs = rows[-1]
            rows = [*rows, (tuple(-x for x in coeffs), 1 - rhs)]
            assert real(n, rows) is reference_fm_feasible(n, rows) is False


ORTHANT = Cone(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])


def reference_sign_masks(rows, rays):
    """The masks of ``_sign_masks`` one dot product at a time, as
    ``validate_fan`` made them before it packed the rays into lanes: each
    row and its negative with the mask of the rays it is negative on."""
    out = {}
    high_to_low = [r.entries for r in reversed(rays)]
    for key in rows:
        if key not in out:
            dots = [sum(a * b for a, b in zip(key, e)) for e in high_to_low]
            out[key] = int("".join(["01"[x < 0] for x in dots]), 2)
            out[tuple(-x for x in key)] = int("".join(["01"[x > 0] for x in dots]), 2)
    return out


def fan_rows(fan):
    """Every cofactor row of the fan scaled to a primitive row, in the order
    ``validate_fan`` passes them to ``_sign_masks``."""
    return [
        tuple(x // math.gcd(*row) for x in row)
        for c in fan.sorted_cones()
        for row in c.cofactors
    ]


BIG = st.integers(-(2**64), 2**64)


@st.composite
def rows_and_rays(draw):
    """Rows and rays of rank 2-5 with entries up to 2^64 of both signs,
    plus rows whose dot with a drawn ray is exactly -1, 0 or 1, where the
    lanes' sign bits change: such a ray ends in 1 and the row's last entry
    makes up the dot."""
    n = draw(st.integers(2, 5))
    vectors = st.lists(BIG, min_size=n, max_size=n).filter(any)
    rays = draw(st.lists(vectors, min_size=1, max_size=8))
    rows = draw(st.lists(vectors, min_size=1, max_size=4))
    for _ in range(draw(st.integers(0, 4))):
        ray = draw(st.sampled_from(rays))
        ray[-1] = 1
        head = draw(st.lists(BIG, min_size=n - 1, max_size=n - 1))
        dot = draw(st.sampled_from([-1, 0, 1]))
        rows.append(head + [dot - sum(a * b for a, b in zip(head, ray))])
    return n, [tuple(row) for row in rows], [IntegerVector(r) for r in rays]


class TestSignMaskFanCheck:
    # rays on a facet hyperplane of the orthant, through its 2-face: a row
    # that is only nonpositive there must not settle the pair
    @example((3, [ORTHANT, Cone(3, [(1, 1, 0)])]))
    @example((3, [ORTHANT, Cone(3, [(1, 1, 0), (0, 0, -1)])]))
    @given(st.one_of(mixed_cone_lists(), subdivided_fans()))
    @settings(max_examples=300, deadline=None)
    def test_matches_pairwise_reference(self, data):
        n, cones = data
        fan = Fan(n, cones)
        pairs = itertools.combinations(fan.sorted_cones(), 2)
        assert validate_fan(fan) == all(reference_meet(a, b) for a, b in pairs)

    def test_few_pairs_reach_the_exact_check(self, monkeypatch):
        # the 103-cone fan has 5,253 pairs; the ray masks settle all but 6
        fan = resolve(marked_fan_from_characters(97, (1, 13, 41))).final.fan
        calls = []
        real = cones_fans._meet_in_common_face

        def counting(sigma, tau):
            calls.append((sigma, tau))
            return real(sigma, tau)

        monkeypatch.setattr(cones_fans, "_meet_in_common_face", counting)
        assert len(fan.cones) == 103
        assert validate_fan(fan)
        assert len(calls) <= 50

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_fans_without_rays_are_valid(self, n):
        # no rows and no rays: nothing to pack into lanes
        assert validate_fan(Fan(n, []))
        assert validate_fan(Fan(n, [Cone(n, [])]))

    @given(st.one_of(mixed_cone_lists(max_rank=5), subdivided_fans()))
    @settings(max_examples=200, deadline=None)
    def test_lane_masks_equal_the_dot_products_on_fans(self, data):
        # equal masks give equal blocks, so the same pairs reach
        # _meet_in_common_face as with one dot product per row and ray
        n, cones = data
        fan = Fan(n, cones)
        rows, rays = fan_rows(fan), fan.rays()
        assert cones_fans._sign_masks(n, rows, rays) == reference_sign_masks(rows, rays)

    @example((2, [(1, 1)], [IntegerVector(v) for v in [(1, 0), (0, -1), (1, -1)]]))
    @example((3, [(2**64, 1, -(2**64))], [IntegerVector((1, 0, 1)), IntegerVector((1, -1, 1))]))
    @given(rows_and_rays())
    @settings(max_examples=300, deadline=None)
    def test_lane_masks_equal_the_dot_products_at_the_sign_boundaries(self, data):
        n, rows, rays = data
        assert cones_fans._sign_masks(n, rows, rays) == reference_sign_masks(rows, rays)

    def test_large_fan_validates_and_rejects_an_overlapping_cone(self):
        fan = resolve(marked_fan_from_characters(211, (1, 37, 101))).final.fan
        assert len(fan.cones) == 1115
        assert validate_fan(fan)
        # a cone from the interior of one cone to that of another sharing no
        # ray with it meets both outside any common face
        cones = fan.sorted_cones()
        sigma = cones[0]
        tau = next(c for c in cones[1:] if not set(c.generators) & set(sigma.generators))
        inner = [primitive(IntegerVector(combine(c, [1] * c.dim))) for c in (sigma, tau)]
        assert not validate_fan(Fan(fan.rank, [*cones, Cone(fan.rank, inner)]))
