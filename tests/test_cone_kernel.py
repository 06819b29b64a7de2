"""The integer cone kernel against the rational reference it replaced.

Every cone, full-dimensional or not, answers ``numerators``, ``contains``,
``multiplicity`` and star subdivision from one cached
minor ``det`` on its first column basis and its cofactor rows, builds the
pieces of a subdivision from the parent's rows, and settles most pairs of
the fan check with one cofactor row, run as bit masks of its signs on the
rays of the fan.  These tests compare every answer with the ``Fraction``
elimination of ``span_coordinates`` and ``matrix_rank``, the constructor's
own elimination (and its closed forms with the Bareiss elimination), the
Smith normal form, the all-pairs maximality rule, the
one-ray-at-a-time reference subdivision and the ``Fraction``
Fourier-Motzkin fan check written out below, on cones of rank 2-5 and of
every dimension.
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
from qres.errors import DegenerateInputError, MeasureError
from qres.exact_lattice import (
    IntegerMatrix,
    IntegerVector,
    adjugate,
    bareiss_adjugate,
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

    def test_lower_dimensional_pieces_take_the_rank_one_update(self):
        c = Cone(3, [(1, 0, 0), (-1, 2, 0)])
        pieces = _subdivide_cone(c, IntegerVector((0, 1, 0)))
        want = {Cone(3, [(0, 1, 0), (-1, 2, 0)]), Cone(3, [(1, 0, 0), (0, 1, 0)])}
        assert set(pieces) == want
        for p in pieces:
            (q,) = [w for w in want if w == p]
            assert p.det == q.det == 1
            assert p.cofactors == q.cofactors


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
def mixed_cone_lists(draw):
    """Full cones of one rank plus some of their faces and stray lower cones."""
    n = draw(st.integers(2, 4))
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
    """A cone collection and rays inside its cones, each with the cone it was
    drawn in.  The collection is either full cones plus stray lower cones,
    which may overlap, or a valid fan from :func:`subdivided_fans`."""
    n, cones = draw(st.one_of(mixed_cone_lists(), subdivided_fans()))
    rays, sources = [], []
    for _ in range(draw(st.integers(1, 4))):
        c = draw(st.sampled_from(sorted(cones, key=Cone.sort_key)))
        coeffs = draw(
            st.lists(st.integers(0, 3), min_size=c.dim, max_size=c.dim).filter(any)
        )
        v = [sum(k * g.entries[i] for k, g in zip(coeffs, c.generators)) for i in range(n)]
        rays.append(primitive(IntegerVector(v)))
        sources.append(c)
    return n, cones, rays, sources


class TestStarSubdivide:
    @given(fan_and_rays())
    @settings(max_examples=160, deadline=None)
    def test_matches_reference_subdivision(self, data):
        n, cones, rays, sources = data
        fan = Fan(n, cones)
        expected = fan.cones
        applied, hints = [], []
        for u, source in zip(rays, sources):
            if not any(reference_contains(c, u) for c in expected):
                continue  # the ray left the support after an earlier step
            fan = star_subdivide(fan, u)
            expected = reference_star(expected, u)
            assert fan.cones == expected
            applied.append(u)
            hints.append(source)
        # the same rays in one call, without hints and, on a valid fan, with
        # each ray's source cone (which may be stale by then) as its hint
        start = Fan(n, cones)
        assert star_subdivide(start, *applied).cones == expected
        if validate_fan(start):
            assert star_subdivide(start, *applied, hints=hints).cones == expected

    def test_hinted_batch_takes_the_local_path(self, monkeypatch):
        c = Cone(3, [(1, 0, 0), (0, 1, 0), (-1, -5, 31)])
        # e1 + e2 and e2 + w lie on faces of c; e1 + e2 + w inside it, whose
        # minimal face (c itself) the first ray has split by then
        rays = [IntegerVector(v) for v in [(1, 1, 0), (-1, -4, 31), (0, -4, 31)]]
        found = []
        real = cones_fans._face_star

        def recording(index, hint, u):
            out = real(index, hint, u)
            found.append(len(out))
            return out

        monkeypatch.setattr(cones_fans, "_face_star", recording)
        out = star_subdivide(Fan(3, [c]), *rays, hints=[c, c, c])
        assert out.cones == functools.reduce(reference_star, rays, frozenset([c]))
        assert found == [1, 1, 0]

    def test_iterated_subdivision_of_a_rank3_cone(self):
        c = Cone(3, [(1, 0, 0), (0, 1, 0), (-1, -5, 31)])
        fan, expected = Fan(3, [c]), frozenset([c])
        for coeffs in itertools.product(range(1, 3), repeat=3):
            v = [sum(k * g.entries[i] for k, g in zip(coeffs, c.generators)) for i in range(3)]
            u = primitive(IntegerVector(v))
            fan = star_subdivide(fan, u)
            expected = reference_star(expected, u)
            assert fan.cones == expected


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
            assert validate_fan(Fan(sigma.rank, [sigma, tau])) == want
            full = sigma.is_full_dimensional() and tau.is_full_dimensional()
            seen.add((want, fm.called, full))

        check()
        # the rows run only inside validate_fan, so invalid pairs, also of
        # two full cones, and valid ones reach the elimination here
        assert (False, True, True) in seen
        assert (True, True) in {(want, fallback) for want, fallback, _ in seen}

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


ORTHANT = Cone(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])


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
