import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qres.cones_fans import (
    Cone,
    Fan,
    faces,
    multiplicity,
    star_subdivide,
    validate_fan,
)
from qres.errors import DegenerateInputError, SupportError
from qres.exact_lattice import IntegerVector


def C(*gens):
    rank = len(gens[0]) if gens else 2
    return Cone(rank, gens)


E1 = (1, 0)
E2 = (0, 1)


class TestConeBasics:
    def test_canonical_generator_order(self):
        assert C(E1, E2) == C(E2, E1)

    def test_rejects_non_primitive(self):
        with pytest.raises(DegenerateInputError):
            C((2, 0), E2)

    def test_rejects_dependent(self):
        with pytest.raises(DegenerateInputError):
            C(E1, (-1, 0))

    def test_zero_cone(self):
        z = Cone(2, [])
        assert z.dim == 0 and multiplicity(z) == 1


class TestMultiplicity:
    def test_unimodular(self):
        assert multiplicity(C(E1, E2)) == 1

    def test_standard_singular(self):
        # <e1, l*e2 - a*e1> has index l for any a coprime to l
        for l, a in [(2, 1), (5, 2), (7, 3)]:
            assert multiplicity(C(E1, (-a, l))) == l

    def test_three_dim(self):
        assert multiplicity(C((1, 0, 0), (0, 1, 0), (-1, -1, 3))) == 3

    def test_saturation_for_lower_dim(self):
        # a 2-cone inside rank 3, index measured in its saturated span
        c = Cone(3, [(1, 0, 0), (-1, 2, 0)])
        assert multiplicity(c) == 2


class TestSmooth:
    def test_smooth(self):
        assert multiplicity(C(E1, E2)) == 1

    def test_singular(self):
        assert multiplicity(C(E1, (-1, 2))) != 1

    def test_det_one_skew(self):
        assert multiplicity(C(E2, (-1, 3))) == 1


class TestFaces:
    def test_ray(self):
        c = Cone(2, [E1])
        assert faces(c) == frozenset({Cone(2, []), c})

    def test_quadrant(self):
        got = faces(C(E1, E2))
        assert got == frozenset(
            {Cone(2, []), Cone(2, [E1]), Cone(2, [E2]), C(E1, E2)}
        )

    def test_powerset_count(self):
        c = C((1, 0, 0), (0, 1, 0), (0, 0, 1))
        assert len(faces(c)) == 8


def subdivide_in(c, u):
    """The star subdivision of the fan of the single cone ``c`` at ``u``."""
    return star_subdivide(Fan(c.rank, [c]), [IntegerVector(u)], [c])


class TestStarSubdivide:
    def test_interior_point_of_singular_cone(self):
        out = subdivide_in(C(E1, (-1, 3)), E2)
        assert out.cones == frozenset({C(E1, E2), C(E2, (-1, 3))})

    def test_existing_ray_is_noop(self):
        f = Fan(2, [C(E1, E2)])
        assert subdivide_in(C(E1, E2), E1) == f

    def test_smooth_corner_blowup(self):
        out = subdivide_in(C(E1, E2), (1, 1))
        assert out.cones == frozenset({C(E1, (1, 1)), C(E2, (1, 1))})

    def test_outside_support(self):
        with pytest.raises(SupportError):
            subdivide_in(C(E1, E2), (-1, -1))

    def test_non_primitive_rejected(self):
        with pytest.raises(DegenerateInputError):
            subdivide_in(C(E1, E2), (2, 2))

    def test_point_in_shared_face_subdivides_both_sides(self):
        shared = (0, 0, 1)
        sigma = C((1, 0, 0), (0, 1, 0), shared)
        f = Fan(3, [sigma, C((1, 0, 0), (0, -1, 0), shared)])
        u = IntegerVector((1, 0, 1))  # interior to the shared face <e1, e3>
        out = star_subdivide(f, [u], [sigma])
        assert len(out.cones) == 4
        assert validate_fan(out)

    def test_cone_not_containing_its_ray_is_an_error(self):
        # (1, 1) lies in the fan, but not in the cone that comes with it
        f = Fan(2, [C(E1, E2), C(E2, (-1, 0))])
        with pytest.raises(SupportError, match="does not lie in"):
            star_subdivide(f, [IntegerVector((1, 1))], [C(E2, (-1, 0))])

    def test_face_that_is_not_a_cone_of_the_fan_is_an_error(self):
        # <e1, e2> contains (1, 1), but after (1, 2) it is no cone of the fan
        sigma = C(E1, E2)
        rays = [IntegerVector((1, 2)), IntegerVector((1, 1))]
        with pytest.raises(SupportError, match="is not a cone of the fan"):
            star_subdivide(Fan(2, [sigma]), rays, [sigma, sigma])

    def test_absorbed_piece_is_an_error(self):
        # tau overlaps sigma in <e1, e2>, which is not a face of tau, so this
        # is no fan, and splitting tau at e2 makes <e1, e2>, a face of sigma
        sigma = C((1, 0, 0), (0, 1, 0), (0, 0, 1))
        tau = Cone(3, [(1, 0, 0), (-1, 1, 0)])
        f = Fan(3, [sigma, tau])
        assert f.cones == {sigma, tau}
        with pytest.raises(DegenerateInputError, match="absorbed"):
            star_subdivide(f, [IntegerVector((0, 1, 0))], [tau])
        # the other direction: rho lies inside sigma, and splitting sigma at
        # (1, 1, 0) makes the piece <e1, (1, 1, 0), e3>, which has rho as a
        # face; a check of the pieces alone would miss it
        rho = Cone(3, [(1, 1, 0), (0, 0, 1)])
        f = Fan(3, [sigma, rho])
        assert f.cones == {sigma, rho}
        with pytest.raises(DegenerateInputError, match="absorbed"):
            star_subdivide(f, [IntegerVector((1, 1, 0))], [sigma])


def lattice_points_in_box(rank, bound):
    return [
        IntegerVector(p)
        for p in itertools.product(range(-bound, bound + 1), repeat=rank)
        if any(p)
    ]


class TestStarSubdivideProperties:
    @pytest.mark.parametrize(
        "cone,u",
        [
            (C(E1, (-1, 3)), (0, 1)),
            (C(E1, (-2, 5)), (0, 1)),
            (C(E1, E2), (1, 2)),
            (C((1, 0, 0), (0, 1, 0), (-1, -1, 3)), (0, 0, 1)),
        ],
    )
    def test_support_preserved(self, cone, u):
        f = Fan(cone.rank, [cone])
        out = subdivide_in(cone, u)
        for p in lattice_points_in_box(cone.rank, 3):
            assert any(c.contains(p) for c in f.cones) == any(
                c.contains(p) for c in out.cones
            )

    def test_chart_multiplicities_from_barycentrics(self):
        # multiplicities of the pieces are coordinate * multiplicity
        cone = C(E1, (-2, 5))
        out = subdivide_in(cone, E2)  # coordinates (2/5, 1/5)
        assert sorted(multiplicity(c) for c in out.cones) == [1, 2]

    def test_validity_preserved(self):
        f = Fan(2, [C(E1, E2), C(E2, (-1, 0))])
        assert validate_fan(f)
        out = star_subdivide(f, [IntegerVector((1, 1))], [C(E1, E2)])
        assert validate_fan(out)
        out = star_subdivide(out, [IntegerVector((-1, 1))], [C(E2, (-1, 0))])
        assert validate_fan(out)

    @given(st.lists(st.integers(1, 5), min_size=2, max_size=2))
    @settings(max_examples=30)
    def test_random_interior_subdivision_stays_valid(self, coeffs):
        from qres.exact_lattice import primitive

        cone = C(E1, (-3, 7))
        u = primitive(
            IntegerVector(
                [
                    coeffs[0] * 1 + coeffs[1] * -3,
                    coeffs[1] * 7,
                ]
            )
        )
        out = subdivide_in(cone, u)
        assert validate_fan(out)
        total = sum(multiplicity(c) for c in out.cones if c.dim == 2)
        assert total <= multiplicity(cone) * (coeffs[0] + coeffs[1])


class TestValidateFan:
    def test_single_cone(self):
        assert validate_fan(Fan(2, [C(E1, (-1, 3))]))

    def test_shared_ray(self):
        assert validate_fan(Fan(2, [C(E1, E2), C(E2, (-1, 0))]))

    def test_overlap_not_a_face(self):
        f = Fan(2, [C(E1, E2), C((1, 1), (-1, 0))])
        assert not validate_fan(f)

    def test_face_absorption(self):
        f = Fan(2, [C(E1, E2), Cone(2, [E1])])
        assert f.cones == frozenset({C(E1, E2)})
