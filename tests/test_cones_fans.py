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


class TestStarSubdivide:
    def test_interior_point_of_singular_cone(self):
        f = Fan(2, [C(E1, (-1, 3))])
        out = star_subdivide(f, IntegerVector(E2))
        assert out.cones == frozenset({C(E1, E2), C(E2, (-1, 3))})

    def test_existing_ray_is_noop(self):
        f = Fan(2, [C(E1, E2)])
        assert star_subdivide(f, IntegerVector(E1)) == f

    def test_smooth_corner_blowup(self):
        f = Fan(2, [C(E1, E2)])
        out = star_subdivide(f, IntegerVector((1, 1)))
        assert out.cones == frozenset({C(E1, (1, 1)), C(E2, (1, 1))})

    def test_outside_support(self):
        f = Fan(2, [C(E1, E2)])
        with pytest.raises(SupportError):
            star_subdivide(f, IntegerVector((-1, -1)))

    def test_non_primitive_rejected(self):
        f = Fan(2, [C(E1, E2)])
        with pytest.raises(DegenerateInputError):
            star_subdivide(f, IntegerVector((2, 2)))

    def test_point_in_shared_face_subdivides_both_sides(self):
        shared = (0, 0, 1)
        f = Fan(3, [C((1, 0, 0), (0, 1, 0), shared), C((1, 0, 0), (0, -1, 0), shared)])
        u = IntegerVector((1, 0, 1))  # interior to the shared face <e1, e3>
        out = star_subdivide(f, u)
        assert len(out.cones) == 4
        assert validate_fan(out)


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
        out = star_subdivide(f, IntegerVector(u))
        for p in lattice_points_in_box(cone.rank, 3):
            assert any(c.contains(p) for c in f.cones) == any(
                c.contains(p) for c in out.cones
            )

    def test_chart_multiplicities_from_barycentrics(self):
        # multiplicities of the pieces are coordinate * multiplicity
        cone = C(E1, (-2, 5))
        u = IntegerVector(E2)  # coordinates (2/5, 1/5)
        out = star_subdivide(Fan(2, [cone]), u)
        assert sorted(multiplicity(c) for c in out.cones) == [1, 2]

    def test_validity_preserved(self):
        f = Fan(2, [C(E1, E2), C(E2, (-1, 0))])
        assert validate_fan(f)
        out = star_subdivide(f, IntegerVector((1, 1)))
        assert validate_fan(out)
        out = star_subdivide(out, IntegerVector((-1, 1)))
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
        out = star_subdivide(Fan(2, [cone]), u)
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
