import math
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qres.cones_fans import Cone, Fan, multiplicity, validate_fan
from qres.errors import DegenerateInputError, InfiniteQuotientError, QresError
from qres.exact_lattice import IntegerMatrix, IntegerVector, smith_normal_form
from qres.hj_oracle import brute_quotient, hj_expansion, hj_rays


class TestExpansion:
    def test_two_one(self):
        assert hj_expansion(2, 1).coefficients == (2,)

    def test_five_two(self):
        assert hj_expansion(5, 2).coefficients == (3, 2)

    def test_single_term(self):
        for l in (3, 7, 50):
            assert hj_expansion(l, 1).coefficients == (l,)

    def test_rejects_non_coprime(self):
        with pytest.raises(QresError):
            hj_expansion(6, 2)
        with pytest.raises(QresError):
            hj_expansion(5, 5)

    def test_reconstruction_and_floor(self):
        for l in range(2, 51):
            for a in range(1, l):
                if math.gcd(a, l) != 1:
                    continue
                exp = hj_expansion(l, a)
                assert exp.reconstruct() == Fraction(l, a)
                assert all(b >= 2 for b in exp.coefficients)


class TestRays:
    def test_two_one(self):
        assert hj_rays(2, 1) == (IntegerVector([0, 1]),)

    def test_three_one(self):
        assert hj_rays(3, 1) == (IntegerVector([0, 1]),)

    def test_five_two(self):
        assert hj_rays(5, 2) == (IntegerVector([0, 1]), IntegerVector([-1, 3]))

    def test_ray_count_matches_expansion_length(self):
        for l in range(2, 51):
            for a in range(1, l):
                if math.gcd(a, l) != 1:
                    continue
                assert len(hj_rays(l, a)) == len(hj_expansion(l, a).coefficients)

    def test_smooth_subdivision_and_recursion(self):
        for l in range(2, 51):
            for a in range(1, l):
                if math.gcd(a, l) != 1:
                    continue
                rays = (IntegerVector([1, 0]),) + hj_rays(l, a) + (IntegerVector([-a, l]),)
                cones = [
                    Cone(2, [u, v]) for u, v in zip(rays, rays[1:])
                ]
                assert all(multiplicity(c) == 1 for c in cones)
                coeffs = hj_expansion(l, a).coefficients
                for i in range(1, len(rays) - 1):
                    left, mid, right = rays[i - 1], rays[i], rays[i + 1]
                    b = coeffs[i - 1]
                    assert left + right == b * mid
                if l <= 12:
                    assert validate_fan(Fan(2, cones))


class TestBruteQuotient:
    def test_trivial(self):
        assert brute_quotient(IntegerMatrix.identity(3)) == ()

    def test_cyclic_six(self):
        assert brute_quotient(IntegerMatrix([[2, 0], [0, 3]])) == (6,)

    def test_klein_four(self):
        assert brute_quotient(IntegerMatrix([[2, 0], [0, 2]])) == (2, 2)

    def test_singular_rejected(self):
        with pytest.raises(InfiniteQuotientError):
            brute_quotient(IntegerMatrix([[1, 1], [2, 2]]))

    def test_desk_scale_guard(self):
        with pytest.raises(DegenerateInputError):
            brute_quotient(IntegerMatrix([[101, 0], [0, 101]]))

    def test_agrees_with_smith_chain_fixed_seed(self):
        rng = Random(20240917)
        done = 0
        while done < 60:
            rows = [[rng.randint(-5, 5) for _ in range(3)] for _ in range(3)]
            m = IntegerMatrix(rows)
            try:
                chain = brute_quotient(m)
            except InfiniteQuotientError:
                continue
            assert chain == smith_normal_form(m).nontrivial
            done += 1

    @given(
        st.lists(st.lists(st.integers(-4, 4), min_size=2, max_size=2), min_size=2, max_size=2)
    )
    @settings(max_examples=80)
    def test_agrees_with_smith_chain_2x2(self, rows):
        m = IntegerMatrix(rows)
        try:
            chain = brute_quotient(m)
        except InfiniteQuotientError:
            return
        assert chain == smith_normal_form(m).nontrivial

    @pytest.mark.parametrize(
        "chain", [(2, 2, 2), (2, 6, 12), (3, 3, 6), (2, 2, 2, 2), (2, 2, 4, 12)]
    )
    def test_long_chains_behind_unimodular_changes(self, chain):
        # U * diag * V has the chain as its invariant factors for any
        # unimodular U and V; the other tests reach at most two factors
        rng = Random(repr(chain))
        for _ in range(25):
            n = rng.randint(len(chain), 4)
            diag = [1] * (n - len(chain)) + list(chain)
            d = IntegerMatrix([[diag[i] if i == j else 0 for j in range(n)] for i in range(n)])
            m = random_unimodular(rng, n) @ d @ random_unimodular(rng, n)
            assert brute_quotient(m) == chain
            assert smith_normal_form(m).nontrivial == chain


def random_unimodular(rng, n):
    """A product of random elementary row operations on the identity."""
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        rows[j] = [y + c * x for x, y in zip(rows[i], rows[j])]
        if rng.random() < 0.3:
            rows[i], rows[j] = rows[j], [-x for x in rows[i]]
    return IntegerMatrix(rows)
