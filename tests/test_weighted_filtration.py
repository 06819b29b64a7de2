import itertools
import math
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qres import cli
from qres.errors import DimensionError, GluePreconditionError
from qres.quotient_classifier import (
    CyclicQuotientType,
    parse_quotient_literal,
    quotient_to_cone,
    unit_weights,
)
from qres.weighted_filtration import (
    Monomial,
    TruncatedAutomorphism,
    WeightedFiltration,
    _image_power,
    cartify,
    dual_cone_points,
    glue_check,
    ideal_generators,
    invariant_generators,
    minimalize,
    sample_divisor_fixing_automorphism,
    smallest_prime_with_roots,
    substitute,
)


def M(*exps):
    return Monomial(exps)


def mono_set(*tuples):
    return frozenset(Monomial(t) for t in tuples)


class TestIdealGenerators:
    def test_power_of_maximal_ideal(self):
        w = WeightedFiltration(2, (1, 1))
        assert ideal_generators(w, 2) == mono_set((2, 0), (1, 1), (0, 2))

    def test_weighted(self):
        w = WeightedFiltration(5, (2, 1))
        assert ideal_generators(w, 2) == mono_set((1, 0), (0, 2))

    def test_degree_zero(self):
        w = WeightedFiltration(5, (2, 1))
        assert ideal_generators(w, 0) == mono_set((0, 0))

    def test_zero_weight_coordinate_excluded(self):
        w = WeightedFiltration(2, (0, 1))
        assert ideal_generators(w, 2) == mono_set((0, 2))

    @pytest.mark.parametrize("weights,order", [((2, 1), 5), ((1, 2), 3), ((3, 2, 1), 7)])
    def test_multiplicative(self, weights, order):
        w = WeightedFiltration(order, weights)
        for j, k in itertools.combinations_with_replacement(range(1, 8), 2):
            if j + k > 10:
                continue
            target = ideal_generators(w, j + k)
            for a in ideal_generators(w, j):
                for b in ideal_generators(w, k):
                    prod = a * b
                    assert any(g.divides(prod) for g in target)


class TestInvariantGenerators:
    def test_half(self):
        assert invariant_generators(2, (1, 1), 2) == mono_set((2, 0), (1, 1), (0, 2))

    def test_third(self):
        assert invariant_generators(3, (1, 1), 3) == mono_set((3, 0), (2, 1), (1, 2), (0, 3))

    def test_trivial(self):
        assert invariant_generators(1, (0, 0), 1) == mono_set((1, 0), (0, 1))

    def test_opposite_characters_give_three_generators(self):
        # invariants of (t x, t^{-1} y) are generated by x^l, y^l and x*y
        for l in (3, 5, 7):
            assert invariant_generators(l, (1, l - 1), l) == mono_set((l, 0), (0, l), (1, 1))


class TestDualConePoints:
    def test_smooth_chart(self):
        out = dual_cone_points(quotient_to_cone(CyclicQuotientType(1, (0, 0))), 1)
        assert out.minimal == mono_set((1, 0), (0, 1))

    def test_half_matches_invariants(self):
        q = CyclicQuotientType(2, (1, 1))
        out = dual_cone_points(quotient_to_cone(q), 2)
        assert out.minimal == invariant_generators(q.order, q.characters, 2)

    def test_requires_full_dimension(self):
        from qres.cones_fans import Cone

        with pytest.raises(DimensionError):
            dual_cone_points(Cone(3, [(1, 0, 0), (0, 1, 0)]), 2)

    def test_oracle_equality_sweep(self):
        # all small cyclic types with a unit character, order <= 6, rank <= 3;
        # the comparison tuple is the one aligned with the cone generators,
        # because chart exponents are dual to those generators
        from qres.quotient_classifier import cone_characters, pseudoreflections

        seen = set()
        for l in range(1, 7):
            for rank in (1, 2, 3):
                for chars in itertools.product(range(l), repeat=rank):
                    if math.gcd(l, *chars) != 1:
                        continue
                    if all(math.gcd(c, l) != 1 for c in chars):
                        continue
                    q = CyclicQuotientType(l, chars)
                    if q in seen:
                        continue
                    seen.add(q)
                    if pseudoreflections(q):
                        continue
                    cone = quotient_to_cone(q)
                    order, aligned = cone_characters(cone)
                    assert order == q.order
                    got = dual_cone_points(cone, 12).minimal
                    assert got == invariant_generators(order, aligned, 12), q


class TestGlueCheck:
    def setup_method(self):
        self.w = WeightedFiltration(5, (2, 1))
        self.prime = smallest_prime_with_roots(5)

    def test_identity(self):
        phi = TruncatedAutomorphism.identity(2, self.prime, 12)
        assert glue_check(self.w, phi, 12)

    def test_dominating_correction_term(self):
        # x -> x + x*y^5 has an action-compatible correction of higher weight
        phi = TruncatedAutomorphism(
            [{(1, 0): 1, (1, 5): 1}, {(0, 1): 1}], self.prime, 12
        )
        assert glue_check(self.w, phi, 12)

    def test_swap_is_rejected(self):
        # coordinate swap does not fix the divisor ideal
        w = WeightedFiltration(3, (1, 2))
        phi = TruncatedAutomorphism([{(0, 1): 1}, {(1, 0): 1}], 7, 12)
        with pytest.raises(GluePreconditionError):
            glue_check(w, phi, 12)

    def test_divisor_weight_must_be_one(self):
        w = WeightedFiltration(3, (1, 2))
        phi = TruncatedAutomorphism.identity(2, 7, 12)
        with pytest.raises(GluePreconditionError):
            glue_check(w, phi, 12)

    def test_incompatible_substitution_moves_the_filtration(self):
        # x -> x + y is divisor-fixing but not action-compatible; I_2 leaks
        phi = TruncatedAutomorphism(
            [{(1, 0): 1, (0, 1): 1}, {(0, 1): 1}], self.prime, 12
        )
        assert glue_check(self.w, phi, 12) is False

    def test_sampled_substitutions_preserve_filtration(self):
        rng = Random(7)
        for a in (1, 2, 3, 4):
            w = WeightedFiltration(5, (a, 1))
            for _ in range(25):
                phi = sample_divisor_fixing_automorphism(w, rng)
                assert glue_check(w, phi, 12)

    def test_substitute_truncates(self):
        phi = TruncatedAutomorphism(
            [{(1, 0): 1, (2, 3): 1}, {(0, 1): 1}], self.prime, 4
        )
        image = dict(substitute(phi, (2, 0)))
        assert all(sum(e) <= 4 for e in image)


def brute_force_glue_check(w, phi, k_max):
    """Reference verdict: substitute every minimal generator of every I_k,
    k <= k_max, and compare the weighted degrees of the image terms."""
    for k in range(1, k_max + 1):
        for gen in sorted(ideal_generators(w, k), key=lambda m: m.exponents):
            for exps, _coeff in substitute(phi, gen.exponents):
                if sum(a * e for a, e in zip(w.weights, exps)) < k:
                    return False
    return True


def random_glue_case(rng):
    """A filtration with divisor weight 1 (other weights may be 0) and a
    divisor-fixing local substitution whose correction terms need not be
    action-compatible and may exceed the truncation degree."""
    n = rng.randint(1, 4)
    order = rng.randint(2, 13)
    w = WeightedFiltration(order, [rng.randrange(order) for _ in range(n - 1)] + [1])
    truncation = rng.randint(0, 7)
    modulus = rng.choice((2, 3, 5, 7, 11))
    images = []
    for i in range(n):
        unit = tuple(int(j == i) for j in range(n))
        img = {unit: rng.randrange(1, modulus)}
        for _ in range(rng.randint(0, 3)):
            exps = [0] * n
            for _ in range(rng.randint(1, truncation + 2)):
                exps[rng.randrange(n)] += 1
            if i == n - 1 and exps[-1] == 0:
                exps[-1] = 1
            img[tuple(exps)] = img.get(tuple(exps), 0) + rng.randrange(1, modulus)
        images.append(img)
    phi = TruncatedAutomorphism(images, modulus, truncation)
    return w, phi, rng.randint(-1, 9)


class TestGlueCriterion:
    """The valuation criterion of ``glue_check`` against the brute-force
    substitution of every generator of every ``I_k``."""

    def teardown_method(self):
        substitute.cache_clear()
        _image_power.cache_clear()

    def test_random_filtrations_and_substitutions(self):
        rng = Random(1)
        verdicts = {True: 0, False: 0}
        for _ in range(600):
            w, phi, k_max = random_glue_case(rng)
            if not (phi.fixes_divisor() and phi.is_local()):
                continue
            got = glue_check(w, phi, k_max)
            assert got == brute_force_glue_check(w, phi, k_max), (w, phi, k_max)
            verdicts[got] += 1
        assert verdicts[True] >= 20 and verdicts[False] >= 20, verdicts

    @pytest.mark.parametrize("literal", ["1/11(2,5,3,1)", "1/7(1,3,1)"])
    def test_sampled_substitutions(self, literal):
        order, chars = parse_quotient_literal(literal)
        w = WeightedFiltration(order, unit_weights(order, chars, len(chars) - 1))
        # adding the divisor coordinate (weight 1) to the image of the
        # heaviest coordinate is divisor-fixing but not action-compatible
        heavy = max(range(w.rank), key=lambda i: w.weights[i])
        divisor = tuple(int(j == w.rank - 1) for j in range(w.rank))
        rng = Random(literal)
        verdicts = set()
        for k_max, truncation in [(3, 12), (12, 12), (14, 6)]:
            for _ in range(6):
                phi = sample_divisor_fixing_automorphism(w, rng, truncation=truncation)
                images = [phi.image_poly(i) for i in range(phi.rank)]
                images[heavy][divisor] = 1
                moved = TruncatedAutomorphism(images, phi.modulus, phi.truncation)
                for psi in (phi, moved):
                    got = glue_check(w, psi, k_max)
                    assert got == brute_force_glue_check(w, psi, k_max)
                    verdicts.add(got)
        assert verdicts == {True, False}


# JSON reports of `glue-check` at seeds 0-2 as produced by the brute-force
# substitution of every generator; sampling with the modulus computed once
# and the valuation criterion must reproduce them byte for byte
GLUE_REPORTS = {
    ("1/11(2,5,3,1)", "--samples", "40", "--kmax", "12"): (
        '{"ok":true,"passed":"40","samples":"40","seed":"%d","truncation":"12",'
        '"type":"1/11(2,5,3,1)"}\n'
    ),
    ("1/7(1,3,1)", "--kmax", "14"): (
        '{"ok":true,"passed":"100","samples":"100","seed":"%d","truncation":"14",'
        '"type":"1/7(1,3,1)"}\n'
    ),
}


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("argv", sorted(GLUE_REPORTS))
def test_glue_check_report_bytes(argv, seed, capsys):
    assert cli.main(["glue-check", *argv, "--seed", str(seed), "--json"]) == 0
    assert capsys.readouterr().out == GLUE_REPORTS[argv] % seed


class TestCartify:
    def test_unit_character_gives_trivial_cover(self):
        assert cartify(2, (1, 1), 0)[0] == 1

    def test_sixth_across_character_two(self):
        assert cartify(6, (1, 2, 3), 1) == (2, (1, 0, 1))

    def test_character_zero_unchanged(self):
        assert cartify(2, (0, 1, 1), 0) == (2, (0, 1, 1))

    def test_divisor_character_vanishes(self):
        for l, chars in [(6, (2, 3, 1)), (12, (4, 3, 1)), (8, (2, 4, 1))]:
            if math.gcd(l, *chars) != 1:
                continue
            for i in range(len(chars)):
                new_order, new_chars = cartify(l, chars, i)
                assert new_order == math.gcd(l, chars[i])
                assert new_chars[i] == 0 or new_order == l

    def test_idempotent_on_its_ray(self):
        l, chars = 12, (4, 3, 1)
        o1, c1 = cartify(l, chars, 0)
        o2, c2 = cartify(o1, c1, 0)
        assert (o1, c1) == (o2, c2)

    @given(
        st.integers(2, 20),
        st.lists(st.integers(0, 19), min_size=2, max_size=4),
        st.integers(1, 19),
        st.randoms(),
    )
    @settings(max_examples=150)
    def test_commutes_with_units_and_permutations(self, l, chars, u, rnd):
        chars = [c % l for c in chars]
        if math.gcd(l, *chars) != 1 or math.gcd(u, l) != 1:
            return
        idx = rnd.randrange(len(chars))
        perm = list(range(len(chars)))
        rnd.shuffle(perm)
        scaled = [(u * chars[p]) % l for p in perm]
        o1, c1 = cartify(l, tuple(chars), idx)
        o2, c2 = cartify(l, tuple(scaled), perm.index(idx))
        assert o1 == o2
        if o1 == 1:
            return
        assert CyclicQuotientType(o1, c1) == CyclicQuotientType(o2, c2)


class TestMinimalize:
    def test_keeps_incomparable(self):
        assert minimalize([M(2, 0), M(0, 2), M(1, 1)]) == mono_set((2, 0), (0, 2), (1, 1))

    def test_drops_multiples(self):
        assert minimalize([M(1, 0), M(2, 0), M(1, 1)]) == mono_set((1, 0))
