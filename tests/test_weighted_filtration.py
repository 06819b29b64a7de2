import importlib
import itertools
import math
import pkgutil
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qres
from qres import cli, weighted_filtration
from qres.errors import DimensionError, GluePreconditionError, QresError
from qres.exact_lattice import IntegerVector
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
    _term_pools,
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

import pins


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

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_order_one_divisor_has_weight_one_mod_one(self, n):
        # the filtration stores every weight mod 1, so the divisor's weight 1
        # is 0; every monomial is invariant and every substitution glues
        w = WeightedFiltration(1, (1,) * n)
        assert w.weights == (0,) * n
        rng = Random(0)
        for _ in range(3):
            phi = sample_divisor_fixing_automorphism(w, rng)
            assert glue_check(w, phi, 12) is True
            assert brute_force_glue_check(w, phi, 12) is True

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


def is_prime_by_trial(n):
    return n >= 2 and all(n % f for f in range(2, math.isqrt(n) + 1))


class TestSmallestPrimeWithRoots:
    def test_equals_the_scan_by_definition(self):
        for order in range(1, 300):
            p = next(
                p for p in itertools.count(2) if is_prime_by_trial(p) and p % order == 1 % order
            )
            assert smallest_prime_with_roots(order) == p, order

    def test_large_order_tries_only_residues_one(self, monkeypatch):
        # 4,200,127 = 42 * 100003 + 1; a scan over every integer from 2
        # would need millions of primality tests
        calls = []

        def counting_is_prime(n):
            calls.append(n)
            if len(calls) > 300:
                raise AssertionError("more than 300 primality tests")
            return is_prime_by_trial(n)

        monkeypatch.setattr(weighted_filtration, "_is_prime", counting_is_prime)
        assert smallest_prime_with_roots(100003) == 4_200_127
        assert all(n % 100003 == 1 for n in calls)


GLUE_LITERALS = ["1/11(2,5,3,1)", "1/7(1,3,1)"]


def sampled_and_moved_cases(literal):
    """``(w, psi, k_max)`` for substitutions the sampler draws for the
    divisor of ``literal``, each followed by its moved variant: adding the
    divisor coordinate (weight 1) to the image of the heaviest coordinate is
    divisor-fixing but not action-compatible."""
    order, chars = parse_quotient_literal(literal)
    w = WeightedFiltration(order, unit_weights(order, chars, len(chars) - 1))
    heavy = max(range(w.rank), key=lambda i: w.weights[i])
    divisor = tuple(int(j == w.rank - 1) for j in range(w.rank))
    rng = Random(literal)
    for k_max, truncation in [(3, 12), (12, 12), (14, 6)]:
        for _ in range(6):
            phi = sample_divisor_fixing_automorphism(w, rng, truncation=truncation)
            images = [phi.image_poly(i) for i in range(phi.rank)]
            images[heavy][divisor] = 1
            moved = TruncatedAutomorphism(images, phi.modulus, phi.truncation)
            yield w, phi, k_max
            yield w, moved, k_max


class TestGlueCriterion:
    """The valuation criterion of ``glue_check`` against the brute-force
    substitution of every generator of every ``I_k``."""

    def teardown_method(self):
        substitute.cache_clear()

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

    @pytest.mark.parametrize("literal", GLUE_LITERALS)
    def test_sampled_substitutions(self, literal):
        verdicts = set()
        for w, psi, k_max in sampled_and_moved_cases(literal):
            got = glue_check(w, psi, k_max)
            assert got == brute_force_glue_check(w, psi, k_max)
            verdicts.add(got)
        assert verdicts == {True, False}

    def test_glue_check_does_no_polynomial_arithmetic(self, monkeypatch):
        # verdicts by brute force first, then again with the polynomial
        # routines disabled: sampled substitutions, their moved variants and
        # random ones that need not be action-compatible
        cases = [case for literal in GLUE_LITERALS for case in sampled_and_moved_cases(literal)]
        rng = Random(2)
        for _ in range(200):
            w, phi, k_max = random_glue_case(rng)
            if phi.fixes_divisor() and phi.is_local():
                cases.append((w, phi, k_max))
        verdicts = [brute_force_glue_check(*case) for case in cases]
        assert set(verdicts) == {True, False}

        def forbidden(*args, **kwargs):
            raise AssertionError("glue_check must not multiply polynomials")

        monkeypatch.setattr(weighted_filtration, "_poly_mul", forbidden)
        monkeypatch.setattr(weighted_filtration, "substitute", forbidden)
        substitute.cache_clear()
        for case, verdict in zip(cases, verdicts):
            assert glue_check(*case) is verdict


class TestTruncatedAutomorphismEdges:
    """What the constructor stores and what ``unit_part`` reads, pinned
    from the generator-based implementation."""

    def test_repeated_exponents_are_summed(self):
        # the sequence form may repeat an exponent: its coefficients are
        # summed mod p, in either order, and unit_part reads the sum
        for terms in ([((1, 0), 5), ((1, 0), 3)], [((1, 0), 3), ((1, 0), 5)]):
            phi = TruncatedAutomorphism([terms, [((0, 1), 1)]], 7, 12)
            assert phi.images[0] == (((1, 0), 1),)
            assert phi.unit_part(0) == 1 == phi.image_poly(0)[(1, 0)]

    def test_exponent_of_total_degree_one_is_not_the_unit(self):
        phi = TruncatedAutomorphism(
            [[((1, 1, -1), 2)], [((0, 1, 0), 1)], [((0, 0, 1), 1)]], 7, 12
        )
        assert phi.unit_part(0) == 0
        assert [phi.unit_part(i) for i in (1, 2)] == [1, 1]
        assert not phi.is_local()

    def test_exponents_are_stored_as_plain_tuples(self):
        phi = TruncatedAutomorphism(
            [[([1, 0], 2), (Monomial((1, 2)).exponents, 1)], {(0, 1): 1}], 7, 12
        )
        assert phi.images == ((((1, 0), 2), ((1, 2), 1)), (((0, 1), 1),))
        assert all(type(e) is tuple for img in phi.images for e, _ in img)
        vector = TruncatedAutomorphism([[(IntegerVector((1, 0)), 3)]], 7, 12)
        assert type(vector.images[0][0][0]) is tuple
        assert vector.images == ((((1, 0), 3),),)

    def test_coefficients_are_reduced_and_zeros_dropped(self):
        phi = TruncatedAutomorphism(
            [{(1, 0): 8, (2, 0): 7, (1, 1): -1}, [((0, 1), 1), ((0, 2), -14)]], 7, 12
        )
        assert phi.images == ((((1, 0), 1), ((1, 1), 6)), (((0, 1), 1),))

    def test_merged_terms_sort_by_exponent(self):
        terms = [((0, 2), 1), ((1, 0), 4), ((0, 1), 3), ((1, 0), 2), ((0, 1), 1)]
        phi = TruncatedAutomorphism([terms], 5, 12)
        assert phi.images == ((((0, 1), 4), ((0, 2), 1), ((1, 0), 1)),)

    def test_modulus_must_be_prime(self):
        with pytest.raises(QresError):
            TruncatedAutomorphism([{(1,): 1}], 8, 12)

    # p = 29 is the glue-check modulus of order 7, and 2 + 27 and 1 + 28
    # vanish mod 29: the images below are canonical only once merged

    def test_cancelling_light_terms_keep_the_filtration(self):
        # y^2 has weight 2 < 3 under 1/7(3,1), but its two terms cancel, so
        # phi is the identity and fixes every I_k
        w = WeightedFiltration(7, (3, 1))
        phi = TruncatedAutomorphism(
            [[((1, 0), 1), ((0, 2), 2), ((0, 2), 27)], [((0, 1), 1)]], 29, 12
        )
        assert phi.images == TruncatedAutomorphism.identity(2, 29, 12).images
        assert glue_check(w, phi, 12) is True
        assert brute_force_glue_check(w, phi, 12)

    def test_a_cancelling_unit_part_is_not_local(self):
        phi = TruncatedAutomorphism(
            [[((1, 0), 1), ((1, 0), 28), ((0, 2), 3)], [((0, 1), 1)]], 29, 12
        )
        assert phi.unit_part(0) == 0
        assert phi.is_local() is False

    def test_a_cancelling_pair_leaves_no_term(self):
        phi = TruncatedAutomorphism(
            [[((1, 0), 1), ((1, 1), 5), ((1, 1), 24)], [((0, 1), 1)]], 29, 12
        )
        assert phi.image_poly(0) == {(1, 0): 1}
        assert substitute(phi, (1, 0)) == (((1, 0), 1),)
        assert substitute(phi, (2, 1)) == (((2, 1), 1),)

    @given(
        st.integers(1, 4).flatmap(
            lambda n: st.lists(
                st.lists(
                    st.tuples(
                        st.lists(st.integers(-1, 2), min_size=n, max_size=n).map(tuple),
                        st.integers(-8, 8),
                    ),
                    max_size=4,
                ),
                min_size=n,
                max_size=n,
            )
        ),
        st.data(),
    )
    @settings(max_examples=300)
    def test_is_local_is_the_unit_part_rule(self, images, data):
        # the one-pass scan against its definition: every unit_part nonzero
        # and no term with the zero exponent, on images with repeated, zero,
        # negative and constant terms
        n = len(images)
        for i, img in enumerate(images):
            if data.draw(st.booleans()):
                img.append((tuple(int(j == i) for j in range(n)), data.draw(st.integers(1, 6))))
        phi = TruncatedAutomorphism(images, 7, 12)
        expected = all(phi.unit_part(i) for i in range(n)) and all(
            any(e) for img in phi.images for e, _ in img
        )
        assert phi.is_local() is expected


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("argv", sorted({argv for argv, _ in pins.GLUE_REPORTS}))
def test_glue_check_report_bytes(argv, seed):
    assert pins.glue_report((argv, seed)) == pins.GLUE_REPORTS[argv, seed]


@pytest.mark.parametrize("literal", ["1/1(0)", "1/1(0,0)", "1/1(5,3)"])
def test_glue_check_of_an_order_one_type_passes(literal, capsys):
    assert cli.main(["glue-check", literal, "--samples", "3"]) == 0
    out = capsys.readouterr().out
    assert out == "glue check: 3/3 substitutions preserve the filtration\n"


@pytest.mark.parametrize("key", sorted(pins.SAMPLED_IMAGES_SHA256))
def test_sampled_images_are_pinned(key):
    assert pins.sampled_images_sha256(key) == pins.SAMPLED_IMAGES_SHA256[key]


def draw_ranges():
    """1-70, the numbers around each power of two up to 2^65, and every range
    the sampler draws from for the glue-check types: ``q - 1`` for their
    moduli, the count of correction terms and each pool's length."""
    out = set(range(1, 71)) | {2**k + d for k in range(1, 66) for d in (-1, 0, 1)}
    out.add(weighted_filtration._MAX_EXTRA_TERMS + 1)
    for literal, truncation in [("1/11(2,5,3,1)", 12), ("1/7(1,3,1)", 14)]:
        order, chars = parse_quotient_literal(literal)
        w = WeightedFiltration(order, unit_weights(order, chars, len(chars) - 1))
        out.add(smallest_prime_with_roots(order) - 1)
        out.update(len(pool) for pool in _term_pools(w.weights, order, truncation) if pool)
    return sorted(out)


@pytest.mark.parametrize("seed", range(12))
def test_draws_follow_randrange(seed):
    # the sampler's rule against Random.randrange on one shared Mersenne
    # Twister state each: equal draws, and the same number of words read
    mine, theirs = Random(seed), Random(seed)
    draw = weighted_filtration._draw_below
    for n in draw_ranges() * 3:
        assert draw(mine.getrandbits, n, n.bit_length()) == theirs.randrange(n)
        assert 1 + draw(mine.getrandbits, n, n.bit_length()) == theirs.randrange(1, n + 1)
    assert mine.getstate() == theirs.getstate()


def reference_sample(w, rng, modulus, truncation):
    """The sampler as it was before it drew from ``getrandbits``: dicts of
    ``randrange`` draws handed to the public constructor."""
    q = modulus
    n = w.rank
    images = []
    for i, pool in enumerate(_term_pools(w.weights, w.order, truncation)):
        unit = (0,) * i + (1,) + (0,) * (n - i - 1)
        img = {unit: rng.randrange(1, q)}
        if pool:
            for _ in range(rng.randrange(weighted_filtration._MAX_EXTRA_TERMS + 1)):
                exps = pool[rng.randrange(len(pool))]
                coeff = rng.randrange(1, q)
                img[exps] = (img.get(exps, 0) + coeff) % q
        images.append({e: c for e, c in img.items() if c})
    return TruncatedAutomorphism(images, q, truncation)


@pytest.mark.parametrize(
    "literal, truncation",
    [
        ("1/11(2,5,3,1)", 12),
        ("1/7(1,3,1)", 14),
        ("1/5(2,1)", 9),
        ("1/13(1,3,5,7,1)", 5),
        ("1/3(1,1)", 2),
    ],
)
def test_sampled_parts_equal_the_public_constructor(literal, truncation):
    # the images _from_parts stores are those the public constructor builds
    # from the same dicts, drawn with randrange, including repeated terms
    # whose coefficients cancel mod q
    order, chars = parse_quotient_literal(literal)
    w = WeightedFiltration(order, unit_weights(order, chars, len(chars) - 1))
    for modulus in (2, 3, smallest_prime_with_roots(order)):
        mine, theirs = Random(literal), Random(literal)
        for _ in range(150):
            phi = sample_divisor_fixing_automorphism(
                w, mine, modulus=modulus, truncation=truncation
            )
            want = reference_sample(w, theirs, modulus, truncation)
            assert phi == want
            assert phi.images == TruncatedAutomorphism(
                [phi.image_poly(i) for i in range(phi.rank)], modulus, truncation
            ).images
            assert hash(phi) == hash(want)
        assert mine.getstate() == theirs.getstate()


def test_sampler_rejects_a_composite_modulus_before_drawing():
    w = WeightedFiltration(7, (5, 1))
    rng = Random(0)
    state = rng.getstate()
    for modulus in (8, 1, 0, -7):
        with pytest.raises(QresError, match=f"coefficient modulus {modulus} must be prime"):
            sample_divisor_fixing_automorphism(w, rng, modulus=modulus)
    assert rng.getstate() == state


def reference_simplex(n, bound):
    """Exponent tuples of length n with coordinate sum <= bound, the first
    coordinate varying slowest."""
    if n == 1:
        yield from ((e,) for e in range(bound + 1))
        return
    for head in range(bound + 1):
        for tail in reference_simplex(n - 1, bound - head):
            yield (head,) + tail


def reference_term_pool(weights, order, coordinate, bound):
    n = len(weights)
    unit = tuple(1 if j == coordinate else 0 for j in range(n))
    pool = []
    for exps in reference_simplex(n, bound):
        if sum(exps) == 0 or exps == unit:
            continue
        if sum(w * e for w, e in zip(weights, exps)) % order != weights[coordinate] % order:
            continue
        if coordinate == n - 1 and exps[n - 1] == 0:
            continue
        pool.append(exps)
    return tuple(pool)


@given(
    st.lists(st.integers(-60, 60), min_size=1, max_size=5),
    st.integers(1, 40),
    st.integers(1, 14),
)
@settings(max_examples=200, deadline=None)
def test_term_pools_equal_the_per_coordinate_filter(weights, order, bound):
    # same terms in the same order: the sampler's draws index into the pools
    weights = tuple(weights)
    pools = _term_pools(weights, order, bound)
    assert len(pools) == len(weights)
    for i, pool in enumerate(pools):
        assert pool == reference_term_pool(weights, order, i, bound), i


@pytest.mark.parametrize("case", sorted(pins.SIMPLEX_OUTPUT_SHA))
def test_simplex_enumerations_are_pinned(case):
    assert pins.simplex_sha(case) == pins.SIMPLEX_OUTPUT_SHA[case]


def test_every_cache_is_bounded():
    # every lru_cache of every qres module, not only this one's
    caches = {}
    for info in pkgutil.iter_modules(qres.__path__):
        mod = importlib.import_module(f"qres.{info.name}")
        for name, value in vars(mod).items():
            if hasattr(value, "cache_info") and getattr(value, "__module__", "") == mod.__name__:
                caches[f"{info.name}.{name}"] = value
    assert {
        "cones_fans.multiplicity",
        "quotient_classifier.cone_characters",
        "weighted_filtration._ideal_generators_cached",
        "weighted_filtration.substitute",
        "weighted_filtration._term_pools",
    } <= set(caches)
    for name, cache in caches.items():
        assert cache.cache_info().maxsize is not None, name


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
