import dataclasses
import itertools
import json
import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qres import cli, cones_fans, fanfile
from qres.cones_fans import Cone, Fan, faces, multiplicity
from qres.errors import NotRepresentableError, QresError, UnsupportedInputError
from qres.exact_lattice import IntegerMatrix, smith_normal_form
from qres.quotient_classifier import (
    CyclicQuotientType,
    QuotientDescriptor,
    _canonical_characters,
    _is_prime,
    _prime_factors,
    _pseudoreflection_gcd,
    _snf_characters,
    _validate_characteristic,
    cone_characters,
    cone_descriptor,
    is_tame,
    parse_quotient_literal,
    pseudoreflection_reduce,
    pseudoreflections,
    quotient_to_cone,
    standard_cone,
    unit_weights,
)
from qres.resolution_engine import MarkedFan, marked_fan_from_characters, resolve


def Q(order, *chars):
    return CyclicQuotientType(order, chars)


valid_type = st.integers(1, 24).flatmap(
    lambda l: st.lists(st.integers(0, l - 1) if l > 1 else st.just(0), min_size=1, max_size=3)
    .filter(lambda chars: math.gcd(l, *chars) == 1)
    .map(lambda chars: (l, tuple(chars)))
)


class TestCanonicalForm:
    def test_examples(self):
        assert Q(5, 2, 1).characters == (1, 2)
        assert Q(6, 2, 3, 1).characters == (1, 2, 3)
        assert Q(1, 0, 0).characters == (0, 0)

    def test_rejects_unfaithful(self):
        with pytest.raises(QresError):
            Q(4, 2, 2)

    @pytest.mark.parametrize(
        "order, chars",
        [(0, ()), (0, (1,)), (-3, (1, 2)), (4, ()), (4, (2, 2)), (4, (6, 2)), (6, (3, -3))],
    )
    def test_constructor_and_literal_reject_alike(self, order, chars):
        with pytest.raises(QresError) as from_literal:
            parse_quotient_literal(f"1/{order}({','.join(map(str, chars))})")
        with pytest.raises(QresError) as from_constructor:
            CyclicQuotientType(order, chars)
        assert type(from_literal.value) is type(from_constructor.value)
        assert str(from_literal.value) == str(from_constructor.value)

    @given(valid_type, st.integers(1, 23), st.randoms())
    @settings(max_examples=200)
    def test_well_defined_under_units_and_permutations(self, lt, u, rnd):
        l, chars = lt
        if math.gcd(u, l) != 1:
            return
        scaled = [(u * c) % l for c in chars]
        rnd.shuffle(scaled)
        assert Q(l, *scaled) == Q(l, *chars)

    @given(
        st.integers(1, 400).flatmap(
            lambda l: st.tuples(
                st.just(l),
                st.lists(st.integers(-2 * l, 2 * l), min_size=1, max_size=5),
                st.sampled_from([1, 2, 3, 4, 6]),
            )
        )
    )
    @settings(max_examples=300)
    def test_matches_scan_over_all_units(self, data):
        l, chars, k = data
        chars = [k * c for c in chars]  # shared factors give characters of gcd > 1
        brute = min(
            tuple(sorted((u * c) % l for c in chars))
            for u in range(1, l + 1)
            if math.gcd(u, l) == 1
        )
        assert _canonical_characters(l, chars) == brute

    def test_parse_literal(self):
        assert parse_quotient_literal("1/6(2,3,1)") == (6, (2, 3, 1))
        assert CyclicQuotientType(*parse_quotient_literal("1/5(2,1)")) == Q(5, 2, 1)
        with pytest.raises(QresError):
            parse_quotient_literal("5(2,1)")


# an order or a character that int() reads but that is not an optional "-"
# and ASCII digits, the rule fan and trace files are read by
NON_DECIMAL_LITERALS = {
    "underscore": "1/1_1(1_0,3)",
    "plus": "1/+7(1,+3)",
    "full-width": "1/\uff17(1,3)",
    "arabic-indic": "1/7(1,\u0663)",
}


@pytest.mark.parametrize("literal", NON_DECIMAL_LITERALS.values(), ids=NON_DECIMAL_LITERALS)
@pytest.mark.parametrize(
    "command, flags",
    [
        ("hilbert", ["--bound", "2"]),
        ("cartify", ["--ray", "1"]),
        ("glue-check", ["--samples", "1"]),
    ],
    ids=["hilbert", "cartify", "glue-check"],
)
def test_commands_reject_a_literal_with_a_non_decimal_integer(command, flags, literal, capsys):
    assert cli.main([command, literal, *flags, "--json"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"cannot parse quotient type {literal!r}" in captured.err


class TestQuotientToCone:
    def test_half_1_1(self):
        assert quotient_to_cone(Q(2, 1, 1)) == Cone(2, [(1, 0), (-1, 2)])

    def test_fifth_2_1(self):
        assert quotient_to_cone(Q(5, 2, 1)) == Cone(2, [(1, 0), (-2, 5)])

    def test_trivial_rank2(self):
        assert quotient_to_cone(Q(1, 0, 0)) == Cone(2, [(1, 0), (0, 1)])

    def test_no_unit_rejected(self):
        with pytest.raises(NotRepresentableError):
            quotient_to_cone(Q(6, 2, 3))

    @given(valid_type, st.data())
    def test_any_unit_divisor_gives_the_reduced_type(self, lc, data):
        order, chars = lc
        units = [i for i, c in enumerate(chars) if math.gcd(c, order) == 1]
        assume(units)
        d = data.draw(st.sampled_from(units))
        weights = unit_weights(order, chars, d)
        assert weights[d] == 1 % order
        assert Q(order, *weights) == Q(order, *chars)
        cone, divisor = standard_cone(order, chars, d)
        assert divisor in cone.generators
        assert cone_descriptor(cone).cqs == pseudoreflection_reduce(Q(order, *chars))


class TestConeToQuotient:
    def test_half(self):
        d = cone_descriptor(Cone(2, [(1, 0), (-1, 2)]))
        assert d.cyclic and d.cqs == Q(2, 1, 1)

    def test_smooth(self):
        d = cone_descriptor(Cone(2, [(1, 0), (0, 1)]))
        assert d.cyclic and d.cqs.is_trivial()
        assert d.nontrivial == ()

    def test_third_1_1_1(self):
        d = cone_descriptor(Cone(3, [(1, 0, 0), (0, 1, 0), (-1, -1, 3)]))
        assert d.cqs == Q(3, 1, 1, 1)

    def test_non_cyclic_reported(self):
        c = Cone(4, [(1, 1, 0, 0), (1, -1, 0, 0), (0, 0, 1, 1), (0, 0, 1, -1)])
        d = cone_descriptor(c)
        assert not d.cyclic and d.nontrivial == (2, 2) and d.cqs is None
        assert d.characters == ()
        with pytest.raises(UnsupportedInputError):
            cone_characters(c)

    @given(valid_type)
    def test_descriptor_carries_the_cone_characters(self, lt):
        l, chars = lt
        assume(any(math.gcd(c, l) == 1 for c in chars))
        for c in faces(quotient_to_cone(Q(l, *chars))):
            d = cone_descriptor(c)
            if c.generators:
                assert (d.order, d.characters) == cone_characters(c)
                assert d.cqs == CyclicQuotientType(*cone_characters(c))

    @given(st.integers(1, 4), st.data())
    @settings(max_examples=150)
    def test_smooth_cone_shortcut_matches_smith_normal_form(self, n, data):
        # a random unimodular matrix: the identity under elementary row
        # operations (add a multiple of one row to another, swap, negate)
        rows = [[int(i == j) for j in range(n)] for i in range(n)]
        for _ in range(data.draw(st.integers(0, 12))):
            i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
            op = data.draw(st.sampled_from(["add", "swap", "negate"]))
            if op == "add" and i != j:
                f = data.draw(st.integers(-4, 4))
                rows[i] = [a + f * b for a, b in zip(rows[i], rows[j])]
            elif op == "swap":
                rows[i], rows[j] = rows[j], rows[i]
            elif op == "negate":
                rows[i] = [-a for a in rows[i]]
        c = Cone(n, rows)
        assert c.det == 1
        cone_characters.cache_clear()
        # every face is smooth too; those with det 1 take the shortcut, whose
        # trivial tuples have one entry per generator, not per coordinate
        for f in faces(c) - {Cone(n, [])}:
            snf = smith_normal_form(IntegerMatrix(f.generators))
            order, chars = _snf_characters(snf.diagonal, snf.left.to_lists())
            assert cone_characters(f) == (order, chars)
            assert cone_descriptor(f) == QuotientDescriptor(
                snf.diagonal, True, CyclicQuotientType(order, chars), chars
            )
            assert len(chars) == len(cone_descriptor(f).invariants) == f.dim

    def test_smooth_cones_share_one_descriptor_per_dimension(self):
        # the faces with det 1 of a resolved rank-4 fan, of every dimension:
        # each descriptor equals one built afresh, and one object serves a
        # dimension
        fan = resolve(marked_fan_from_characters(13, (1, 3, 5, 7))).final.fan
        shared = {}
        for c in fan.cones:
            for f in faces(c):
                if not f.generators or f.det != 1:
                    continue
                d = cone_descriptor(f)
                trivial = (0,) * f.dim
                assert d == QuotientDescriptor(
                    (1,) * f.dim, True, CyclicQuotientType(1, trivial), trivial
                )
                assert shared.setdefault(f.dim, d) is d
        assert sorted(shared) == [1, 2, 3, 4]

    @given(valid_type)
    def test_text_order_and_nontrivial_are_read_not_rebuilt(self, lt):
        # each is made once per object and is not a field: equality, hashing
        # and repr stay on the declared fields
        l, chars = lt
        q = Q(l, *chars)
        assert str(q) == f"1/{q.order}({','.join(str(c) for c in q.characters)})"
        assert parse_quotient_literal(str(q)) == (q.order, q.characters)
        assert [f.name for f in dataclasses.fields(q)] == ["order", "characters"]
        assert hash(q) == hash((q.order, q.characters))
        assume(any(math.gcd(c, l) == 1 for c in chars))
        for c in faces(quotient_to_cone(q)):
            d = cone_descriptor(c)
            assert d.order == math.prod(d.invariants)
            assert d.nontrivial == tuple(x for x in d.invariants if x > 1)
            assert [f.name for f in dataclasses.fields(d)] == [
                "invariants", "cyclic", "cqs", "characters"
            ]
            assert d == QuotientDescriptor(d.invariants, d.cyclic, d.cqs, d.characters)
            assert hash(d) == hash((d.invariants, d.cyclic, d.cqs, d.characters))

    def test_order_equals_multiplicity(self):
        for gens in [
            [(1, 0), (-2, 5)],
            [(1, 0), (-3, 7)],
            [(1, 0, 0), (0, 1, 0), (-2, -3, 6)],
        ]:
            c = Cone(len(gens[0]), gens)
            assert cone_descriptor(c).order == multiplicity(c)


class TestRoundTrip:
    def test_small_types_survive(self):
        # rank 2 sweep: both characters must be units for a small type
        for l in range(1, 31):
            for a in range(l):
                for b in range(l):
                    if math.gcd(l, math.gcd(a, b)) != 1:
                        continue
                    if math.gcd(a, l) != 1 and math.gcd(b, l) != 1:
                        continue
                    q = Q(l, a, b)
                    got = cone_descriptor(quotient_to_cone(q)).cqs
                    assert got == pseudoreflection_reduce(q)
                    if not pseudoreflections(q):
                        assert got == q

    def test_rank3_sweep(self):
        for l in range(1, 13):
            seen = set()
            for a in range(l):
                for b in range(l):
                    for c in range(l):
                        if math.gcd(l, a, b, c) != 1:
                            continue
                        if all(math.gcd(x, l) != 1 for x in (a, b, c)):
                            continue
                        q = Q(l, a, b, c)
                        if q in seen:
                            continue
                        seen.add(q)
                        got = cone_descriptor(quotient_to_cone(q)).cqs
                        assert got == pseudoreflection_reduce(q)


class TestTameness:
    def test_examples(self):
        assert is_tame(5, 2)
        assert not is_tame(2, 2)
        assert is_tame(2, 0)

    def test_rejects_composite_characteristic(self):
        with pytest.raises(QresError, match="characteristic must be 0 or prime"):
            _validate_characteristic(4)
        with pytest.raises(QresError, match="characteristic must be 0 or prime"):
            MarkedFan(Fan(2, [quotient_to_cone(Q(5, 2, 1))]), (), 4)


class TestTrialDivision:
    def test_prime_factors_and_primality_match_the_definition(self):
        for n in range(-2, 400):
            naive = [
                p for p in range(2, n + 1) if n % p == 0 and all(p % k for k in range(2, p))
            ]
            if n >= 1:
                assert _prime_factors(n) == naive
            assert _is_prime(n) == (naive == [n])


class TestPseudoreflections:
    def test_reflection_generated_becomes_trivial(self):
        assert pseudoreflection_reduce(Q(2, 0, 1)).is_trivial()

    def test_small_type_unchanged(self):
        q = Q(5, 2, 1)
        assert pseudoreflection_reduce(q) == q

    def test_quarter_2_1(self):
        assert pseudoreflection_reduce(Q(4, 2, 1)) == Q(2, 1, 1)

    def test_direction_not_on_the_unit_coordinate(self):
        # the element of order 2 fixes all but the first coordinate
        assert pseudoreflection_reduce(Q(4, 1, 2, 2)) == Q(2, 1, 1, 1)

    @given(valid_type)
    @settings(max_examples=150)
    def test_idempotent_and_order_drops(self, lt):
        l, chars = lt
        q = Q(l, *chars)
        reduced = pseudoreflection_reduce(q)
        assert reduced.order <= q.order
        assert pseudoreflection_reduce(reduced) == reduced
        assert not pseudoreflections(reduced)


def scan_reduce(q):
    """The reduction with ``d`` taken from the scan over all group elements."""
    refl = pseudoreflections(q)
    if not refl:
        return q
    l = q.order
    d = math.gcd(l, *refl)
    exps = [l // math.gcd(l, d * c) for c in q.characters]
    return Q(d, *[(c * e) % l // (l // d) for c, e in zip(q.characters, exps)])


class TestPseudoreflectionFormula:
    def test_gcd_matches_the_scan_on_every_gcd_pattern(self):
        # the pseudoreflections of 1/l(c) depend on c only through the gcds
        # g_i = gcd(l, c_i), so one type per pattern checks d for every type
        # of order below 200 and rank at most 3; the reduced type, which
        # also depends on the units, on the representatives and at random
        patterns = 0
        for l in range(1, 200):
            divisors = [g for g in range(1, l + 1) if l % g == 0]
            for r in (1, 2, 3):
                for gcds in itertools.combinations_with_replacement(divisors, r):
                    if math.gcd(l, *gcds) != 1:
                        continue
                    q = Q(l, *gcds)
                    refl = pseudoreflections(q)
                    assert _pseudoreflection_gcd(q) == (math.gcd(l, *refl) if refl else l)
                    assert pseudoreflection_reduce(q) == scan_reduce(q)
                    patterns += 1
        assert patterns > 9000

    @given(
        st.integers(1, 199).flatmap(
            lambda l: st.lists(st.integers(0, l - 1), min_size=1, max_size=3)
            .filter(lambda chars: math.gcd(l, *chars) == 1)
            .map(lambda chars: (l, tuple(chars)))
        )
    )
    @settings(max_examples=300)
    def test_reduced_type_matches_the_scan(self, lt):
        l, chars = lt
        assert pseudoreflection_reduce(Q(l, *chars)) == scan_reduce(Q(l, *chars))


class TestFaithfulRays:
    """The classify report names the generators whose character is a unit."""

    @staticmethod
    def report(order, chars, tmp_path, capsys):
        path = tmp_path / "fan.jsonl"
        m = marked_fan_from_characters(order, chars)
        path.write_text(fanfile.emit_fan(m), encoding="utf-8")
        assert cli.main(["classify", str(path), "--json"]) == 0
        (entry,) = json.loads(capsys.readouterr().out)["cones"]
        return entry["cone"], entry["faithful_rays"]

    def test_both_units(self, tmp_path, capsys):
        cone, faithful = self.report(5, (2, 1), tmp_path, capsys)
        assert faithful == cone == ["(-2,5)", "(1,0)"]

    def test_only_the_unit(self, tmp_path, capsys):
        # characters 1, 3, 2 mod 6 on the generators: only the divisor ray
        cone, faithful = self.report(6, (2, 3, 1), tmp_path, capsys)
        assert faithful == ["(-2,-3,6)"] == cone[:1]

    def test_trivial_group(self, tmp_path, capsys):
        cone, faithful = self.report(1, (0, 0, 0), tmp_path, capsys)
        assert faithful == cone and len(cone) == 3


# Fans with smooth and singular lower-dimensional cones, and a non-cyclic
# one, with the classify output recorded before lower-dimensional cones took
# the integer kernel: the det-1 shortcut must give tuples of length dim.
RANK3_FAN = (
    '{"characteristic":"0","rank":"3","record":"fan"}\n'
    '{"id":"0","record":"ray","v":["1","0","0"]}\n'
    '{"id":"1","record":"ray","v":["0","1","0"]}\n'
    '{"id":"2","record":"ray","v":["1","2","5"]}\n'
    '{"id":"3","record":"ray","v":["-1","0","0"]}\n'
    '{"id":"4","record":"ray","v":["0","-1","0"]}\n'
    '{"id":"5","record":"ray","v":["0","0","-1"]}\n'
    '{"id":"6","record":"ray","v":["1","-1","-1"]}\n'
    '{"id":"7","record":"ray","v":["1","1","-1"]}\n'
    '{"rays":["0","1","2"],"record":"cone"}\n'
    '{"rays":["3","4"],"record":"cone"}\n'
    '{"rays":["5"],"record":"cone"}\n'
    '{"rays":["6","7"],"record":"cone"}\n'
    '{"ray":"2","record":"marked"}\n'
)
RANK3_JSON = (
    '{"characteristic":"0","cones":[{"cone":["(-1,0,0)","(0,-1,0)"],"cyclic":true'
    ',"faithful_rays":["(-1,0,0)","(0,-1,0)"],"invariants":[],"multiplicity":"1"'
    ',"tame":true,"type":"1/1(0,0)"}'
    ',{"cone":["(0,0,-1)"],"cyclic":true,"faithful_rays":["(0,0,-1)"]'
    ',"invariants":[],"multiplicity":"1","tame":true,"type":"1/1(0)"}'
    ',{"cone":["(0,1,0)","(1,0,0)","(1,2,5)"],"cyclic":true'
    ',"faithful_rays":["(0,1,0)","(1,0,0)","(1,2,5)"],"invariants":["5"]'
    ',"multiplicity":"5","tame":true,"type":"1/5(1,2,3)"}'
    ',{"cone":["(1,-1,-1)","(1,1,-1)"],"cyclic":true,"faithful_rays":["(1,-1,-1)"'
    ',"(1,1,-1)"],"invariants":["2"],"multiplicity":"2","tame":true'
    ',"type":"1/2(1,1)"}],"rank":"3"}\n'
)
RANK3_TEXT = (
    'fan: rank 3, characteristic 0, 4 cone(s)\n'
    'cone 1: <(-1,0,0), (0,-1,0)>\n'
    '  multiplicity: 1\n'
    '  type: 1/1(0,0)\n'
    '  tame: yes\n'
    '  faithful rays: (-1,0,0), (0,-1,0)\n'
    'cone 2: <(0,0,-1)>\n'
    '  multiplicity: 1\n'
    '  type: 1/1(0)\n'
    '  tame: yes\n'
    '  faithful rays: (0,0,-1)\n'
    'cone 3: <(0,1,0), (1,0,0), (1,2,5)>\n'
    '  multiplicity: 5\n'
    '  type: 1/5(1,2,3)\n'
    '  tame: yes\n'
    '  faithful rays: (0,1,0), (1,0,0), (1,2,5)\n'
    'cone 4: <(1,-1,-1), (1,1,-1)>\n'
    '  multiplicity: 2\n'
    '  type: 1/2(1,1)\n'
    '  tame: yes\n'
    '  faithful rays: (1,-1,-1), (1,1,-1)\n'
)
RANK4_FAN = (
    '{"characteristic":"0","rank":"4","record":"fan"}\n'
    '{"id":"0","record":"ray","v":["1","0","0","0"]}\n'
    '{"id":"1","record":"ray","v":["1","2","0","0"]}\n'
    '{"id":"2","record":"ray","v":["1","0","2","0"]}\n'
    '{"id":"3","record":"ray","v":["-1","0","0","0"]}\n'
    '{"id":"4","record":"ray","v":["0","-1","0","0"]}\n'
    '{"id":"5","record":"ray","v":["0","0","-1","0"]}\n'
    '{"id":"6","record":"ray","v":["0","0","0","-1"]}\n'
    '{"id":"7","record":"ray","v":["0","0","0","1"]}\n'
    '{"id":"8","record":"ray","v":["0","1","1","1"]}\n'
    '{"id":"9","record":"ray","v":["0","1","0","1"]}\n'
    '{"id":"10","record":"ray","v":["0","1","0","-1"]}\n'
    '{"rays":["0","1","2"],"record":"cone"}\n'
    '{"rays":["3","4","5","6"],"record":"cone"}\n'
    '{"rays":["7","8"],"record":"cone"}\n'
    '{"rays":["9","10"],"record":"cone"}\n'
    '{"ray":"7","record":"marked"}\n'
)
RANK4_JSON = (
    '{"characteristic":"0","cones":[{"cone":["(-1,0,0,0)","(0,-1,0,0)","(0,0,-1,0)"'
    ',"(0,0,0,-1)"],"cyclic":true,"faithful_rays":["(-1,0,0,0)","(0,-1,0,0)"'
    ',"(0,0,-1,0)","(0,0,0,-1)"],"invariants":[],"multiplicity":"1","tame":true'
    ',"type":"1/1(0,0,0,0)"}'
    ',{"cone":["(0,0,0,1)","(0,1,1,1)"],"cyclic":true,"faithful_rays":["(0,0,0,1)"'
    ',"(0,1,1,1)"],"invariants":[],"multiplicity":"1","tame":true,"type":"1/1(0,0)"}'
    ',{"cone":["(0,1,0,-1)","(0,1,0,1)"],"cyclic":true'
    ',"faithful_rays":["(0,1,0,-1)","(0,1,0,1)"],"invariants":["2"]'
    ',"multiplicity":"2","tame":true,"type":"1/2(1,1)"}'
    ',{"cone":["(1,0,0,0)","(1,0,2,0)","(1,2,0,0)"],"cyclic":false'
    ',"invariants":["2","2"],"multiplicity":"4"}],"rank":"4"}\n'
)
RANK4_TEXT = (
    'fan: rank 4, characteristic 0, 4 cone(s)\n'
    'cone 1: <(-1,0,0,0), (0,-1,0,0), (0,0,-1,0), (0,0,0,-1)>\n'
    '  multiplicity: 1\n'
    '  type: 1/1(0,0,0,0)\n'
    '  tame: yes\n'
    '  faithful rays: (-1,0,0,0), (0,-1,0,0), (0,0,-1,0), (0,0,0,-1)\n'
    'cone 2: <(0,0,0,1), (0,1,1,1)>\n'
    '  multiplicity: 1\n'
    '  type: 1/1(0,0)\n'
    '  tame: yes\n'
    '  faithful rays: (0,0,0,1), (0,1,1,1)\n'
    'cone 3: <(0,1,0,-1), (0,1,0,1)>\n'
    '  multiplicity: 2\n'
    '  type: 1/2(1,1)\n'
    '  tame: yes\n'
    '  faithful rays: (0,1,0,-1), (0,1,0,1)\n'
    'cone 4: <(1,0,0,0), (1,0,2,0), (1,2,0,0)>\n'
    '  multiplicity: 4\n'
    '  not cyclic: invariant factors 2 | 2\n'
)


@pytest.mark.parametrize(
    "fan, as_json, as_text",
    [(RANK3_FAN, RANK3_JSON, RANK3_TEXT), (RANK4_FAN, RANK4_JSON, RANK4_TEXT)],
    ids=["rank3", "rank4"],
)
def test_classify_bytes_with_lower_dimensional_cones(tmp_path, capsys, fan, as_json, as_text):
    cone_characters.cache_clear()
    cones_fans.multiplicity.cache_clear()
    path = tmp_path / "fan.jsonl"
    path.write_text(fan, encoding="utf-8")
    assert cli.main(["classify", str(path), "--json"]) == 0
    assert capsys.readouterr().out == as_json
    assert cli.main(["classify", str(path)]) == 0
    assert capsys.readouterr().out == as_text
