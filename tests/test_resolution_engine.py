"""The blow-up loop end to end: smooth result, dropping measures, traces.

Covers the paper's main claim on a few ladder types in characteristic 0, 2,
3 and 5, the chart orders of every step, one evaluation of the measure per
fan state, the fan and trace round trips, replay with any center of a ray
and its errors for a center not containing its ray or naming a face an
earlier ray split, that no center splits another's cone, pinned traces of
larger types and bounds on the containment tests, sorts, multiplicities and
subdivisions of one of them, the state each step carries to the next against
a rebuild from the fan, one classification of each cone a step adds (also in
a non-pure fan), the chart pieces against a fresh subdivision of
their center, functoriality under lattice automorphisms, permutations of the
characters, restriction to the cones after one step and smooth base change
(the product with a ray), independence of the trace bytes from the hash
seed, and the command-line checks, some of which must survive ``python -O``.
"""

import errno
import hashlib
import json
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qres import cli, cones_fans, fanfile, quotient_classifier, resolution_engine
from qres.cones_fans import (
    Cone,
    Fan,
    Subdivision,
    _subdivide_cone,
    multiplicity,
    star_subdivide,
    validate_fan,
)
from qres.errors import FanParseError, MeasureError, ReplayError
from qres.exact_lattice import IntegerVector
from qres.fanfile import TraceDocument
from qres.hj_oracle import hj_cone_rays, hj_rays
from qres.resolution_engine import (
    PHASE_MAX_ORDER,
    PHASE_NON_TAME,
    MarkedFan,
    _apply_step,
    _center_for,
    _nontame_invariant,
    _targets,
    fan_digest,
    invariant,
    marked_fan_from_characters,
    replay,
    resolve,
)

SRC = Path(__file__).resolve().parents[1] / "src"

# (order, characters, characteristic)
CASES = [
    (31, (1, 5, 11), 0),
    (13, (1, 3, 5, 7), 0),
    (12, (1, 5, 7), 2),
    (18, (10, 15, 11), 3),
    (45, (19, 17, 32), 5),
    (7, (3, 1), 0),
    (50, (13, 1), 0),
    (101, (37, 1), 0),
    (1009, (400, 1), 0),
]
RANK2 = [case for case in CASES if len(case[1]) == 2]


def case_id(case):
    order, chars, p = case
    return f"1/{order}({','.join(map(str, chars))})@p={p}"


_TRACES = {}


def traced(case):
    if case not in _TRACES:
        order, chars, p = case
        m = marked_fan_from_characters(order, chars, p)
        _TRACES[case] = (m, resolve(m))
    return _TRACES[case]


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_final_fan_is_smooth_and_valid(case):
    _, trace = traced(case)
    assert trace.all_smooth
    assert all(multiplicity(c) == 1 for c in trace.final.fan.cones)
    assert validate_fan(trace.final.fan)


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_measures_strictly_drop(case):
    m, trace = traced(case)
    assert trace.steps
    for prev, step in zip(trace.steps, trace.steps[1:]):
        assert step.invariant_before == prev.invariant_after
    for step in trace.steps:
        if step.phase == PHASE_NON_TAME:
            assert step.nontame_before is not None
            assert step.nontame_after is None or step.nontame_after < step.nontame_before
            assert step.invariant_after <= step.invariant_before
        else:
            assert step.invariant_after < step.invariant_before
    assert trace.steps[-1].invariant_after == (1, len(trace.final.fan.cones))


def test_characteristic_two_case_runs_the_non_tame_phase():
    _, trace = traced((12, (1, 5, 7), 2))
    assert any(step.phase == PHASE_NON_TAME for step in trace.steps)


@pytest.mark.parametrize("case", [c for c in CASES if c[2] in (3, 5)], ids=case_id)
def test_characteristic_three_and_five_cases_run_the_non_tame_phase(case):
    _, trace = traced(case)
    assert any(step.phase == PHASE_NON_TAME for step in trace.steps)


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_chart_orders_equal_positive_weights(case):
    _, trace = traced(case)
    for step in trace.steps:
        for center, charts in zip(step.centers, step.charts):
            assert sorted(ch.order for ch in charts) == sorted(
                w for w in center.weights if w > 0
            )


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_invariant_runs_once_per_fan_state(case, monkeypatch):
    order, chars, p = case
    calls = []
    counted = resolution_engine.invariant

    def counting(m):
        calls.append(m)
        return counted(m)

    monkeypatch.setattr(resolution_engine, "invariant", counting)
    trace = resolve(marked_fan_from_characters(order, chars, p))
    assert len(calls) == len(trace.steps) + 1


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_final_fan_round_trips(case):
    _, trace = traced(case)
    assert fanfile.parse_fan(fanfile.emit_fan(trace.final)) == trace.final


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_trace_round_trips(case):
    m, trace = traced(case)
    text = fanfile.emit_trace(trace)
    doc = fanfile.parse_trace(text)
    assert doc.input_digest == trace.input_digest
    assert doc.ray_groups == trace.ray_groups
    assert doc.final == trace.final
    assert replay(m, doc) == trace.final.fan
    assert '"measure_decreasing":true' in text


def _document(trace, ray_groups=None, hint_groups=None):
    return TraceDocument(
        trace.input_digest,
        trace.ray_groups if ray_groups is None else ray_groups,
        trace.final,
        trace.hint_groups if hint_groups is None else hint_groups,
    )


def _last_centers(trace):
    """For each added ray, the last center cone naming it; the trace keeps
    the first."""
    groups = []
    for step in trace.steps:
        cone_of = {center.ray: center.cone for center in step.centers}
        groups.append(tuple(cone_of[u] for u in step.added_rays))
    return tuple(groups)


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_replay_does_not_depend_on_hints(case):
    # a center cone only names the face its ray lies in, so every center of
    # a ray replays to the same fan (rank 3 and 4 cases have rays that
    # several centers name)
    m, trace = traced(case)
    doc = fanfile.parse_trace(fanfile.emit_trace(trace))
    assert doc.hint_groups == trace.hint_groups
    assert replay(m, _document(trace, hint_groups=_last_centers(trace))) == trace.final.fan


def test_replay_rejects_a_center_not_containing_its_ray():
    m, trace = traced(CASES[0])
    outside = Cone(m.fan.rank, [-g for g in next(iter(m.fan.cones)).generators])
    assert not any(outside.contains(u) for u in trace.exceptional_rays)
    first, *rest = trace.hint_groups
    wrong = ((outside,) + first[1:], *rest)
    with pytest.raises(ReplayError, match="does not lie in"):
        replay(m, _document(trace, hint_groups=wrong))


@pytest.mark.parametrize(
    "centers",
    [
        None,
        "x",
        ["x"],
        [{"cone": [["1", "0", "0"]]}],
        [{"ray": ["1", "1", "1"]}],
        [{"ray": ["1", "1", "1"], "cone": [["1", "0", "0"], ["2", "0", "0"]]}],
        [{"ray": ["1", "1", "1"], "cone": [["1", "0"]]}],
        [{"ray": ["1", "y", "1"], "cone": [["1", "0", "0"]]}],
    ],
)
def test_malformed_center_is_a_parse_error(centers):
    _, trace = traced(CASES[0])
    lines = fanfile.emit_trace(trace).splitlines()
    step = json.loads(lines[1])
    if centers is None:
        del step["centers"]
    else:
        step["centers"] = centers
    lines[1] = json.dumps(step)
    with pytest.raises(FanParseError):
        fanfile.parse_trace("\n".join(lines))


def test_replay_rejects_a_center_whose_face_was_split_in_the_group():
    m = marked_fan_from_characters(31, (1, 5, 11))
    (sigma,) = m.fan.cones
    e1, e2, w = sigma.generators
    # e1 + e2 splits the face of e1, e2 and w that the next ray lies inside,
    # so sigma names no cone of the fan by then; a piece containing it does
    group = (e1 + e2, e1 + e2 + w)
    assert all(sigma.contains(u) for u in group)
    final, found = m.fan, []
    for u in group:
        found.append(next(c for c in final.sorted_cones() if c.contains(u)))
        final = star_subdivide(final, [u], found[-1:])
    assert found[0] == sigma != found[1]
    marked = MarkedFan(final, m.marked_rays + group)
    assert replay(m, TraceDocument(fan_digest(m), (group,), marked, (tuple(found),))) == final
    stale = TraceDocument(fan_digest(m), (group,), marked, ((sigma, sigma),))
    with pytest.raises(ReplayError, match="is not a cone of the fan"):
        replay(m, stale)


def test_replay_rejects_a_ray_outside_the_support_despite_a_hint():
    m, trace = traced(CASES[0])
    outside = -trace.exceptional_rays[0]
    groups = ((outside,) + trace.ray_groups[0],) + trace.ray_groups[1:]
    hints = ((trace.hint_groups[0][0],) + trace.hint_groups[0],) + trace.hint_groups[1:]
    with pytest.raises(ReplayError, match="cannot be applied"):
        replay(m, _document(trace, groups, hints))


def test_replay_rejects_a_group_with_a_ray_dropped():
    m, trace = traced(CASES[0])
    k = next(i for i, g in enumerate(trace.ray_groups) if len(g) > 1)
    groups, cones = list(trace.ray_groups), list(trace.hint_groups)
    groups[k], cones[k] = groups[k][1:], cones[k][1:]
    with pytest.raises(ReplayError):
        replay(m, _document(trace, tuple(groups), tuple(cones)))


PINNED_TRACE_SHA256 = "69382e548bce858accc1476909e55b6a498c087527a30c84338d9c2ee1591dbf"


def _count_calls(monkeypatch, modules, fn):
    """Replace every binding of ``fn`` in ``modules`` by a counting wrapper."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return fn(*args, **kwargs)

    for mod in modules:
        for key, value in list(vars(mod).items()):
            if value is fn:
                monkeypatch.setattr(mod, key, counting)
    return calls


def test_larger_type_is_pinned_and_tests_few_cones(monkeypatch):
    # one blow-up step touches only the star of its centers: the scan over
    # every cone for every ray made 310,249 contains calls on this type;
    # sorting every cone for the measure and the targets of each step made
    # 20,197 sort_key calls, where only the singular cones need an order;
    # reading every cone's multiplicity for the measures of each step made
    # 21,311 multiplicity calls, and subdividing every center again for its
    # charts 1,540 _subdivide_cone calls for 770 centers; each center ray's
    # numerators in its center cone are computed by contains and once more
    # by _face_star, and that cone's pieces reuse them (1,884 numerators
    # calls when the pieces computed them a third time)
    calls = {"contains": [], "numerators": []}
    sorts = []
    for name, seen in calls.items():
        real = getattr(Cone, name)
        monkeypatch.setattr(
            Cone, name, lambda self, v, real=real, seen=seen: seen.append(1) or real(self, v)
        )
    real_key = Cone.sort_key
    monkeypatch.setattr(Cone, "sort_key", lambda self: sorts.append(1) or real_key(self))
    engine_modules = (cones_fans, resolution_engine, quotient_classifier)
    mults = _count_calls(monkeypatch, engine_modules, cones_fans.multiplicity)
    splits = _count_calls(monkeypatch, engine_modules, cones_fans._subdivide_cone)
    trace = resolve(marked_fan_from_characters(211, (1, 37, 101)))
    assert len(calls["contains"]) + len(calls["numerators"]) <= 5000
    assert len(calls["numerators"]) <= 1400
    assert len(sorts) <= 8000
    assert len(mults) <= 8000
    assert len(splits) <= 800
    assert sum(len(step.centers) for step in trace.steps) == 770
    assert (len(trace.steps), len(trace.final.fan.cones)) == (56, 1115)
    text = fanfile.emit_trace(trace)
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_TRACE_SHA256


@pytest.mark.parametrize(
    "case", [(211, (1, 37, 101), 0), (286861, (1, 282801), 0)], ids=case_id
)
def test_resolve_and_replay_build_fans_from_the_star(case, monkeypatch):
    # every step and the replay build their fan from the star, not by the
    # constructor's pass over every cone: that ran twice per step, 56 + 56
    # times on 1/211(1,37,101) and 83 + 83 on 1/286861(1,282801), and the
    # replay made one subdivision call per step, 56 and 83
    m = marked_fan_from_characters(*case)
    inits = []
    real_init = Fan.__init__
    monkeypatch.setattr(
        Fan, "__init__", lambda self, *args: inits.append(1) or real_init(self, *args)
    )
    calls = _count_calls(monkeypatch, (cones_fans, resolution_engine), star_subdivide)
    trace = resolve(m)
    assert len(calls) == len(trace.steps)
    replay(m, trace)
    assert inits == []
    assert len(calls) == len(trace.steps) + 1


LARGER_PINS = [
    (
        (1009, (1, 400, 617), 0),
        69,
        1715,
        "7e1a871f985e51e4f7c973696d9b8d696056977f21ada72079ecc68b5861d295",
    ),
    (
        (101, (1, 7, 19, 31), 0),
        26,
        919,
        "747f94e54f75fc2f2fdd4f4066d9962bf94331b2dc46130d76e842c760cfb8ae",
    ),
    (
        (131, (1, 7, 19, 31), 0),
        64,
        14523,
        "d12a37a6c857f755b135fb16ec9cfcf80ac2fcbed70733ede4e0556b08762942",
    ),
    # rank 2, large entries: every chart is a 2x2 Smith elimination; the
    # sha256 is the one perfbench/cases.json records for this case
    (
        (286861, (1, 282801), 0),
        83,
        84,
        "8f733cf77e4b51240f98113ebf635160b9d6768f8de4354825339876854911e9",
    ),
]


@pytest.mark.parametrize(
    "case, steps, cones, sha256", LARGER_PINS, ids=[case_id(pin[0]) for pin in LARGER_PINS]
)
def test_larger_types_keep_their_traces(case, steps, cones, sha256):
    order, chars, p = case
    trace = resolve(marked_fan_from_characters(order, chars, p))
    assert (len(trace.steps), len(trace.final.fan.cones)) == (steps, cones)
    text = fanfile.emit_trace(trace)
    assert hashlib.sha256(text.encode()).hexdigest() == sha256


def test_a_removed_lower_dimensional_cone_leaves_by_its_multiplicity():
    # a 2-cone of rank 3 whose minor det, 4, is not its multiplicity, 2: the
    # step must drop it from the order-2 group, not look for it under 4
    tau = Cone(3, [(1, 0, 0), (1, 4, 2)])
    assert (tau.det, multiplicity(tau)) == (4, 2)
    m = MarkedFan(Fan(3, [tau]), tau.generators[1:])
    child, record = resolution_engine.blowup_step(m)
    assert child.singular == {}
    assert record.invariant_after == (1, 2)
    trace = resolve(m)
    assert len(trace.steps) == 1 and trace.all_smooth


def _non_pure_fan():
    """The cone of 1/31(1,5,11) beside a maximal 2-cone of type 1/2(1,1)
    that meets it only at the origin, each with a marked ray."""
    m = marked_fan_from_characters(31, (1, 5, 11))
    tau = Cone(3, [(1, -1, -1), (1, 1, -1)])
    return MarkedFan(Fan(3, [*m.fan.cones, tau]), m.marked_rays + tau.generators[1:])


@pytest.mark.parametrize(
    "make",
    [
        lambda: marked_fan_from_characters(211, (1, 37, 101)),
        lambda: marked_fan_from_characters(12, (1, 5, 7), 2),
        _non_pure_fan,
    ],
    ids=["1/211(1,37,101)", "1/12(1,5,7)@p=2", "non-pure-rank-3"],
)
def test_each_new_cone_is_classified_once(make, monkeypatch):
    # the step that adds a cone classifies it, and the marked fan carries its
    # order and characters to the charts, the measures and the next centers;
    # read back from the cone_characters cache, each center piece was
    # classified two or three times
    m = make()
    seen = []
    uncached = quotient_classifier.cone_characters.__wrapped__
    monkeypatch.setattr(
        resolution_engine, "cone_characters", lambda c: seen.append(c) or uncached(c)
    )
    trace = resolve(m)
    counts = Counter(seen)
    assert any(c.dim < c.rank for c in counts) == (make is _non_pure_fan)
    assert m.fan.cones <= counts.keys()
    assert trace.final.fan.cones - m.fan.cones <= counts.keys()
    assert [c for c, n in counts.items() if n > 1 and c not in m.fan.cones] == []
    for step in trace.steps:
        for charts in step.charts:
            for chart in charts:
                assert chart.chart_type == quotient_classifier.CyclicQuotientType(
                    *uncached(chart.cone)
                )


@st.composite
def quotient_types(draw, max_order=(60, 24, 12)):
    """Type ``1/l(c)`` of rank 2 up to one more than the number of bounds,
    by default 4, whose last character is a unit, with a characteristic in
    0, 2, 3, 5; ``max_order[n - 2]`` bounds the order in rank ``n``."""
    n = draw(st.integers(2, len(max_order) + 1))
    order = draw(st.integers(2, max_order[n - 2]))
    chars = draw(st.lists(st.integers(0, order - 1), min_size=n - 1, max_size=n - 1))
    last = draw(st.integers(1, order - 1).filter(lambda c: math.gcd(c, order) == 1))
    return order, tuple(chars) + (last,), draw(st.sampled_from([0, 2, 3, 5]))


def _rebuilt_index(fan):
    index = {}
    for c in fan.cones:
        for g in c.generators:
            index.setdefault(g, set()).add(c)
    return index


def _assert_state_is_rebuilt(m):
    """The carried index, groups, characters and measures of ``m`` against a
    scan of every cone of its fan."""
    assert m.fan.ray_index == _rebuilt_index(m.fan)
    mults = {c: multiplicity(c) for c in m.fan.cones}
    groups = {}
    for c, x in mults.items():
        if x > 1:
            order, chars = quotient_classifier.cone_characters.__wrapped__(c)
            assert order == x
            groups.setdefault(x, {})[c] = chars
    assert m.singular == groups
    top = max(mults.values())
    assert invariant(m) == (top, sum(1 for x in mults.values() if x == top))
    p = m.characteristic
    bad = [x for x in mults.values() if x > 1 and p and x % p == 0]
    expected = (max(bad), bad.count(max(bad))) if bad else None
    assert _nontame_invariant(m) == expected
    for x in groups:
        assert _targets(m, x) == sorted(
            (c for c, y in mults.items() if y == x), key=Cone.sort_key
        )


def _assert_subdivision_leaves_input(fan, u, cu, v, cv):
    """Two subdivisions of one fan at different rays, each with a cone
    containing it, change neither the fan's index nor the first result."""
    before = {g: set(cs) for g, cs in fan.ray_index.items()}
    first = star_subdivide(fan, [u], [cu])
    kept = {g: set(cs) for g, cs in first.ray_index.items()}
    second = star_subdivide(fan, [v], [cv])
    assert fan.ray_index == before
    assert first.ray_index == kept == _rebuilt_index(first)
    assert second.ray_index == _rebuilt_index(second)
    assert star_subdivide(fan, [u], [cu]) == first


def _interior_ray(fan, u):
    """A primitive point inside the first cone other than ``u``, and that
    cone: the sum of the generators plus one of them, which gives pairwise
    distinct rays."""
    c = fan.sorted_cones()[0]
    for g in c.generators:
        e = [sum(col) for col in zip(g.entries, *(h.entries for h in c.generators))]
        d = math.gcd(*e)
        v = IntegerVector([x // d for x in e])
        if v != u:
            return v, c


@given(quotient_types())
@settings(max_examples=40, deadline=None)
def test_carried_step_state_equals_a_rebuild(case):
    order, chars, p = case
    m = marked_fan_from_characters(order, chars, p)
    inv, nt = invariant(m), _nontame_invariant(m)
    while True:
        _assert_state_is_rebuilt(m)
        if nt is not None:
            phase = PHASE_NON_TAME
        elif inv[0] > 1:
            phase = PHASE_MAX_ORDER
        else:
            break
        target = _targets(m, (nt or inv)[0])[0]
        u = _center_for(m, target, (nt or inv)[0]).ray
        _assert_subdivision_leaves_input(m.fan, u, target, *_interior_ray(m.fan, u))
        m, record = _apply_step(m, phase, inv, nt)
        inv, nt = record.invariant_after, record.nontame_after


def _cone_data(pieces):
    return [(c.generators, c.det, c.cofactors) for c in sorted(pieces, key=Cone.sort_key)]


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_chart_pieces_are_the_subdivision_of_their_center(case):
    _, trace = traced(case)
    for step in trace.steps:
        for center, charts in zip(step.centers, step.charts):
            assert _cone_data(ch.cone for ch in charts) == _cone_data(
                _subdivide_cone(center.cone, center.ray)
            )


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_shared_chart_types_equal_fresh_ones(case):
    # resolve makes one chart type per order and sorted characters and shares
    # it across its steps; each equals the type built from its chart's own
    # characters, and a lone step, with a memo of its own, records the same
    # as the first step of a resolve that starts in the max-order phase
    m, trace = traced(case)
    for step in trace.steps:
        for charts in step.charts:
            for chart in charts:
                order, chars = quotient_classifier.cone_characters(chart.cone)
                fresh = quotient_classifier.CyclicQuotientType(order, chars)
                assert chart.chart_type == fresh
                assert str(chart.chart_type) == str(fresh)
    if trace.steps[0].phase == PHASE_MAX_ORDER:
        assert resolution_engine.blowup_step(m)[1] == trace.steps[0]


def test_chart_pieces_missing_from_the_subdivision_are_a_measure_error():
    # two centers of one engine step never split each other's cones (a
    # center ray inside another target lies on a face carrying that
    # target's whole group, so it is that target's center too), so every
    # center's pieces are in its step's record; a record without them, built
    # here by splitting sigma at e1 + e2 alone, certifies a bug
    m = marked_fan_from_characters(31, (1, 5, 11))
    (sigma,) = m.fan.cones
    e1, e2, _ = sigma.generators
    center = _center_for(m, sigma, 31)
    done = Subdivision()
    star_subdivide(m.fan, [e1 + e2], [sigma], record=done)
    assert (sigma, e1 + e2) in done.pieces and (sigma, center.ray) not in done.pieces
    classes = {c: quotient_classifier.cone_characters(c) for c in done.added}
    with pytest.raises(MeasureError, match="did not subdivide its center"):
        trivial = quotient_classifier.CyclicQuotientType(1, (0, 0, 0))
        resolution_engine._local_charts(center, 0, done, classes, trivial)


@given(quotient_types(max_order=(60, 24, 12, 6)))
@example((13, (1, 3, 5, 7), 0))
@example((6, (0, 2, 3, 4, 1), 2))
@settings(max_examples=60, deadline=None)
def test_no_center_splits_the_cone_of_another_center(case):
    # the lemma the one path through star subdivision rests on: in every
    # step each center cone is split at its own ray, centers whose minimal
    # faces have the same generators have the same ray, and the trace replays
    order, chars, p = case
    m = marked_fan_from_characters(order, chars, p)
    records = []
    real = resolution_engine.star_subdivide

    def recording(f, rays, cones, record=None):
        records.append(record)
        return real(f, rays, cones, record=record)

    with mock.patch.object(resolution_engine, "star_subdivide", recording):
        trace = resolve(m)
    assert len(records) == len(trace.steps)
    for step, done in zip(trace.steps, records):
        ray_of_face = {}
        for center in step.centers:
            assert (center.cone, center.ray) in done.pieces
            face = frozenset(
                g for g, w in zip(center.cone.generators, center.weights) if w > 0
            )
            assert ray_of_face.setdefault(face, center.ray) == center.ray
    assert replay(m, fanfile.parse_trace(fanfile.emit_trace(trace))) == trace.final.fan


@st.composite
def unimodular_matrices(draw, n):
    """A product of elementary operations and a row permutation."""
    g = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(0, 4))):
        src, dst = draw(st.permutations(range(n)))[:2]
        k = draw(st.sampled_from([-2, -1, 1, 2]))
        g[dst] = [a + k * b for a, b in zip(g[dst], g[src])]
    return [g[i] for i in draw(st.permutations(range(n)))]


def _map(g, v):
    return IntegerVector(sum(a * x for a, x in zip(row, v.entries)) for row in g)


def _map_fan(g, fan):
    return Fan(fan.rank, [Cone(fan.rank, [_map(g, v) for v in c.generators]) for c in fan.cones])


def _assert_equivariant(g, trace, moved):
    assert moved.final.fan == _map_fan(g, trace.final.fan)
    assert len(moved.steps) == len(trace.steps)
    for a, b in zip(trace.steps, moved.steps):
        assert (a.phase, a.invariant_after, a.nontame_after) == (
            b.phase, b.invariant_after, b.nontame_after
        )
        assert {_map(g, u) for u in a.added_rays} == set(b.added_rays)


@given(quotient_types(), st.data())
@settings(max_examples=40, deadline=None)
def test_resolution_commutes_with_lattice_automorphisms(case, data):
    order, chars, p = case
    m = marked_fan_from_characters(order, chars, p)
    g = data.draw(unimodular_matrices(m.fan.rank))
    gm = MarkedFan(_map_fan(g, m.fan), [_map(g, r) for r in m.marked_rays], p)
    _assert_equivariant(g, resolve(m), resolve(gm))


@given(quotient_types(), st.data())
@settings(max_examples=40, deadline=None)
def test_resolution_commutes_with_permuting_non_divisor_characters(case, data):
    order, chars, p = case
    n = len(chars)
    perm = data.draw(st.permutations(range(n - 1))) + [n - 1]
    moved = marked_fan_from_characters(order, [chars[i] for i in perm], p)
    # coordinate perm[i] of the original lands on coordinate i
    g = [[int(j == perm[i]) for j in range(n)] for i in range(n)]
    _assert_equivariant(g, resolve(marked_fan_from_characters(order, chars, p)), resolve(moved))


RESTRICTION_CASES = [
    (31, (1, 5, 11), 0),
    (13, (1, 3, 5, 7), 0),
    (97, (1, 13, 41), 0),
    (61, (1, 11, 23), 0),
    (7, (1, 3, 1), 0),
    (12, (1, 5, 7), 2),
    (18, (10, 15, 11), 3),
    (45, (19, 17, 32), 5),
]


@pytest.mark.parametrize("case", RESTRICTION_CASES, ids=case_id)
def test_resolution_restricts_to_each_cone_after_the_first_step(case):
    # compatibility with open immersions: resolving a cone of the fan after
    # the first step on its own, with its marked rays in marking order,
    # gives exactly the cones of the full resolution that lie inside it
    m, trace = traced(case)
    first = trace.ray_groups[0]
    fan = star_subdivide(m.fan, first, trace.hint_groups[0])
    marking = m.marked_rays + first
    final = trace.final.fan.cones
    for sigma in fan.sorted_cones():
        marked = [r for r in marking if r in sigma.generators]
        alone = resolve(MarkedFan(Fan(fan.rank, [sigma]), marked, m.characteristic))
        inside = {c for c in final if all(sigma.contains(g) for g in c.generators)}
        assert alone.final.fan.cones == inside


BASE_CHANGE_CASES = [
    (31, (1, 5, 11), 0),
    (97, (1, 13, 41), 0),
    (13, (1, 3, 5, 7), 0),
    (12, (1, 5, 7), 2),
    (18, (10, 15, 11), 3),
    (45, (19, 17, 32), 5),
    (7, (1, 3, 1), 0),
    (61, (1, 11, 23), 0),
    (5, (1, 2), 0),
    (25, (1, 7), 5),
]


def _pad(v):
    return IntegerVector(v.entries + (0,))


def _times_ray(fan):
    """The product of ``fan`` with the ray of a new last coordinate."""
    e = IntegerVector((0,) * fan.rank + (1,))
    return Fan(
        fan.rank + 1,
        [Cone(fan.rank + 1, [_pad(g) for g in c.generators] + [e]) for c in fan.cones],
    )


@pytest.mark.parametrize("case", BASE_CHANGE_CASES, ids=case_id)
def test_resolution_commutes_with_smooth_base_change(case):
    # F x A^1: every ray gains a 0 coordinate and every cone the new unit
    # ray, which is left unmarked; resolving the product is the product of
    # the resolution, step by step
    order, chars, p = case
    m = marked_fan_from_characters(order, chars, p)
    trace = resolve(m)
    moved = resolve(
        MarkedFan(_times_ray(m.fan), [_pad(r) for r in m.marked_rays], p)
    )
    assert moved.final.fan == _times_ray(trace.final.fan)
    assert moved.ray_groups == tuple(
        tuple(_pad(u) for u in group) for group in trace.ray_groups
    )
    assert [s.phase for s in moved.steps] == [s.phase for s in trace.steps]


@pytest.mark.parametrize("case", RANK2, ids=case_id)
def test_rank2_exceptional_rays_are_hirzebruch_jung(case):
    order, (a, _), _ = case
    m, trace = traced(case)
    assert set(trace.exceptional_rays) == set(hj_rays(order, a))
    assert len(trace.exceptional_rays) == len(hj_rays(order, a))
    (cone,) = m.fan.cones
    assert sorted(r.entries for r in hj_cone_rays(cone)) == sorted(
        r.entries for r in hj_rays(order, a)
    )


def _env(extra=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    env.update(extra or {})
    return env


def _run(args, env_extra=None, flags=()):
    return subprocess.run(
        [sys.executable, *flags, "-c", *args],
        env=_env(env_extra),
        capture_output=True,
        text=True,
        timeout=120,
    )


TRACE_DIGESTS = """
import hashlib
from qres.fanfile import emit_trace
from qres.resolution_engine import marked_fan_from_characters, resolve
for order, chars, p in [(31, (1, 5, 11), 0), (13, (1, 3, 5, 7), 0), (12, (1, 5, 7), 2)]:
    text = emit_trace(resolve(marked_fan_from_characters(order, chars, p)))
    print(hashlib.sha256(text.encode()).hexdigest())
"""


def test_trace_bytes_do_not_depend_on_hash_seed():
    outs = []
    for seed in ("0", "4242"):
        proc = _run([TRACE_DIGESTS], {"PYTHONHASHSEED": seed})
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    expected = [
        hashlib.sha256(fanfile.emit_trace(traced(case)[1]).encode()).hexdigest()
        for case in CASES[:3]
    ]
    assert outs[0].split() == expected


TAMPERED_RESOLVE = """
import sys
from qres import cli
from qres.resolution_engine import ResolutionTrace, resolve

assert not __debug__, "run under python -O"

def dropping_last_step(m):
    trace = resolve(m)
    return ResolutionTrace(trace.input_digest, trace.steps[:-1], trace.final)

cli.resolve = dropping_last_step
sys.exit(cli.main(["resolve", sys.argv[1]]))
"""


def test_replay_check_survives_python_O(tmp_path):
    fan_file = tmp_path / "fan.jsonl"
    fan_file.write_text(
        fanfile.emit_fan(marked_fan_from_characters(31, (1, 5, 11))), encoding="utf-8"
    )
    proc = _run([TAMPERED_RESOLVE, str(fan_file)], flags=("-O",))
    assert proc.returncode == 4, proc.stderr
    assert "does not replay" in proc.stderr


def test_resolve_command_succeeds(tmp_path, capsys):
    fan_file = tmp_path / "fan.jsonl"
    fan_file.write_text(
        fanfile.emit_fan(marked_fan_from_characters(12, (1, 5, 7), 2)), encoding="utf-8"
    )
    assert cli.main(["resolve", str(fan_file), "--json"]) == 0
    assert '"smooth":true' in capsys.readouterr().out


def test_resolve_command_checks_smoothness_in_one_pass(tmp_path, capsys, monkeypatch):
    # resolve's closing check, the trace's certificates record and the JSON
    # summary all report whether the final fan is smooth; one pass of
    # multiplicity over the final cones answers all three (it took three)
    fan_file = tmp_path / "fan.jsonl"
    fan_file.write_text(
        fanfile.emit_fan(marked_fan_from_characters(31, (1, 5, 11))), encoding="utf-8"
    )
    seen = []
    real_multiplicity = resolution_engine.multiplicity
    monkeypatch.setattr(
        resolution_engine, "multiplicity", lambda c: seen.append(c) or real_multiplicity(c)
    )
    traces = []
    real_resolve = cli.resolve
    monkeypatch.setattr(cli, "resolve", lambda m: traces.append(real_resolve(m)) or traces[-1])
    out = tmp_path / "out.trace"
    assert cli.main(["resolve", str(fan_file), "--emit-trace", str(out), "--json"]) == 0
    assert '"smooth":true' in capsys.readouterr().out
    assert '"all_smooth":true' in out.read_text(encoding="utf-8")
    final = list(traces[0].final.fan.cones)
    passes = sum(seen[k : k + len(final)] == final for k in range(len(seen)))
    assert passes == 1


OVERLAPPING_FAN = "\n".join(
    [
        '{"characteristic":"0","rank":"3","record":"fan"}',
        '{"id":"0","record":"ray","v":["1","0","0"]}',
        '{"id":"1","record":"ray","v":["0","1","0"]}',
        '{"id":"2","record":"ray","v":["0","0","1"]}',
        '{"id":"3","record":"ray","v":["1","1","1"]}',
        '{"rays":["0","1","2"],"record":"cone"}',
        '{"rays":["0","2","3"],"record":"cone"}',
    ]
) + "\n"


def test_classify_rejects_overlapping_cones(tmp_path, capsys):
    fan_file = tmp_path / "fan.jsonl"
    fan_file.write_text(OVERLAPPING_FAN, encoding="utf-8")
    assert cli.main(["classify", str(fan_file), "--json"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "cones do not intersect along common faces" in captured.err


def test_classify_runs_one_smith_normal_form_per_singular_cone(tmp_path, monkeypatch):
    # a smooth cone (det 1) is answered without a Smith normal form; the
    # fans after one and two blow-ups of 1/31(1,5,11) mix both kinds
    m = marked_fan_from_characters(*CASES[0])
    fans = []
    for _ in range(2):
        m = resolution_engine.blowup_step(m)[0]
        fans.append(m)
    fans.append(traced(CASES[0])[1].final)
    real = quotient_classifier.smith_elimination
    calls = []
    monkeypatch.setattr(
        quotient_classifier,
        "smith_elimination",
        lambda rows: calls.append(rows) or real(rows),
    )
    fan_file = tmp_path / "fan.jsonl"
    singular = []
    for m in fans:
        fan_file.write_text(fanfile.emit_fan(m), encoding="utf-8")
        calls.clear()
        quotient_classifier.cone_characters.cache_clear()
        assert cli.main(["classify", str(fan_file), "--json"]) == 0
        singular.append(sum(c.det != 1 for c in m.fan.cones))
        assert len(calls) == singular[-1]
    assert 0 < singular[0] < len(fans[0].fan.cones)
    assert singular[-1] == 0


# sha256 of the classify report, --json and text, of the fans of 1/31(1,5,11)
# after one blow-up step and at the end, as recorded before classify
# formatted each ray once per report, and of the final fan of 1/8(4,3,2,7),
# rank 4 and smooth, whose fan check sends 45 pairs to Fourier-Motzkin, as
# recorded before the check substituted the common rays' equalities and
# before classify wrote its records directly (the package CI job checks the
# --json sha256 in a bare venv)
CLASSIFY_PINS = [
    (
        "step",
        CASES[0],
        "e8d9578e69021bc144b2d589beb3810963c5384f7d94157a5e8b82319b040b4b",
        "a699e8834a3256aee307a11b85fcb61eea2a3e2220c819bf3e5650f7d2a99cc1",
    ),
    (
        "final",
        CASES[0],
        "a1a9b99b568300b2db7f28ed774626012189d5fd5830d99c7ef99f1b7928f6ad",
        "fec6b466072f64865358014e614a6bc968d5de7a0f18d33b53ba2d1670dfa755",
    ),
    (
        "final-rank4",
        (8, (4, 3, 2, 7), 0),
        "c396d4dbe3e5fb2ea5c127eef6f20be5749363033a0eca3bbb50f2bdca9a61d1",
        "b9133f5bc44f710e99b1e98ace8db06aa75c4d00fba6cf8db347cc630a04850a",
    ),
]


@pytest.mark.parametrize(
    "which, case, json_sha, text_sha", CLASSIFY_PINS, ids=[pin[0] for pin in CLASSIFY_PINS]
)
def test_classify_report_bytes_are_pinned(which, case, json_sha, text_sha, tmp_path, capsys):
    m, trace = traced(case)
    fan = resolution_engine.blowup_step(m)[0] if which == "step" else trace.final
    fan_file = tmp_path / "fan.jsonl"
    fan_file.write_text(fanfile.emit_fan(fan), encoding="utf-8")
    for flags, sha in ((["--json"], json_sha), ([], text_sha)):
        assert cli.main(["classify", str(fan_file), *flags]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == sha


def test_glue_check_rejects_negative_samples(capsys):
    assert cli.main(["glue-check", "1/7(1,3,1)", "--samples", "-3"]) == 2
    assert "--samples" in capsys.readouterr().err


def test_glue_check_names_a_type_without_a_unit_divisor_as_typed(capsys):
    assert cli.main(["glue-check", "1/7(1,3,0)", "--samples", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "last coordinate of 1/7(1,3,0) must carry a unit character" in captured.err


@pytest.mark.parametrize(
    "pair, message",
    [
        (("5", "7"), "need 0 < a < l, got a=7, l=5"),
        (("5", "0"), "need 0 < a < l, got a=0, l=5"),
        (("6", "3"), "a=3 and l=6 are not coprime"),
    ],
    ids=["above", "zero", "not-coprime"],
)
def test_hj_rejects_a_pair_outside_its_precondition(pair, message, capsys):
    # like every other numeric precondition, not invalid input (exit 3)
    assert cli.main(["hj", *pair]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize(
    "argv", [["--bound", "0"], ["--bound", "-1"]], ids=["flag", "flag-negative"]
)
def test_hilbert_rejects_a_bound_below_one(argv, capsys):
    # a bad numeric option is a precondition violation (exit 2) like
    # --samples -1 above, not invalid input (exit 3)
    assert cli.main(["hilbert", "1/5(1,2)", *argv]) == 2
    assert "degree bound must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv", [["--kmax", "0"], ["--kmax", "-1"]], ids=["flag-0", "flag-negative"]
)
def test_glue_check_rejects_a_truncation_below_one(argv, capsys):
    # glue_check is vacuous below degree 1, so it used to report "ok":true
    assert cli.main(["glue-check", "1/7(1,3,1)", "--samples", "2", "--json", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "truncation bound must be at least 1" in captured.err


def test_oracle_check_passes_on_a_rank2_fan(tmp_path, capsys):
    fan_file = tmp_path / "fan.jsonl"
    fan_file.write_text(
        fanfile.emit_fan(marked_fan_from_characters(101, (37, 1))), encoding="utf-8"
    )
    assert cli.main(["resolve", str(fan_file), "--oracle-check"]) == 0
    out = capsys.readouterr().out
    assert f"oracle check: ok ({len(hj_rays(101, 37))} rays verified)" in out


def test_oracle_check_of_a_rank3_fan_exits_2_before_resolving(tmp_path, capsys, monkeypatch):
    # the rank was checked after the resolve, which had written the trace
    fan_file = tmp_path / "fan.jsonl"
    fan_file.write_text(
        fanfile.emit_fan(marked_fan_from_characters(31, (1, 5, 11))), encoding="utf-8"
    )
    monkeypatch.setattr(cli, "resolve", lambda m: pytest.fail("resolve ran"))
    out = tmp_path / "out.trace"
    argv = ["resolve", str(fan_file), "--emit-trace", str(out), "--oracle-check"]
    assert cli.main(argv) == 2
    assert not out.exists()
    assert "--oracle-check requires a rank-2 fan" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["missing-dir", "directory", "empty", "read-only-dir"])
@pytest.mark.parametrize("command", ["resolve", "blowup"])
def test_unwritable_output_path_exits_3_with_one_line(
    command, kind, tmp_path, capsys, monkeypatch
):
    # exit 1 belongs to a broken glue-check; an output path that cannot be
    # written is invalid input, reported on one line without a traceback,
    # and before the resolve or the blow-up runs
    monkeypatch.setattr(cli, "resolve", lambda m: pytest.fail("resolve ran"))
    monkeypatch.setattr(cli, "blowup_step", lambda m: pytest.fail("blowup_step ran"))
    fan_file = tmp_path / "fan.jsonl"
    fan_file.write_text(
        fanfile.emit_fan(marked_fan_from_characters(31, (1, 5, 11))), encoding="utf-8"
    )
    if kind == "missing-dir":
        out, reason = tmp_path / "missing" / "x.out", os.strerror(errno.ENOENT)
    elif kind == "directory":
        out, reason = tmp_path, os.strerror(errno.EISDIR)
    elif kind == "empty":
        # an empty path is a path, not the absence of one: it names the
        # working directory
        monkeypatch.chdir(tmp_path)
        out, reason = "", os.strerror(errno.EISDIR)
    else:
        locked = tmp_path / "locked"
        locked.mkdir(mode=0o500)
        out, reason = locked / "x.out", os.strerror(errno.EACCES)
        if os.geteuid() == 0:
            # root may write into a read-only directory, so the permission
            # test that a normal user fails is made to fail here
            real_access = os.access
            monkeypatch.setattr(
                os, "access", lambda p, mode: Path(p) != locked and real_access(p, mode)
            )
    flag = "--emit-trace" if command == "resolve" else "--emit"
    assert cli.main([command, str(fan_file), flag, str(out)]) == 3
    err = capsys.readouterr().err
    assert err == f"error: cannot write {out}: {reason}\n"
    assert not (tmp_path / "missing").exists()
    assert not Path(out).is_file()


def test_closed_stdout_exits_141_without_traceback():
    proc = subprocess.Popen(
        [sys.executable, "-m", "qres.cli", "hj", "1000003", "999", "--rays"],
        env=_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    # with no reader left, the first write fails with a broken pipe
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 141
    assert err == b""
