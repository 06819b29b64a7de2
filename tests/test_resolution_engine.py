"""The blow-up loop end to end: smooth result, dropping measures, traces.

Covers the paper's main claim on a few ladder types in characteristic 0, 2,
3 and 5, the chart orders of every step, one evaluation of the measure per
fan state, that iterating ``blowup_step``, also through the fan files
``qres blowup --emit`` writes, takes exactly ``resolve``'s steps, the fan
and trace round trips, replay with any center of a ray
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

import dataclasses
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
from qres.errors import FanParseError, MeasureError, PreconditionError, ReplayError
from qres.exact_lattice import IntegerVector
from qres.fanfile import TraceDocument
from qres.hj_oracle import hj_cone_rays, hj_rays
from qres.resolution_engine import (
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

import pins

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
    assert doc.subdivisions == trace.subdivisions
    assert doc.final == trace.final
    assert replay(m, doc) == trace.final.fan
    assert '"measure_decreasing":true' in text


@pytest.mark.parametrize("case", [CASES[0], CASES[2]], ids=case_id)
def test_a_step_whose_measure_does_not_drop_turns_the_verdict_false(case):
    # the first step of the phase the case starts in keeps its measure: the
    # trace's verdict turns false and the certificates record says so
    _, trace = traced(case)
    assert trace.measure_decreasing is True
    first = trace.steps[0]
    if first.phase == PHASE_NON_TAME:
        broken = dataclasses.replace(first, nontame_after=first.nontame_before)
    else:
        broken = dataclasses.replace(first, invariant_after=first.invariant_before)
    edited = dataclasses.replace(trace, steps=(broken, *trace.steps[1:]))
    assert edited.measure_decreasing is False
    assert fanfile.emit_trace(edited).endswith(
        '{"all_smooth":true,"measure_decreasing":false,"record":"certificates"}\n'
    )


def _document(trace, subdivisions):
    return TraceDocument(trace.input_digest, subdivisions, trace.final)


def _last_centers(trace):
    """Each added ray with the last center cone naming it; the trace keeps
    the first."""
    out = []
    for step in trace.steps:
        cone_of = {center.ray: center.cone for center in step.centers}
        out.extend((u, cone_of[u]) for u in step.added_rays)
    return tuple(out)


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_replay_does_not_depend_on_hints(case):
    # a center cone only names the face its ray lies in, so every center of
    # a ray replays to the same fan (rank 3 and 4 cases have rays that
    # several centers name)
    m, trace = traced(case)
    doc = fanfile.parse_trace(fanfile.emit_trace(trace))
    assert doc.subdivisions == trace.subdivisions
    assert replay(m, _document(trace, _last_centers(trace))) == trace.final.fan


def test_replay_rejects_a_center_not_containing_its_ray():
    m, trace = traced(CASES[0])
    outside = Cone(m.fan.rank, [-g for g in next(iter(m.fan.cones)).generators])
    assert not any(outside.contains(u) for u in trace.exceptional_rays)
    (u, _), *rest = trace.subdivisions
    wrong = ((u, outside), *rest)
    with pytest.raises(ReplayError, match="does not lie in"):
        replay(m, _document(trace, wrong))


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
    assert replay(m, TraceDocument(fan_digest(m), tuple(zip(group, found)), marked)) == final
    stale = TraceDocument(fan_digest(m), ((group[0], sigma), (group[1], sigma)), marked)
    with pytest.raises(ReplayError, match="is not a cone of the fan"):
        replay(m, stale)


def test_replay_rejects_a_ray_outside_the_support_despite_a_hint():
    m, trace = traced(CASES[0])
    outside = -trace.exceptional_rays[0]
    hint = trace.subdivisions[0][1]
    with pytest.raises(ReplayError, match="cannot be applied"):
        replay(m, _document(trace, ((outside, hint),) + trace.subdivisions))


def test_replay_rejects_a_group_with_a_ray_dropped():
    m, trace = traced(CASES[0])
    # the first ray of the first step that adds more than one
    k = next(i for i, s in enumerate(trace.steps) if len(s.added_rays) > 1)
    drop = sum(len(s.added_rays) for s in trace.steps[:k])
    kept = trace.subdivisions[:drop] + trace.subdivisions[drop + 1 :]
    with pytest.raises(ReplayError):
        replay(m, _document(trace, kept))


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


FEW_CONES_CASE = (211, (1, 37, 101), 0)


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
    trace = resolve(marked_fan_from_characters(*FEW_CONES_CASE))
    assert len(calls["contains"]) + len(calls["numerators"]) <= 5000
    assert len(calls["numerators"]) <= 1400
    assert len(sorts) <= 8000
    assert len(mults) <= 8000
    assert len(splits) <= 800
    assert sum(len(step.centers) for step in trace.steps) == 770
    assert pins.trace_pin(trace) == pins.TRACES[FEW_CONES_CASE]


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


@pytest.mark.parametrize(
    "case", [case for case in pins.TRACES if case != FEW_CONES_CASE], ids=case_id
)
def test_larger_types_keep_their_traces(case):
    assert pins.resolved_trace(case) == pins.TRACES[case]


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
        if inv[0] == 1:
            break
        child, record = _apply_step(m, inv, nt, {})
        center = record.centers[0]
        u = center.ray
        _assert_subdivision_leaves_input(m.fan, u, center.cone, *_interior_ray(m.fan, u))
        m, inv, nt = child, record.invariant_after, record.nontame_after


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
    # as the first step of the resolve
    m, trace = traced(case)
    for step in trace.steps:
        for charts in step.charts:
            for chart in charts:
                order, chars = quotient_classifier.cone_characters(chart.cone)
                fresh = quotient_classifier.CyclicQuotientType(order, chars)
                assert chart.chart_type == fresh
                assert str(chart.chart_type) == str(fresh)
    assert resolution_engine.blowup_step(m)[1] == trace.steps[0]


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_iterated_blowup_step_takes_the_steps_of_resolve(case):
    # blowup_step takes resolve's next step, non-tame phase included, so a
    # blowup applied to the fan the last one emitted continues the resolution
    m, trace = traced(case)
    for step in trace.steps:
        m, record = resolution_engine.blowup_step(m)
        assert record == step
    assert m == trace.final
    with pytest.raises(PreconditionError, match="already smooth"):
        resolution_engine.blowup_step(m)


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
        resolution_engine._local_charts(center, 0, done, classes, {})


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
    first = trace.steps[0].added_rays
    fan = star_subdivide(m.fan, first, [c for _, c in trace.subdivisions[: len(first)]])
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
    assert [s.added_rays for s in moved.steps] == [
        tuple(_pad(u) for u in s.added_rays) for s in trace.steps
    ]
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


def test_blowup_of_its_own_emitted_fan_takes_the_next_step_of_resolve(tmp_path, capsys):
    # each blowup reads the fan the one before it emitted, so the second
    # report lists the centers of resolve's second step, a non-tame one
    m = marked_fan_from_characters(97, (1, 13, 41), 2)
    steps = resolve(m).steps[:2]
    assert steps[1].phase == PHASE_NON_TAME
    fan_file = tmp_path / "fan.jsonl"
    fan_file.write_text(fanfile.emit_fan(m), encoding="utf-8")
    for step in steps:
        assert cli.main(["blowup", str(fan_file), "--json", "--emit", str(fan_file)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert [(c["cone"], c["order"]) for c in report["centers"]] == [
            (["(" + ",".join(map(str, g)) + ")" for g in c.cone.generators], str(c.order))
            for c in step.centers
        ]
        assert report["added"] == [[str(e) for e in u] for u in step.added_rays]


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


@pytest.mark.parametrize("fan", pins.CLASSIFY_SHA256)
def test_classify_report_bytes_are_pinned(fan):
    assert pins.classify_sha256(fan) == pins.CLASSIFY_SHA256[fan]


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
