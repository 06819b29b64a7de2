"""The blow-up loop end to end: smooth result, dropping measures, traces.

Covers the paper's main claim on a few ladder types in characteristic 0, 2,
3 and 5, the chart orders of every step, one evaluation of the measure per
fan state, the fan and trace round trips, replay with missing, wrong and
stale hints, pinned traces of larger types and bounds on the containment
tests, sorts, multiplicities and subdivisions of one of them, the state each
step carries to the next against a rebuild from the fan, the chart pieces
against a fresh subdivision of their center, functoriality under lattice
automorphisms, permutations of the characters, restriction to the cones
after one step and smooth base change (the product with a ray),
independence of the trace bytes from the hash seed, and the command-line
checks, some of which must survive ``python -O``.
"""

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
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
from qres.errors import FanParseError, ReplayError
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


def _no_hints(ray_groups):
    return tuple((None,) * len(group) for group in ray_groups)


def _document(trace, ray_groups=None, hint_groups=None):
    return TraceDocument(
        trace.input_digest,
        trace.ray_groups if ray_groups is None else ray_groups,
        trace.final,
        trace.hint_groups if hint_groups is None else hint_groups,
    )


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_replay_does_not_depend_on_hints(case):
    m, trace = traced(case)
    doc = fanfile.parse_trace(fanfile.emit_trace(trace))
    assert doc.hint_groups == trace.hint_groups
    assert all(h is not None for group in doc.hint_groups for h in group)
    # no hints at all, and every hint replaced by a cone not containing its ray
    outside = Cone(m.fan.rank, [-g for g in next(iter(m.fan.cones)).generators])
    wrong = tuple(tuple(outside for _ in group) for group in trace.ray_groups)
    assert not any(outside.contains(u) for u in trace.exceptional_rays)
    for hints in (_no_hints(trace.ray_groups), wrong):
        assert replay(m, _document(trace, hint_groups=hints)) == trace.final.fan


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


def test_replay_falls_back_when_a_hint_face_was_split_in_the_group():
    m = marked_fan_from_characters(31, (1, 5, 11))
    (sigma,) = m.fan.cones
    e1, e2, w = sigma.generators
    # e1 + e2 splits the face of e1, e2 and w that the next ray lies inside
    group = (e1 + e2, e1 + e2 + w)
    assert all(sigma.contains(u) for u in group)
    final = m.fan
    for u in group:
        final = star_subdivide(final, u)
    doc = TraceDocument(
        fan_digest(m), (group,), MarkedFan(final, m.marked_rays + group), ((sigma, sigma),)
    )
    assert replay(m, doc) == final


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
    groups = list(trace.ray_groups)
    groups[k] = groups[k][1:]
    for hints in (trace.hint_groups, _no_hints(groups)):
        with pytest.raises(ReplayError):
            replay(m, _document(trace, tuple(groups), hints))


PINNED_TRACE_SHA256 = "69382e548bce858accc1476909e55b6a498c087527a30c84338d9c2ee1591dbf"


def _count_calls(monkeypatch, modules, fn):
    """Replace every binding of ``fn`` in ``modules`` by a counting wrapper."""
    calls = []

    def counting(*args):
        calls.append(1)
        return fn(*args)

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
    # charts 1,540 _subdivide_cone calls for 770 centers
    calls, sorts = [], []
    for name in ("contains", "numerators"):
        real = getattr(Cone, name)
        monkeypatch.setattr(
            Cone, name, lambda self, v, real=real: calls.append(1) or real(self, v)
        )
    real_key = Cone.sort_key
    monkeypatch.setattr(Cone, "sort_key", lambda self: sorts.append(1) or real_key(self))
    engine_modules = (cones_fans, resolution_engine, quotient_classifier)
    mults = _count_calls(monkeypatch, engine_modules, cones_fans.multiplicity)
    splits = _count_calls(monkeypatch, engine_modules, cones_fans._subdivide_cone)
    trace = resolve(marked_fan_from_characters(211, (1, 37, 101)))
    assert len(calls) <= 5000
    assert len(sorts) <= 8000
    assert len(mults) <= 8000
    assert len(splits) <= 800
    assert sum(len(step.centers) for step in trace.steps) == 770
    assert (len(trace.steps), len(trace.final.fan.cones)) == (56, 1115)
    text = fanfile.emit_trace(trace)
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_TRACE_SHA256


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


@st.composite
def quotient_types(draw, max_order=(60, 24, 12)):
    """Type ``1/l(c)`` of rank 2-4 whose last character is a unit, with a
    characteristic in 0, 2, 3, 5."""
    n = draw(st.integers(2, 4))
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
    """The carried index, groups and measures of ``m`` against a scan of
    every cone of its fan."""
    assert m.fan.ray_index == _rebuilt_index(m.fan)
    mults = {c: multiplicity(c) for c in m.fan.cones}
    groups = {}
    for c, x in mults.items():
        if x > 1:
            groups.setdefault(x, set()).add(c)
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


def _assert_subdivision_leaves_input(fan, u, v):
    """Two subdivisions of one fan at different rays change neither the
    fan's index nor the first result."""
    before = {g: set(cs) for g, cs in fan.ray_index.items()}
    first = star_subdivide(fan, u)
    kept = {g: set(cs) for g, cs in first.ray_index.items()}
    second = star_subdivide(fan, v)
    assert fan.ray_index == before
    assert first.ray_index == kept == _rebuilt_index(first)
    assert second.ray_index == _rebuilt_index(second)
    assert star_subdivide(fan, u) == first


def _interior_ray(fan, u):
    """A primitive point inside the first cone other than ``u``: the sum of
    the generators plus one of them, which gives pairwise distinct rays."""
    c = fan.sorted_cones()[0]
    for g in c.generators:
        e = [sum(col) for col in zip(g.entries, *(h.entries for h in c.generators))]
        d = math.gcd(*e)
        v = IntegerVector([x // d for x in e])
        if v != u:
            return v


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
        u = _center_for(m, _targets(m, (nt or inv)[0])[0]).ray
        _assert_subdivision_leaves_input(m.fan, u, _interior_ray(m.fan, u))
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


def test_chart_pieces_are_recomputed_when_an_earlier_ray_split_the_center(monkeypatch):
    # two centers of one engine step never split each other's cones (a
    # center ray inside another target lies on a face carrying that
    # target's whole group, so it is that target's center too), so the step
    # is built by hand: e1 + e2 splits sigma before its center ray
    m = marked_fan_from_characters(31, (1, 5, 11))
    (sigma,) = m.fan.cones
    e1, e2, _ = sigma.generators
    center = _center_for(m, sigma)
    done = Subdivision()
    star_subdivide(m.fan, e1 + e2, center.ray, hints=(sigma, sigma), record=done)
    assert (sigma, center.ray) not in done.pieces
    calls = _count_calls(monkeypatch, (resolution_engine,), _subdivide_cone)
    charts = resolution_engine._local_charts(center, 0, done)
    assert len(calls) == 1
    assert _cone_data(ch.cone for ch in charts) == _cone_data(
        _subdivide_cone(sigma, center.ray)
    )


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
    fan = star_subdivide(m.fan, *first)
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
    real = quotient_classifier.smith_normal_form
    calls = []
    monkeypatch.setattr(
        quotient_classifier, "smith_normal_form", lambda m: calls.append(m) or real(m)
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


def test_glue_check_rejects_negative_samples(capsys):
    assert cli.main(["glue-check", "1/7(1,3,1)", "--samples", "-3"]) == 2
    assert "--samples" in capsys.readouterr().err


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
