"""Trace parsing: error messages, step indices and the cost of a parse.

A fan file's ray of the wrong rank, a ray repeating another's vector and a
cone naming one ray id twice are reported at their lines, a header rank
below 1 at the header line of a fan or trace file, and every added ray of
a trace must be the ray of a center of its step.

The parse errors for bad vector payloads in every kind of record are pinned
as they read before ``parse_trace`` shared one vector per distinct payload,
including payloads that equal a valid one as Python tuples (``[true,0,0]``
after ``[1,0,0]``) or as a tuple of characters (``"100"``), which a memo
keyed too loosely would accept, and strings ``int`` alone reads although
they are not an optional ``-`` and ASCII digits (``"1_0"``, ``" 1 "``,
``"+1"``, an Arabic-Indic digit), which ``qres classify`` rejects with exit
3.  Step indices must run ``0..N-1``, the final fan's markings must be a
list, every vector must have the header's rank and there must be one final
fan record; replay checks the final marking and characteristic against the
input.  Parsing and replaying a
trace builds every recorded center and final cone, but by the closed-form
kernel, without a Bareiss elimination, and leaves every final cone, parsed
or replayed, without cofactor rows.

``emit_trace`` writes its step and final fan records without a JSON
encoder; its bytes are compared with the encoder's on the ladder cases and
a sweep of quotient types, non-tame charts and ``null`` measures included.
"""

import json

import pytest
from hypothesis import example, given, settings
from test_resolution_engine import CASES, case_id, quotient_types, traced

from qres import cli, exact_lattice, fanfile
from qres.cones_fans import Cone
from qres.errors import FanParseError, MeasureError, ReplayError
from qres.resolution_engine import (
    _check_step_measure,
    marked_fan_from_characters,
    replay,
    resolve,
)

TEXT = fanfile.emit_trace(resolve(marked_fan_from_characters(31, (1, 5, 11))))
# line numbers in TEXT: the header, 18 steps, the final fan, the certificates
FIRST_STEP, LAST_STEP, FINAL = 2, 19, 20


def records():
    return {i: json.loads(line) for i, line in enumerate(TEXT.splitlines(), start=1)}


def parse_error(recs):
    text = "\n".join(json.dumps(recs[i]) for i in sorted(recs)) + "\n"
    with pytest.raises(FanParseError) as info:
        fanfile.parse_trace(text)
    return str(info.value), info.value.line


def _put_added(recs, bad):
    recs[LAST_STEP]["added"][0] = bad


def _put_center_ray(recs, bad):
    recs[LAST_STEP]["centers"][0]["ray"] = bad


def _put_center_cone(recs, bad):
    recs[LAST_STEP]["centers"][0]["cone"][0] = bad


def _put_final(recs, bad):
    recs[FINAL]["cones"][0][0] = bad


def _put_marked(recs, bad):
    recs[FINAL]["marked"][0] = bad


# where a bad payload goes, the name the error gives it and its line
LOCATIONS = {
    "added": (_put_added, "added ray", LAST_STEP),
    "center-ray": (_put_center_ray, "center ray", LAST_STEP),
    "center-cone": (_put_center_cone, "center cone ray", LAST_STEP),
    "final": (_put_final, "cone ray", FINAL),
    "marked": (_put_marked, "marked ray", FINAL),
}

# each bad payload and the error text after its name, as parse_trace gave
# them before it shared vectors between records
PAYLOADS = {
    "string": ("100", "must be a nonempty list of integers"),
    "number": (100, "must be a nonempty list of integers"),
    "empty": ([], "must be a nonempty list of integers"),
    "boolean": ([True, "0", "0"], "must be an integer, got a boolean"),
    "float": ([1.0, "0", "0"], "must be a decimal string, got float"),
    "word": (["x", "0", "0"], "is not a decimal integer: 'x'"),
    "hex": (["0x1", "0", "0"], "is not a decimal integer: '0x1'"),
    "nested": ([["1"], "0", "0"], "must be a decimal string, got list"),
    "dict": ([{"1": "0"}, "0", "0"], "must be a decimal string, got dict"),
    "boolean-after-int": ([True, 0, 0], "must be an integer, got a boolean"),
    # int() alone reads these as 10, 1, 1 and 1: a decimal integer is an
    # optional "-" and ASCII digits, nothing else
    "underscore": (["1_0", "0", "0"], "is not a decimal integer: '1_0'"),
    "spaces": ([" 1 ", "0", "0"], "is not a decimal integer: ' 1 '"),
    "arabic-indic": (["\u0661", "0", "0"], "is not a decimal integer: '\u0661'"),
    "plus": (["+1", "0", "0"], "is not a decimal integer: '+1'"),
}


@pytest.mark.parametrize("payload", PAYLOADS)
@pytest.mark.parametrize("location", LOCATIONS)
def test_bad_vector_payload_errors_are_unchanged(location, payload):
    put, what, line = LOCATIONS[location]
    bad, detail = PAYLOADS[payload]
    recs = records()
    # ["1","0","0"] is already a generator of the first center cone; for the
    # last case the same ray is written with JSON integers instead
    center_cone = recs[FIRST_STEP]["centers"][0]["cone"]
    assert center_cone[2] == ["1", "0", "0"]
    if payload == "boolean-after-int":
        center_cone[2] = [1, 0, 0]
    put(recs, bad)
    assert parse_error(recs) == (f"line {line}: {what} {detail}", line)


@pytest.mark.parametrize(
    "cone, detail",
    [
        ([["0", "0", "0"], ["0", "1", "0"], ["1", "0", "0"]], "the zero vector cannot generate a ray"),
        ([["2", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]], "ray generator (2, 0, 0) is not primitive"),
        ([["1", "0", "0"], ["0", "1", "0"], ["1", "1", "0"]], "generators are linearly dependent"),
    ],
    ids=["zero", "non-primitive", "dependent"],
)
def test_invalid_final_cone_errors_are_unchanged(cone, detail):
    recs = records()
    recs[FINAL]["cones"][0] = cone
    assert parse_error(recs) == (f"line {FINAL}: invalid final cone: {detail}", FINAL)


@pytest.mark.parametrize("marked", [5, None, {"0": "1"}], ids=["number", "null", "object"])
def test_marked_rays_must_be_a_list(marked):
    # a number or null raised a bare TypeError from iterating the payload,
    # and an object was read as the list of its keys
    recs = records()
    recs[FINAL]["marked"] = marked
    assert parse_error(recs) == (
        f"line {FINAL}: final_fan 'marked' must be a list of rays", FINAL
    )


@pytest.mark.parametrize(
    "location, ray, what",
    [("added", ["1", "0"], "added ray (1, 0) has rank 2"),
     ("center-ray", ["1", "0", "0", "1"], "center ray (1, 0, 0, 1) has rank 4")],
    ids=["added", "center-ray"],
)
def test_ray_of_another_rank_is_a_parse_error(location, ray, what):
    # these rays are built by no cone constructor, so replay used to meet
    # them first and let a bare DimensionError escape
    put, _, line = LOCATIONS[location]
    recs = records()
    put(recs, ray)
    assert parse_error(recs) == (f"line {line}: {what}, expected 3", line)


def test_duplicate_final_fan_is_a_parse_error():
    # a second record used to replace the first without a word
    recs = records()
    recs[FINAL + 2] = recs[FINAL]
    assert parse_error(recs) == (f"line {FINAL + 2}: duplicate final_fan record", FINAL + 2)


def test_added_ray_that_no_center_names_is_a_parse_error():
    # replay used to find the star of such a ray by scanning every cone
    recs = records()
    ray = recs[LAST_STEP]["added"][0]
    centers = recs[LAST_STEP]["centers"]
    recs[LAST_STEP]["centers"] = [c for c in centers if c["ray"] != ray]
    message = f"added ray ({', '.join(ray)}) is the ray of no center of its step"
    assert parse_error(recs) == (f"line {LAST_STEP}: {message}", LAST_STEP)


FAN_WITH_A_SHORT_RAY = "\n".join(
    [
        '{"characteristic":"0","rank":"3","record":"fan"}',
        '{"id":"0","record":"ray","v":["1","0","0"]}',
        '{"id":"1","record":"ray","v":["0","1"]}',
        '{"id":"2","record":"ray","v":["0","0","1"]}',
        '{"rays":["0","1","2"],"record":"cone"}',
    ]
) + "\n"


def test_fan_ray_of_another_rank_is_reported_at_its_line(tmp_path, capsys):
    # the check runs once the header's rank is known, after the last line
    with pytest.raises(FanParseError) as info:
        fanfile.parse_fan(FAN_WITH_A_SHORT_RAY)
    assert info.value.line == 3
    fan_file = tmp_path / "fan.jsonl"
    fan_file.write_text(FAN_WITH_A_SHORT_RAY, encoding="utf-8")
    assert cli.main(["classify", str(fan_file)]) == 3
    assert capsys.readouterr().err == "error: line 3: ray 1 has rank 2, expected 3\n"


FAN_NAMING_A_RAY_TWICE = "\n".join(
    [
        '{"characteristic":"0","rank":"3","record":"fan"}',
        '{"id":"0","record":"ray","v":["1","0","0"]}',
        '{"id":"1","record":"ray","v":["0","1","0"]}',
        '{"id":"2","record":"ray","v":["0","0","1"]}',
        '{"rays":["0","0","1"],"record":"cone"}',
    ]
) + "\n"


def test_cone_naming_a_ray_twice_is_rejected(tmp_path, capsys):
    # the Cone constructor drops a repeated generator, so without the check
    # the record would read as the cone on rays 0 and 1
    with pytest.raises(FanParseError) as info:
        fanfile.parse_fan(FAN_NAMING_A_RAY_TWICE)
    assert info.value.line == 5
    fan_file = tmp_path / "fan.jsonl"
    fan_file.write_text(FAN_NAMING_A_RAY_TWICE, encoding="utf-8")
    assert cli.main(["classify", str(fan_file)]) == 3
    assert capsys.readouterr().err == "error: line 5: cone names ray id 0 twice\n"


FAN_REPEATING_A_RAY = "\n".join(
    [
        '{"characteristic":"0","rank":"2","record":"fan"}',
        '{"id":"0","record":"ray","v":["1","0"]}',
        '{"id":"1","record":"ray","v":["1","0"]}',
        '{"id":"2","record":"ray","v":["0","1"]}',
        '{"rays":["0","1","2"],"record":"cone"}',
    ]
) + "\n"


def test_two_rays_with_one_vector_are_rejected(tmp_path, capsys):
    # the Cone constructor drops a repeated generator, so the cone record
    # used to read as the 2-cone on (0,1) and (1,0) without a word
    with pytest.raises(FanParseError) as info:
        fanfile.parse_fan(FAN_REPEATING_A_RAY)
    assert info.value.line == 3
    fan_file = tmp_path / "fan.jsonl"
    fan_file.write_text(FAN_REPEATING_A_RAY, encoding="utf-8")
    assert cli.main(["classify", str(fan_file)]) == 3
    assert capsys.readouterr().err == "error: line 3: ray 1 repeats the vector of ray 0\n"


FAN_WITH_A_NON_DECIMAL_RAY = "\n".join(
    [
        '{"characteristic":"0","rank":"2","record":"fan"}',
        '{"id":"0","record":"ray","v":["1_0"," 1 "]}',
        '{"id":"1","record":"ray","v":["0","1"]}',
        '{"rays":["0","1"],"record":"cone"}',
    ]
) + "\n"


def test_a_ray_that_int_alone_would_read_is_rejected(tmp_path, capsys):
    # int() reads the ray as (10,1), which classify used to report with exit 0
    fan_file = tmp_path / "fan.jsonl"
    fan_file.write_text(FAN_WITH_A_NON_DECIMAL_RAY, encoding="utf-8")
    assert cli.main(["classify", str(fan_file), "--json"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: line 2: ray coordinates is not a decimal integer: '1_0'\n"
    )


@pytest.mark.parametrize("rank", ["0", "-1"])
def test_a_rank_below_one_is_reported_at_the_header_of_either_file(rank):
    # a trace read the rank and compared the first added ray with it:
    # "line 2: added ray (...) has rank 3, expected 0"
    recs = records()
    recs[1]["rank"] = rank
    assert parse_error(recs) == ("line 1: rank must be positive", 1)
    fan = fanfile.emit_fan(marked_fan_from_characters(31, (1, 5, 11)))
    fan = fan.replace('"rank":"3"', f'"rank":"{rank}"')
    with pytest.raises(FanParseError) as info:
        fanfile.parse_fan(fan)
    assert (str(info.value), info.value.line) == ("line 1: rank must be positive", 1)


def _cut_marking(recs):
    assert len(recs[FINAL]["marked"]) == 58
    recs[FINAL]["marked"] = recs[FINAL]["marked"][:2]
    return "marking"


def _change_characteristic(recs):
    assert recs[1]["characteristic"] == "0"
    recs[1]["characteristic"] = "5"
    return "characteristic"


@pytest.mark.parametrize(
    "edit", [_cut_marking, _change_characteristic], ids=["marking", "characteristic"]
)
def test_replay_checks_the_final_marking_and_characteristic(edit):
    # both mutants parse, and used to replay without an error
    m = marked_fan_from_characters(31, (1, 5, 11))
    recs = records()
    what = edit(recs)
    doc = fanfile.parse_trace("\n".join(json.dumps(recs[i]) for i in sorted(recs)))
    with pytest.raises(ReplayError, match=what):
        replay(m, doc)


def _duplicate_first(lines):
    lines.insert(FIRST_STEP, lines[FIRST_STEP - 1])
    return FIRST_STEP + 1, "duplicate step index 0"


def _drop_index(lines):
    step = json.loads(lines[LAST_STEP - 1])
    del step["index"]
    lines[LAST_STEP - 1] = json.dumps(step)
    return LAST_STEP, "step record needs an 'index'"


def _gap(lines):
    # drop step 5: the 17 left are numbered 0..4 and 6..17, and step 6 moves
    # up to the line step 5 had
    del lines[FIRST_STEP - 1 + 5]
    return FIRST_STEP + 5, "step index 5 is missing"


def _negative(lines):
    step = json.loads(lines[FIRST_STEP - 1])
    step["index"] = "-1"
    lines[FIRST_STEP - 1] = json.dumps(step)
    return FIRST_STEP, "step index -1 is outside 0..17"


@pytest.mark.parametrize(
    "edit",
    [_duplicate_first, _drop_index, _gap, _negative],
    ids=["duplicated", "missing", "gapped", "negative"],
)
def test_step_indices_must_run_from_zero_to_n_minus_one(edit):
    lines = TEXT.splitlines()
    line, message = edit(lines)
    with pytest.raises(FanParseError) as info:
        fanfile.parse_trace("\n".join(lines))
    assert (str(info.value), info.value.line) == (f"line {line}: {message}", line)


def test_steps_are_read_in_index_order():
    lines = TEXT.splitlines()
    lines[FIRST_STEP - 1 : LAST_STEP] = reversed(lines[FIRST_STEP - 1 : LAST_STEP])
    assert fanfile.parse_trace("\n".join(lines)) == fanfile.parse_trace(TEXT)


def test_parse_and_replay_build_every_cone_without_an_elimination(monkeypatch):
    m = marked_fan_from_characters(97, (1, 13, 41))
    text = fanfile.emit_trace(resolve(m))
    eliminations, inits = [], []
    real_bareiss = exact_lattice.bareiss_adjugate
    real_init = Cone.__init__
    monkeypatch.setattr(
        exact_lattice,
        "bareiss_adjugate",
        lambda rows: eliminations.append(rows) or real_bareiss(rows),
    )
    monkeypatch.setattr(
        Cone, "__init__", lambda self, *args: inits.append(1) or real_init(self, *args)
    )
    doc = fanfile.parse_trace(text)
    assert replay(m, doc) == doc.final.fan
    assert eliminations == []
    # 103 final cones and 58 center cones, as before vectors were shared
    assert len(inits) == 161
    # one vector per distinct payload: every ray of the final fan is the
    # object its added record produced
    added = {u: u for group in doc.ray_groups for u in group}
    for cone in doc.final.fan.cones:
        for g in cone.generators:
            assert g not in added or added[g] is g
    assert all(added.get(u, u) is u for u in doc.final.marked_rays)


@pytest.mark.parametrize("case", CASES, ids=[case_id(c) for c in CASES])
def test_parse_and_replay_leave_every_final_cone_without_rows(case):
    # the constructor checks a parsed cone by its determinant, and replay
    # reads the rows of center cones only: no final cone, parsed or
    # replayed, makes its rows
    m, trace = traced(case)
    doc = fanfile.parse_trace(fanfile.emit_trace(trace))
    fan = replay(m, doc)
    assert fan == doc.final.fan
    for final in (fan, doc.final.fan):
        assert not [c for c in final.cones if "cofactors" in c.__dict__]


def _reference_trace(trace):
    """``emit_trace`` as an encoder pass over one payload per record."""

    def dump(obj):
        return json.dumps(obj, sort_keys=True, separators=(",", ":"))

    def vec(v):
        return [str(e) for e in v.entries]

    def cone(c):
        return [vec(g) for g in c.generators]

    def pair(p):
        return None if p is None else [str(p[0]), str(p[1])]

    final = trace.final
    lines = [
        dump(
            {
                "record": "trace",
                "format": fanfile.TRACE_FORMAT,
                "input": trace.input_digest,
                "rank": str(final.fan.rank),
                "characteristic": str(final.characteristic),
            }
        )
    ]
    for i, step in enumerate(trace.steps):
        centers = [
            {
                "cone": cone(center.cone),
                "ray": vec(center.ray),
                "divisor_ray": vec(center.divisor_ray),
                "divisor_index": str(center.divisor_index),
                "order": str(center.order),
                "weights": [str(w) for w in center.weights],
                "charts": [
                    {
                        "cone": cone(ch.cone),
                        "order": str(ch.order),
                        "type": str(ch.chart_type),
                        "tame": ch.tame,
                        "exceptional_character": str(ch.exceptional_character),
                    }
                    for ch in charts
                ],
            }
            for center, charts in zip(step.centers, step.charts)
        ]
        lines.append(
            dump(
                {
                    "record": "step",
                    "index": str(i),
                    "phase": step.phase,
                    "added": [vec(u) for u in step.added_rays],
                    "invariant_before": pair(step.invariant_before),
                    "invariant_after": pair(step.invariant_after),
                    "nontame_before": pair(step.nontame_before),
                    "nontame_after": pair(step.nontame_after),
                    "centers": centers,
                }
            )
        )
    lines.append(
        dump(
            {
                "record": "final_fan",
                "cones": [cone(c) for c in final.fan.sorted_cones()],
                "marked": [vec(r) for r in final.marked_rays],
            }
        )
    )
    measure_ok = True
    try:
        for step in trace.steps:
            _check_step_measure(step)
    except MeasureError:
        measure_ok = False
    lines.append(
        dump(
            {
                "record": "certificates",
                "all_smooth": trace.all_smooth,
                "measure_decreasing": measure_ok,
            }
        )
    )
    return "\n".join(lines) + "\n"


# a type whose resolution has non-tame charts and, once they are gone, a
# null non-tame measure
NONTAME = (12, (1, 5, 7), 2)


def test_the_nontame_example_has_a_nontame_chart_and_a_null_measure():
    trace = resolve(marked_fan_from_characters(*NONTAME))
    assert any(not ch.tame for s in trace.steps for charts in s.charts for ch in charts)
    assert any(s.nontame_before is not None for s in trace.steps)
    assert trace.steps[-1].nontame_after is None


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_direct_trace_writer_matches_the_encoder_on_the_cases(case):
    trace = resolve(marked_fan_from_characters(*case))
    assert fanfile.emit_trace(trace) == _reference_trace(trace)


@given(quotient_types())
@example(NONTAME)
@settings(max_examples=40, deadline=None)
def test_direct_trace_writer_matches_the_encoder_on_a_sweep(case):
    trace = resolve(marked_fan_from_characters(*case))
    assert fanfile.emit_trace(trace) == _reference_trace(trace)
