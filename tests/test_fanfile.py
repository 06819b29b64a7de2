"""Trace parsing: error messages, step indices and the cost of a parse.

The parse errors for bad vector payloads in every kind of record are pinned
as they read before ``parse_trace`` shared one vector per distinct payload,
including payloads that equal a valid one as Python tuples (``[true,0,0]``
after ``[1,0,0]``) or as a tuple of characters (``"100"``), which a memo
keyed too loosely would accept.  Step indices must run ``0..N-1``, the
final fan's markings must be a list, every vector must have the header's
rank and there must be one final fan record; replay checks the final
marking and characteristic against the input.  Parsing and replaying a
trace builds every recorded center and final cone, but by the closed-form
kernel, without a Bareiss elimination.
"""

import json

import pytest

from qres import exact_lattice, fanfile
from qres.cones_fans import Cone
from qres.errors import FanParseError, ReplayError
from qres.resolution_engine import marked_fan_from_characters, replay, resolve

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
