"""The blow-up loop end to end: smooth result, dropping measures, traces.

Covers the paper's main claim on a few ladder types in characteristic 0, 2,
3 and 5, the chart orders of every step, one evaluation of the measure per
fan state, the fan and trace round trips, independence of the trace bytes
from the hash seed, and the command-line checks that must survive
``python -O``.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qres import cli, fanfile, quotient_classifier, resolution_engine
from qres.cones_fans import multiplicity, validate_fan
from qres.hj_oracle import hj_cone_rays, hj_rays
from qres.resolution_engine import (
    PHASE_NON_TAME,
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
