"""The pins that no other test module checks, and the pin checker itself.

``tests/pins.py`` holds every pinned output; the other test modules check
the traces, classify reports, glue-check reports, sampled images, Smith
decompositions and simplex enumerations, this one the command reports of
``REPORTS`` (blowup, hj, cartify, hilbert and glue-check, with the fan files
they write) and the resolve reports.  The checker must report a value that
differs and exit 1.
"""

import pytest

import pins


@pytest.mark.parametrize("command", pins.REPORTS)
def test_report_is_pinned(command):
    assert pins.report(command) == pins.REPORTS[command]


@pytest.mark.parametrize("fan", pins.RESOLVE_REPORTS)
def test_resolve_report_is_pinned(fan):
    assert pins.resolve_report(fan) == pins.RESOLVE_REPORTS[fan]


def test_the_checker_fails_on_an_altered_value(monkeypatch, capsys):
    command = "hilbert 1/3(1,1) --bound 3 --json"
    expected = pins.REPORTS[command]
    monkeypatch.setattr(pins, "TABLE", [(pins.report, {command: expected})])
    assert pins.main() == 0
    assert capsys.readouterr().out == f"ok    report({command!r})\n"
    altered = expected.replace('"bound":"3"', '"bound":"4"')
    monkeypatch.setattr(pins, "TABLE", [(pins.report, {command: altered})])
    assert pins.main() == 1
    out = capsys.readouterr().out
    assert out.startswith(f"FAIL  report({command!r}): expected ")
    assert out.count("\n") == 1
