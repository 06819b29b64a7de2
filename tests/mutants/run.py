"""Apply each mutant of ``mutants.json`` to a copy of the tree and require
that the tests it names fail.

Usage, from anywhere, with pytest and hypothesis installed::

    python tests/mutants/run.py            # every mutant
    python tests/mutants/run.py ID [ID ...]

A mutant is a file under ``src/``, an exact snippet of it and the text that
replaces the snippet, with the test ids that must kill it.  For each mutant
the runner copies ``src/``, ``tests/``, ``pyproject.toml`` and
``perfbench/cases.json``, whose trace pins ``tests/pins.py`` reads, into a
fresh temporary directory, so that tests which locate the sources from
their own path, or start the package in a subprocess, see the mutated copy.  The
snippet must occur exactly once in the copy's file, or the entry is stale
and the run fails.  The named tests run there under one timeout: a failing
test, an import error or the timeout kills the mutant, a pass means it
survived.  Before any mutant, the same ids must pass on an unmutated copy,
so that a failure is the mutant's doing.

Entries under ``equivalent`` are mutants that change no behaviour the
program promises, each with its reason; they are not run, but their
snippets are held to the same exactly-once rule, so a refactor that removes
their code also retires the entry.

The exit status is 0 when every mutant is killed and 1 otherwise.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
DATA = Path(__file__).with_name("mutants.json")
# seconds for one pytest run of a mutant's ids; a mutant that makes the code
# loop forever is killed by it
TIMEOUT_S = 300

# pytest's exit codes for "some test failed" and "interrupted", which
# includes an error while importing a test module
KILLED_CODES = (1, 2)


def _copy_tree(into: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    shutil.copytree(ROOT / "src", into / "src", ignore=ignore)
    shutil.copytree(ROOT / "tests", into / "tests", ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", into / "pyproject.toml")
    (into / "perfbench").mkdir()
    shutil.copy2(ROOT / "perfbench" / "cases.json", into / "perfbench" / "cases.json")


def _stale(entry: dict) -> str | None:
    """Why the entry no longer applies to the tree, or None if it does."""
    text = (ROOT / entry["file"]).read_text(encoding="utf-8")
    found = text.count(entry["find"])
    if found != 1:
        return f"{entry['id']}: snippet found {found} times in {entry['file']}"
    return None


def _apply(tree: Path, entry: dict) -> None:
    path = tree / entry["file"]
    text = path.read_text(encoding="utf-8")
    path.write_text(text.replace(entry["find"], entry["replace"]), encoding="utf-8")


def _pytest(tree: Path, ids: list[str]) -> int | None:
    """pytest's exit code for ``ids`` run in ``tree``, or None on timeout."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *ids]
    try:
        proc = subprocess.run(
            command, cwd=tree, env=env, capture_output=True, text=True, timeout=TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return None
    return proc.returncode


def main(argv: list[str]) -> int:
    data = json.loads(DATA.read_text(encoding="utf-8"))
    mutants = data["mutants"]
    known = {entry["id"] for entry in mutants}
    unknown = sorted(set(argv) - known)
    if unknown:
        print(f"unknown mutant ids: {', '.join(unknown)}", file=sys.stderr)
        return 2
    chosen = [entry for entry in mutants if not argv or entry["id"] in argv]
    stale = [why for entry in mutants + data["equivalent"] if (why := _stale(entry))]
    if stale:
        print("\n".join(stale))
        return 1
    with tempfile.TemporaryDirectory(prefix="qres-mutants-") as scratch:
        base = Path(scratch) / "base"
        _copy_tree(base)
        ids = sorted({test for entry in chosen for test in entry["kill"]})
        code = _pytest(base, ids)
        if code != 0:
            print(f"the named tests do not pass on the unmutated tree (exit {code})")
            return 1
        survivors = []
        for n, entry in enumerate(chosen):
            tree = Path(scratch) / f"mutant{n}"
            _copy_tree(tree)
            _apply(tree, entry)
            code = _pytest(tree, entry["kill"])
            shutil.rmtree(tree)
            if code is None:
                verdict = "killed (timeout)"
            elif code in KILLED_CODES:
                verdict = "killed"
            else:
                verdict = f"SURVIVED (pytest exit {code})"
                survivors.append(entry["id"])
            print(f"{entry['id']}: {verdict}", flush=True)
    print(f"{len(chosen) - len(survivors)} of {len(chosen)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
