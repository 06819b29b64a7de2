"""Every pinned output of qres, each with the library call that produces it.

Run it from the repository root, with ``src`` on ``PYTHONPATH`` or qres
installed::

    python tests/pins.py

It checks every pin, prints one line per pin and exits 1 on any mismatch.
It imports only the standard library and qres, so it also runs in a venv
without pytest, numpy or sympy.  The tier-1 tests read their expected
values from the tables here and call the same producers.

Each table maps a producer's argument to the value that producer must
return; :data:`TABLE` lists every producer with its table.  The trace pins
of three cases are the ones ``perfbench/cases.json`` records, read from
there by case id; that file is only read.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path
from random import Random

from qres import cli, fanfile
from qres.exact_lattice import smith_rows
from qres.quotient_classifier import (
    CyclicQuotientType,
    parse_quotient_literal,
    quotient_to_cone,
    unit_weights,
)
from qres.resolution_engine import blowup_step, marked_fan_from_characters, resolve
from qres.weighted_filtration import (
    WeightedFiltration,
    dual_cone_points,
    invariant_generators,
    sample_divisor_fixing_automorphism,
    smallest_prime_with_roots,
)

CASES_JSON = Path(__file__).resolve().parents[1] / "perfbench" / "cases.json"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def report(command: str) -> str:
    """The standard output of ``qres COMMAND``, split at spaces, followed by
    the text of every file it writes.

    `` ; `` separates commands, which run in order.  A word ``{NAME}`` is a
    path in one temporary directory: for a key of :data:`FANS` a file that
    holds that fan, written by ``emit_fan`` before the commands run, and
    otherwise a file that a command writes and a later one may read.
    """
    out = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        paths: dict[str, Path] = {}

        def path(word: str) -> str:
            if not (word.startswith("{") and word.endswith("}")):
                return word
            name = word[1:-1]
            if name not in paths:
                paths[name] = Path(tmp) / f"{len(paths)}.jsonl"
                if name in FANS:
                    paths[name].write_text(fanfile.emit_fan(FANS[name]()), encoding="utf-8")
            return str(paths[name])

        with contextlib.redirect_stdout(out):
            for argv in command.split(" ; "):
                cli.main([path(word) for word in argv.split()])
        written = [p.read_text(encoding="utf-8") for name, p in paths.items() if name not in FANS]
    return out.getvalue() + "".join(written)


# ---------------------------------------------------------------------------
# traces


def trace_pin(trace) -> tuple[int, int, str]:
    """Steps, final cones and the sha256 of the trace file of a resolution."""
    return len(trace.steps), len(trace.final.fan.cones), sha256(fanfile.emit_trace(trace))


def resolved_trace(case: tuple[int, tuple[int, ...], int]) -> tuple[int, int, str]:
    """:func:`trace_pin` of the resolution of the standard fan of
    ``(order, characters, characteristic)``."""
    return trace_pin(resolve(marked_fan_from_characters(*case)))


def _perfbench_traces(*ids: str) -> dict:
    """The trace pins that perfbench/cases.json records for ``ids``."""
    data = json.loads(CASES_JSON.read_text(encoding="utf-8"))
    groups = [data["ladder"], data["tiny"], *data["pool"].values()]
    records = {rec["id"]: rec for group in groups for rec in group}
    pins = {}
    for case_id in ids:
        rec = records[case_id]
        order, chars = parse_quotient_literal(rec["type"])
        pins[order, chars, rec["p"]] = (rec["steps"], rec["final_cones"], rec["trace_sha256"])
    return pins


# 1/211(1,37,101) also carries the call counts of
# test_larger_type_is_pinned_and_tests_few_cones.  The perfbench cases are a
# rank-3 ladder type; a rank-4 type whose pieces read their cofactor rows
# from the closed-form rank-4 adjugate; and a rank-2 type with 6-digit
# entries, every chart of whose 83 steps comes from the 2x2 Smith kernel
TRACES = {
    (211, (1, 37, 101), 0): (
        56,
        1115,
        "69382e548bce858accc1476909e55b6a498c087527a30c84338d9c2ee1591dbf",
    ),
    (1009, (1, 400, 617), 0): (
        69,
        1715,
        "7e1a871f985e51e4f7c973696d9b8d696056977f21ada72079ecc68b5861d295",
    ),
    (101, (1, 7, 19, 31), 0): (
        26,
        919,
        "747f94e54f75fc2f2fdd4f4066d9962bf94331b2dc46130d76e842c760cfb8ae",
    ),
    (131, (1, 7, 19, 31), 0): (
        64,
        14523,
        "d12a37a6c857f755b135fb16ec9cfcf80ac2fcbed70733ede4e0556b08762942",
    ),
    **_perfbench_traces("1/31(1,5,11)@0", "1/16(1,8,6,9)@0", "1/286861(1,282801)@0"),
}


# ---------------------------------------------------------------------------
# command reports


# the fans that the fan-file pins hand to qres, written by emit_fan
FANS = {
    # rays (1,0) and (-3,5), the latter marked
    "1/5(1,2)": lambda: marked_fan_from_characters(5, (1, 2)),
    # 1/31(1,5,11) after one blow-up step and at the end
    "step": lambda: blowup_step(marked_fan_from_characters(31, (1, 5, 11)))[0],
    "final": lambda: resolve(marked_fan_from_characters(31, (1, 5, 11))).final,
    # rank 4 and smooth: its fan check sends 45 pairs to Fourier-Motzkin
    "final-rank4": lambda: resolve(marked_fan_from_characters(8, (4, 3, 2, 7))).final,
    # its resolution alternates max-order and non-tame steps
    "1/97(1,13,41)@2": lambda: marked_fan_from_characters(97, (1, 13, 41), 2),
}


def resolve_report(fan: str) -> str:
    """The ``qres resolve --json`` report of ``FANS[fan]``."""
    return report(f"resolve {{{fan}}} --json")


def classify_sha256(fan: str) -> tuple[str, str]:
    """The sha256 of the ``qres classify`` reports of ``FANS[fan]``, with
    ``--json`` and as text."""
    return sha256(report(f"classify {{{fan}}} --json")), sha256(report(f"classify {{{fan}}}"))


REPORTS = {
    "hilbert 1/3(1,1) --bound 3 --json": (
        '{"bound":"3","generators":[["0","3"],["1","2"],["2","1"],["3","0"]],'
        '"type":"1/3(1,1)"}\n'
    ),
    "blowup {1/5(1,2)} --emit {emitted}": (
        'center <(-3,5), (1,0)> of order 5\n'
        '  ray: (0,1)  weights: (1, 3)\n'
        '  chart 1/3(1,1) (tame), order 3\n'
        '  chart 1/1(0,0) (tame), order 1\n'
        '{"characteristic":"0","rank":"2","record":"fan"}\n'
        '{"id":"0","record":"ray","v":["-3","5"]}\n'
        '{"id":"1","record":"ray","v":["0","1"]}\n'
        '{"id":"2","record":"ray","v":["1","0"]}\n'
        '{"rays":["0","1"],"record":"cone"}\n'
        '{"rays":["1","2"],"record":"cone"}\n'
        '{"ray":"0","record":"marked"}\n'
        '{"ray":"1","record":"marked"}\n'
    ),
    "blowup {1/5(1,2)} --json": (
        '{"added":[["0","1"]],"centers":[{"charts":[{"order":"3","tame":true,'
        '"type":"1/3(1,1)"},{"order":"1","tame":true,"type":"1/1(0,0)"}],'
        '"cone":["(-3,5)","(1,0)"],"order":"5","weights":["1","3"]}]}\n'
    ),
    # the second step of resolve, which blows up the non-tame chart of order 50
    "blowup {1/97(1,13,41)@2} --json --emit {emitted} ; blowup {emitted} --json": (
        '{"added":[["0","0","1"]],"centers":[{"charts":[{"order":"71","tame":true,'
        '"type":"1/71(1,8,27)"},{"order":"50","tame":false,"type":"1/50(1,3,21)"},'
        '{"order":"1","tame":true,"type":"1/1(0,0,0)"}],"cone":["(-71,-50,97)","(0,1,0)",'
        '"(1,0,0)"],"order":"97","weights":["1","50","71"]}]}\n'
        '{"added":[["-24","-17","33"]],"centers":[{"charts":[{"order":"7","tame":true,'
        '"type":"1/7(1,2,5)"},{"order":"1","tame":true,"type":"1/1(0,0,0)"},'
        '{"order":"17","tame":true,"type":"1/17(1,1,7)"}],'
        '"cone":["(-71,-50,97)","(0,0,1)","(1,0,0)"],"order":"50","weights":["17","1","7"]}]}\n'
        '{"characteristic":"2","rank":"3","record":"fan"}\n'
        '{"id":"0","record":"ray","v":["-71","-50","97"]}\n'
        '{"id":"1","record":"ray","v":["0","0","1"]}\n'
        '{"id":"2","record":"ray","v":["0","1","0"]}\n'
        '{"id":"3","record":"ray","v":["1","0","0"]}\n'
        '{"rays":["0","1","2"],"record":"cone"}\n'
        '{"rays":["0","1","3"],"record":"cone"}\n'
        '{"rays":["1","2","3"],"record":"cone"}\n'
        '{"ray":"0","record":"marked"}\n'
        '{"ray":"1","record":"marked"}\n'
    ),
    "hj 7 3": '[3,2,2]\n',
    "hj 7 3 --rays": (
        '[3,2,2]\n'
        '(0,1) (-1,3) (-2,5)\n'
    ),
    "hj 7 3 --json": '{"a":"3","coefficients":["3","2","2"],"l":"7"}\n',
    "hj 7 3 --json --rays": (
        '{"a":"3","coefficients":["3","2","2"],"l":"7","rays":[["0","1"],["-1","3"],'
        '["-2","5"]]}\n'
    ),
    "cartify 1/6(2,3,1) --ray 2": '1/3(0,1,2)\n',
    "cartify 1/6(2,3,1) --ray 2 --json": (
        '{"input":"1/6(2,3,1)","ray":"2","result":"1/3(0,1,2)"}\n'
    ),
    "hilbert 1/3(1,1) --bound 3": 'y^3, x*y^2, x^2*y, x^3\n',
    "glue-check 1/7(1,3,1) --samples 5": (
        'glue check: 5/5 substitutions preserve the filtration\n'
    ),
    # the divisor weight 1 is stored as 1 % 1 = 0
    "glue-check 1/1(0) --samples 3": (
        'glue check: 3/3 substitutions preserve the filtration\n'
    ),
}

RESOLVE_REPORTS = {
    "1/5(1,2)": (
        '{"exceptional_rays":[["0","1"],["-1","2"]],"final_cones":"3",'
        '"phases":["max-order","max-order"],"smooth":true,"steps":"2"}\n'
    ),
}

# as recorded before classify formatted each ray once per report, and, for
# final-rank4, before the fan check substituted the common rays' equalities
# and before classify wrote its records directly
CLASSIFY_SHA256 = {
    "step": (
        "e8d9578e69021bc144b2d589beb3810963c5384f7d94157a5e8b82319b040b4b",
        "a699e8834a3256aee307a11b85fcb61eea2a3e2220c819bf3e5650f7d2a99cc1",
    ),
    "final": (
        "a1a9b99b568300b2db7f28ed774626012189d5fd5830d99c7ef99f1b7928f6ad",
        "fec6b466072f64865358014e614a6bc968d5de7a0f18d33b53ba2d1670dfa755",
    ),
    "final-rank4": (
        "c396d4dbe3e5fb2ea5c127eef6f20be5749363033a0eca3bbb50f2bdca9a61d1",
        "b9133f5bc44f710e99b1e98ace8db06aa75c4d00fba6cf8db347cc630a04850a",
    ),
}


# ---------------------------------------------------------------------------
# glue-check


def glue_report(key: tuple[tuple[str, ...], int]) -> str:
    """The report of ``qres glue-check ARGV --seed SEED --json``."""
    argv, seed = key
    return report(f"glue-check {' '.join(argv)} --seed {seed} --json")


# as produced by the brute-force substitution of every generator; sampling
# with the modulus computed once and the valuation criterion reproduce them
# byte for byte
GLUE_REPORTS = {
    (argv, seed): template % seed
    for argv, template in {
        ("1/11(2,5,3,1)", "--samples", "40", "--kmax", "12"): (
            '{"ok":true,"passed":"40","samples":"40","seed":"%d","truncation":"12",'
            '"type":"1/11(2,5,3,1)"}\n'
        ),
        ("1/7(1,3,1)", "--kmax", "14"): (
            '{"ok":true,"passed":"100","samples":"100","seed":"%d","truncation":"14",'
            '"type":"1/7(1,3,1)"}\n'
        ),
    }.items()
    for seed in (0, 1, 2)
}


def sampled_images_sha256(key: tuple[str, int, int]) -> str:
    """The sha256 of ``repr(phi.images)`` over the first 40 substitutions
    that the sampler draws for ``(literal, truncation, seed)``, with the
    modulus of ``glue-check``."""
    literal, truncation, seed = key
    order, chars = parse_quotient_literal(literal)
    w = WeightedFiltration(order, unit_weights(order, chars, len(chars) - 1))
    modulus = smallest_prime_with_roots(w.order)
    rng = Random(seed)
    digest = hashlib.sha256()
    for _ in range(40):
        phi = sample_divisor_fixing_automorphism(w, rng, modulus=modulus, truncation=truncation)
        digest.update(repr(phi.images).encode())
    return digest.hexdigest()


# every draw passes, so the glue-check reports cannot show a change in which
# substitutions a seed draws
SAMPLED_IMAGES_SHA256 = {
    ("1/11(2,5,3,1)", 12, 0): "cc28fe612c8755fbc11d2b9e8b9eac7a23bf7fd0cb4ba423ee8eeaf377b6b64e",
    ("1/11(2,5,3,1)", 12, 1): "d0beaba940669231e82dbbbbb9337d942cf4eee26ac5e99d944bea6bda49d7f9",
    ("1/11(2,5,3,1)", 12, 2): "2a16abb74760c88f2d01f37a8220e3ff2e11fb8752ec70a18156c78f782534b7",
    ("1/7(1,3,1)", 14, 0): "2ba54e43f2b536af7f515ffe78764d48872bdcd8cf3026e446717f7e5692926c",
    ("1/7(1,3,1)", 14, 1): "c8e0d55f77c2a8437a9a9feb3de297157356c71a6d163812bbd4eeb67620077a",
    ("1/7(1,3,1)", 14, 2): "5cb681085615ffad373ff92adefc588c7dab4c742ac19dcc14aa1689c9a97bb7",
}


# ---------------------------------------------------------------------------
# lattice and simplex enumerations


def smith_golden_matrices(seed: str):
    """3000 integer matrices of 1 to 5 rows and columns, entries in
    [-40, 40], drawn from ``Random(seed)``."""
    rng = Random(seed)
    for _ in range(3000):
        nr, nc = rng.randint(1, 5), rng.randint(1, 5)
        yield [[rng.randint(-40, 40) for _ in range(nc)] for _ in range(nr)]


def smith_golden_sha256(seed: str) -> str:
    """The sha256 of :func:`smith_rows` of each of
    :func:`smith_golden_matrices`, each decomposition as a JSON list."""
    digest = hashlib.sha256()
    for rows in smith_golden_matrices(seed):
        diagonal, left, right = smith_rows(rows)
        digest.update(json.dumps([list(diagonal), left, right]).encode())
    return digest.hexdigest()


# the left transform carries the unit of each chart's characters, which
# traces record, so the whole decomposition is pinned, not just the
# diagonal; recorded from the IntegerMatrix-based elimination that
# smith_rows replaced
SMITH_GOLDEN_SHA256 = {
    "snf-golden": "6ffbca823baa03907d0780702a5dbe88dbcd1d0c8c021cdeaaf2e0fb167b266b",
}


def _monomials_sha(monomials) -> str:
    return sha256(repr(sorted(m.exponents for m in monomials)))[:16]


def simplex_sha(case: tuple[int, tuple[int, ...]]) -> tuple[str, str, str]:
    """Digests of invariant_generators and of dual_cone_points (points,
    minimal) of ``(order, characters)``, at degree bound 40 for rank 2 and
    12 otherwise."""
    order, chars = case
    bound = 40 if len(chars) == 2 else 12
    dual = dual_cone_points(quotient_to_cone(CyclicQuotientType(order, chars)), bound)
    return (
        _monomials_sha(invariant_generators(order, chars, bound)),
        _monomials_sha(dual.points),
        _monomials_sha(dual.minimal),
    )


# the types of CASES in test_resolution_engine
SIMPLEX_OUTPUT_SHA = {
    (31, (1, 5, 11)): ("fcafdbcf94dee7da", "766ccda7354b5f90", "0dbe3eb9ac9dee19"),
    (13, (1, 3, 5, 7)): ("b8f1ed8837366d05", "5440d594f07dc981", "d8990d02ff7b8b85"),
    (12, (1, 5, 7)): ("ab429c96d4fe2a9a", "1d865c2a96972e5a", "6b97ff81caa3ea1a"),
    (18, (10, 15, 11)): ("675a1d022929b33c", "04dd1850fb672c17", "0452cef51d917a6c"),
    (45, (19, 17, 32)): ("345649e007110a23", "eadaf5c54ed323f5", "80902e9c46b00ba6"),
    (7, (3, 1)): ("dc5e999016a5cc04", "04603583c0122894", "b27f770dd0707c9d"),
    (50, (13, 1)): ("8c54a7857e8518ea", "3a0cd91433e82466", "7607069181e7723f"),
    (101, (37, 1)): ("744e6bd6cb8e1f7b", "fff5b5e4f4244700", "7ad749005fd17531"),
    (1009, (400, 1)): ("5769592278d8fafd", "6453963383178fa4", "5769592278d8fafd"),
}


# ---------------------------------------------------------------------------

TABLE = [
    (resolved_trace, TRACES),
    (report, REPORTS),
    (resolve_report, RESOLVE_REPORTS),
    (classify_sha256, CLASSIFY_SHA256),
    (glue_report, GLUE_REPORTS),
    (sampled_images_sha256, SAMPLED_IMAGES_SHA256),
    (smith_golden_sha256, SMITH_GOLDEN_SHA256),
    (simplex_sha, SIMPLEX_OUTPUT_SHA),
]


def main() -> int:
    """Check every pin of :data:`TABLE`, one line each; 1 if any differs."""
    failed = False
    for produce, pins in TABLE:
        for key, expected in pins.items():
            got = produce(key)
            label = f"{produce.__name__}({key!r})"
            if got == expected:
                print(f"ok    {label}", flush=True)
            else:
                failed = True
                print(f"FAIL  {label}: expected {expected!r}, got {got!r}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
