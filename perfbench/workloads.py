"""Workload inputs, the operations of one pass, and the correctness gate.

Every operation drives a user-facing entry point in-process: ``qres.cli.main``
with stdout captured for ``resolve``, ``classify`` and ``glue-check``, and
``fanfile.parse_trace`` + ``resolution_engine.replay`` for trace replay, which
has no command yet.  Inputs come from ``cases.json`` (recorded by
``make_cases.py``) and the workload seed; the program only sees the files and
arguments generated here.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from qres import cli, fanfile, resolution_engine
from qres.hj_oracle import hj_rays

HERE = Path(__file__).resolve().parent
CASES_FILE = HERE / "cases.json"

WORKLOADS = ("resolve-rank3", "resolve-mixed", "certify", "glue")

# resolve-mixed draws this many cases from each stratum of the recorded pool
MIXED_DRAWS = {
    "rank2-1e3": 2,
    "rank2-1e4": 2,
    "rank2-1e5": 2,
    "rank2-long": 1,
    "rank4": 3,
    "char2": 2,
    "char3": 2,
    "char5": 2,
}
# the smoke test takes the cheapest case of these: rank 2, rank 4, char p
SMOKE_STRATA = ("rank2-1e3", "rank4", "char2")
MIXED_TOTAL_TOL = 0.02
MIXED_MAX_TOL = 0.03
# certify checks the outputs of resolve-mixed and of this resolve-rank3 case;
# with all three rank-3 outputs a pass took 8-10 s, each operation got two or
# three samples in a 25 s run and the max_op_s of ten runs spread by 0.20
CERTIFY_LADDER = ("1/97(1,13,41)@0",)
GLUE_CASES = (("1/11(2,5,3,1)", 12), ("1/7(1,3,1)", 14))
GLUE_SAMPLES = 150
SMOKE_GLUE_SAMPLES = 4


class GateError(Exception):
    """An operation's output failed the correctness gate."""


@dataclass
class Op:
    """One timed operation and the check of its outcome."""

    kind: str  # resolve | classify | replay | glue
    label: str
    run: Callable[[], object]
    check: Callable[[object], None]
    samples: int = 0  # glue-check substitutions per run


def load_cases() -> dict:
    return json.loads(CASES_FILE.read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# inputs, written without the library so the program only sees files


def parse_literal(text: str) -> tuple[int, tuple[int, ...]]:
    """Order and characters of ``1/l(c_1,...,c_n)``, as typed."""
    head, inner = text.strip()[2:-1].split("(")
    order = int(head)
    return order, tuple(int(c) % order for c in inner.split(","))


def standard_generators(order: int, chars: tuple[int, ...]) -> list[list[int]]:
    """``e_1..e_{n-1}`` and the primitive ``order*e_n - sum a_i e_i``, where
    the characters are rescaled so the last one is 1."""
    n = len(chars)
    s = pow(chars[-1], -1, order)
    scaled = [(s * c) % order for c in chars]
    gens = [[1 if j == i else 0 for j in range(n)] for i in range(n - 1)]
    last = [-a for a in scaled[:-1]] + [order]
    g = math.gcd(*last)
    gens.append([x // g for x in last])
    return gens


def fan_file_text(literal: str, characteristic: int) -> str:
    """Fan file of the standard cone of ``literal``, its last ray marked."""
    order, chars = parse_literal(literal)
    gens = standard_generators(order, chars)
    n = len(gens)
    lines = [{"record": "fan", "rank": str(n), "characteristic": str(characteristic)}]
    lines += [{"record": "ray", "id": str(i), "v": [str(x) for x in g]} for i, g in enumerate(gens)]
    lines.append({"record": "cone", "rays": [str(i) for i in range(n)]})
    lines.append({"record": "marked", "ray": str(n - 1)})
    return "".join(json.dumps(r, sort_keys=True, separators=(",", ":")) + "\n" for r in lines)


def fan_digest(rank: int, characteristic: int, cones, marked) -> str:
    """sha256 of the canonical fan payload, the formula ``fan_digest`` uses."""
    payload = {
        "rank": rank,
        "characteristic": characteristic,
        "cones": sorted(sorted(list(map(int, g)) for g in c) for c in cones),
        "marked": [list(map(int, r)) for r in marked],
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def digest_of_fan(fan, marked_rays, characteristic: int) -> str:
    return fan_digest(
        fan.rank,
        characteristic,
        [[g.entries for g in c.generators] for c in fan.cones],
        [r.entries for r in marked_rays],
    )


def determinant(rows: list[list[int]]) -> int:
    """Exact determinant by fraction-free elimination."""
    a = [list(r) for r in rows]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if a[i][k]), None)
            if pivot is None:
                return 0
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


# ---------------------------------------------------------------------------
# the correctness gate


def _pair(value) -> tuple[int, ...] | None:
    return None if value is None else tuple(int(x) for x in value)


def check_trace(case: dict, text: str) -> None:
    """Checks that need no recorded value: smooth final fan, strictly
    dropping measures, and in rank 2 the Hirzebruch-Jung rays."""
    records = [json.loads(line) for line in text.splitlines() if line]
    steps = [r for r in records if r["record"] == "step"]
    final = next(r for r in records if r["record"] == "final_fan")
    for cone in final["cones"]:
        if abs(determinant([[int(x) for x in g] for g in cone])) != 1:
            raise GateError(f"{case['id']}: final cone {cone} is not smooth")
    for step in steps:
        before, after = _pair(step["invariant_before"]), _pair(step["invariant_after"])
        if step["phase"] == "non-tame":
            nt_before, nt_after = _pair(step["nontame_before"]), _pair(step["nontame_after"])
            dropped = nt_before is not None and (nt_after is None or nt_after < nt_before)
            dropped = dropped and after <= before
        else:
            dropped = after < before
        if not dropped:
            raise GateError(f"{case['id']}: measure did not drop at step {step['index']}")
    order, chars = parse_literal(case["type"])
    if len(chars) == 2:
        a = -standard_generators(order, chars)[1][0]
        added = {tuple(int(x) for x in u) for s in steps for u in s["added"]}
        oracle = {r.entries for r in hj_rays(order, a)}
        if added != oracle:
            raise GateError(f"{case['id']}: exceptional rays differ from hj_rays({order}, {a})")


def check_replay(case: dict, fan_text: str, trace_text: str) -> None:
    expect_digest(case, _replay(fan_text, trace_text))


def expect_digest(case: dict, digest: str) -> None:
    if digest != case["final_digest"]:
        raise GateError(f"{case['id']}: replayed fan digest differs from the recorded one")


def _replay(fan_text: str, trace_text: str) -> str:
    m = fanfile.parse_fan(fan_text)
    doc = fanfile.parse_trace(trace_text)
    fan = resolution_engine.replay(m, doc)
    return digest_of_fan(fan, doc.final.marked_rays, m.characteristic)


# ---------------------------------------------------------------------------
# operations


def run_cli(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue() + err.getvalue() if rc else out.getvalue()


def _expect_exit_zero(label: str, outcome: tuple[int, str]) -> dict:
    rc, text = outcome
    if rc != 0:
        raise GateError(f"{label}: exit code {rc}: {text.strip()[:200]}")
    return json.loads(text.splitlines()[-1])


def resolve_op(case: dict, workdir: Path) -> Op:
    fan_path = workdir / f"{case['slug']}.fan"
    trace_path = workdir / f"{case['slug']}.trace"
    fan_path.write_text(fan_file_text(case["type"], case["p"]), encoding="utf-8")
    argv = ["resolve", str(fan_path), "--emit-trace", str(trace_path), "--json"]
    verified: set[str] = set()

    def check(outcome) -> None:
        summary = _expect_exit_zero(case["id"], outcome)
        text = trace_path.read_text(encoding="utf-8")
        sha = hashlib.sha256(text.encode("utf-8")).hexdigest()
        got = (int(summary["steps"]), int(summary["final_cones"]), summary["smooth"])
        if got != (case["steps"], case["final_cones"], True):
            raise GateError(f"{case['id']}: steps/cones/smooth {got}, recorded "
                            f"{(case['steps'], case['final_cones'], True)}")
        if sha != case["trace_sha256"]:
            raise GateError(f"{case['id']}: trace sha256 differs from the recorded one")
        if sha in verified:
            return  # the same bytes already passed the checks below in this run
        nontame = sum(1 for phase in summary["phases"] if phase == "non-tame")
        if nontame != case["nontame_steps"]:
            raise GateError(f"{case['id']}: {nontame} non-tame steps, recorded {case['nontame_steps']}")
        check_trace(case, text)
        check_replay(case, fan_path.read_text(encoding="utf-8"), text)
        verified.add(sha)

    return Op("resolve", case["id"], lambda: run_cli(argv), check)


@dataclass
class Resolved:
    """Input fan, final fan and trace files of a case resolved in set-up."""

    case: dict
    fan_path: Path
    final_path: Path
    trace_path: Path


def resolve_for_certify(case: dict, workdir: Path, reuse: bool = False) -> Resolved:
    """Resolves ``case`` with the library and writes its files, or with
    ``reuse`` takes the files an earlier set-up wrote."""
    paths = [workdir / f"{case['slug']}.{ext}" for ext in ("fan", "final.fan", "trace")]
    if reuse and all(p.is_file() for p in paths):
        return Resolved(case, *paths)
    text = fan_file_text(case["type"], case["p"])
    trace = resolution_engine.resolve(fanfile.parse_fan(text))
    paths[0].write_text(text, encoding="utf-8")
    paths[1].write_text(fanfile.emit_fan(trace.final), encoding="utf-8")
    paths[2].write_text(fanfile.emit_trace(trace), encoding="utf-8")
    return Resolved(case, *paths)


def classify_op(src: Resolved) -> Op:
    case = src.case
    argv = ["classify", str(src.final_path), "--json"]

    def check(outcome) -> None:
        report = _expect_exit_zero(case["id"], outcome)
        cones = report["cones"]
        if len(cones) != case["final_cones"]:
            raise GateError(f"{case['id']}: classify saw {len(cones)} cones, recorded {case['final_cones']}")
        if any(c["multiplicity"] != "1" for c in cones):
            raise GateError(f"{case['id']}: classify reports a singular cone")

    return Op("classify", case["id"], lambda: run_cli(argv), check)


def replay_op(src: Resolved) -> Op:
    case = src.case

    def run() -> str:
        return _replay(src.fan_path.read_text(encoding="utf-8"),
                       src.trace_path.read_text(encoding="utf-8"))

    return Op("replay", case["id"], run, lambda digest: expect_digest(case, digest))


def glue_op(literal: str, kmax: int, samples: int, seed: int) -> Op:
    argv = ["glue-check", literal, "--samples", str(samples), "--seed", str(seed),
            "--kmax", str(kmax), "--json"]
    label = f"{literal} kmax={kmax} seed={seed}"

    def check(outcome) -> None:
        report = _expect_exit_zero(label, outcome)
        if not report["ok"] or int(report["passed"]) != samples:
            raise GateError(f"{label}: {report['passed']}/{samples} substitutions passed")

    return Op("glue", label, lambda: run_cli(argv), check, samples)


# ---------------------------------------------------------------------------
# workloads


def with_slug(case: dict) -> dict:
    slug = "".join(ch if ch.isalnum() else "_" for ch in case["id"])
    return dict(case, slug=slug)


def _draw(pools: dict, rng: random.Random) -> list[dict]:
    return [c for stratum, k in MIXED_DRAWS.items() for c in rng.sample(pools[stratum], k)]


def _typical_cost(pools: dict) -> tuple[float, float]:
    """Median total and median largest recorded cost of unconstrained draws."""
    rng = random.Random("resolve-mixed-typical")
    draws = [[c["cost_s"] for c in _draw(pools, rng)] for _ in range(101)]
    return statistics.median(map(sum, draws)), statistics.median(map(max, draws))


def mixed_cases(cases: dict, seed: int, smoke: bool = False) -> list[dict]:
    """Seeded draw from each stratum of the recorded pool.

    The draw is repeated until its recorded cost is within ``MIXED_TOTAL_TOL``
    of the typical total and its largest case within ``MIXED_MAX_TOL`` of the
    typical largest, so that every seed does about the same work.
    """
    pools = cases["pool"]
    if smoke:
        draw = [min(pools[stratum], key=lambda c: c["cost_s"]) for stratum in SMOKE_STRATA]
        return [with_slug(c) for c in draw]
    total, largest = _typical_cost(pools)
    rng = random.Random(f"resolve-mixed-{seed}")
    for _ in range(100_000):
        draw = _draw(pools, rng)
        costs = [c["cost_s"] for c in draw]
        if (abs(sum(costs) / total - 1) <= MIXED_TOTAL_TOL
                and abs(max(costs) / largest - 1) <= MIXED_MAX_TOL):
            return [with_slug(c) for c in draw]
    raise ValueError("no draw from the pool meets the cost tolerances")


def rank3_cases(cases: dict, smoke: bool = False) -> list[dict]:
    return [with_slug(c) for c in (cases["tiny"] if smoke else cases["ladder"])]


def build(name: str, seed: int, workdir: Path, smoke: bool = False,
          reuse: bool = False) -> list[Op]:
    """Write the workload's inputs into ``workdir`` and return one pass of ops.

    With ``reuse``, the certify inputs an earlier call wrote are taken as they
    are instead of being resolved again.
    """
    cases = load_cases()
    order_rng = random.Random(f"{name}-order-{seed}")
    if name == "resolve-rank3":
        ops = [resolve_op(c, workdir) for c in rank3_cases(cases, smoke)]
    elif name == "resolve-mixed":
        ops = [resolve_op(c, workdir) for c in mixed_cases(cases, seed, smoke)]
    elif name == "certify":
        ladder = [c for c in rank3_cases(cases, smoke) if smoke or c["id"] in CERTIFY_LADDER]
        sources = ladder + mixed_cases(cases, seed, smoke)
        resolved = [resolve_for_certify(c, workdir, reuse) for c in sources]
        ops = [op for src in resolved for op in (classify_op(src), replay_op(src))]
    elif name == "glue":
        samples = SMOKE_GLUE_SAMPLES if smoke else GLUE_SAMPLES
        seed_rng = random.Random(f"glue-{seed}")
        ops = [glue_op(t, k, samples, seed_rng.randrange(2**31)) for t, k in GLUE_CASES]
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    order_rng.shuffle(ops)
    return ops
