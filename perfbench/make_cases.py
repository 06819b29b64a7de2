"""Regenerate ``cases.json``: the inputs of the resolve workloads and what
the program outputs for each.

    python3 perfbench/make_cases.py

It runs ``qres resolve`` on each case as the benchmark does and records the
step count, non-tame step count, final cone count, final-fan digest and
sha256 of the emitted trace; the benchmark's gate compares every run against
them.  Run it only at a commit whose outputs are trusted, since a later run
would record whatever the code then does.

``ladder`` is the fixed rank-3 list of ``resolve-rank3``; ``tiny`` holds the
small rank-3 case of the smoke test; ``pool`` holds the strata that
``resolve-mixed`` draws from.  Each stratum draws candidates of a fixed shape
from a fixed seed, drops any that the program cannot resolve or that takes
longer than ``SLOW_S`` (the pool is of small problems), and keeps the
``KEEP`` whose command time lies closest to the stratum's median.  The kept
cases are then timed again together (``cost_s``: seconds on the machine that
ran this script), so that ``resolve-mixed`` can draw inputs of about the same
total work for every seed.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import signal
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from qres import fanfile, resolution_engine  # noqa: E402
from qres.hj_oracle import hj_expansion  # noqa: E402

from perfbench import workloads  # noqa: E402
from perfbench.tracing import clear_caches, lru_caches  # noqa: E402

LADDER = ("1/31(1,5,11)", "1/97(1,13,41)", "1/61(1,11,23)")
TINY = ("1/7(1,2,4)",)
CANDIDATES = 40
KEEP = 10
COST_ROUNDS = 5
SLOW_S = 3.0  # pool candidates whose resolve takes longer are skipped
WORKDIR = ROOT / ".bench_build" / "perfbench" / "make-cases"
HJ_LENGTH = (10, 40)  # rank-2 draws: Hirzebruch-Jung expansion length


def _unit(rng: random.Random, order: int) -> int:
    while True:
        u = rng.randrange(1, order)
        if math.gcd(u, order) == 1:
            return u


def _rank2(lo: int, hi: int, length: tuple[int, int] = HJ_LENGTH):
    def draw(rng: random.Random) -> tuple[str, int]:
        while True:
            order = rng.randrange(lo, hi)
            a = _unit(rng, order)
            if a > 1 and length[0] <= len(hj_expansion(order, a).coefficients) <= length[1]:
                return f"1/{order}(1,{a})", 0
    return draw


def _diagonal(rank: int, orders: range, p: int):
    def draw(rng: random.Random) -> tuple[str, int]:
        while True:
            order = rng.choice(orders)
            chars = [rng.randrange(1, order) for _ in range(rank - 1)] + [_unit(rng, order)]
            if math.gcd(order, *chars) == 1:
                return f"1/{order}({','.join(map(str, chars))})", p
    return draw


STRATA = {
    "rank2-1e3": _rank2(1_000, 10_000),
    "rank2-1e4": _rank2(10_000, 100_000),
    "rank2-1e5": _rank2(100_000, 300_001),
    "rank2-long": _rank2(200_000, 300_001, (60, 90)),
    "rank4": _diagonal(4, range(7, 18), 0),
    "char2": _diagonal(3, range(16, 49, 2), 2),
    "char3": _diagonal(3, range(18, 61, 3), 3),
    "char5": _diagonal(3, range(20, 61, 5), 5),
}


class TooSlow(Exception):
    pass


class Unresolved(Exception):
    pass


def _too_slow(signum, frame):
    raise TooSlow


def record(literal: str, p: int, limit_s: float = 0.0) -> dict:
    """Run ``qres resolve`` on the case twice and record its outputs and the
    faster time.

    With ``limit_s``, a run taking longer raises :class:`TooSlow`; a nonzero
    exit raises :class:`Unresolved`.  The recorded outputs must pass the
    gate's own checks.
    """
    case = workloads.with_slug({"id": f"{literal}@{p}", "type": literal, "p": p})
    op = workloads.resolve_op(case, WORKDIR)
    caches = lru_caches()
    timings = []
    for _ in range(2):
        clear_caches(caches)
        signal.setitimer(signal.ITIMER_REAL, limit_s)
        start = time.perf_counter()
        try:
            rc, out = op.run()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        timings.append(time.perf_counter() - start)
        if rc != 0:
            raise Unresolved(out.strip())
    text = (WORKDIR / f"{case['slug']}.trace").read_text(encoding="utf-8")
    summary = json.loads(out)
    doc = fanfile.parse_trace(text)
    case.update(
        steps=len(summary["phases"]),
        nontame_steps=summary["phases"].count("non-tame"),
        final_cones=len(doc.final.fan.cones),
        final_digest=resolution_engine.fan_digest(doc.final),
        trace_sha256=hashlib.sha256(text.encode("utf-8")).hexdigest(),
        cost_s=round(min(timings), 4),
    )
    workloads.check_trace(case, text)
    workloads.check_replay(case, (WORKDIR / f"{case['slug']}.fan").read_text(encoding="utf-8"), text)
    del case["slug"]
    return case


def stratum(name: str) -> list[dict]:
    rng = random.Random(f"pool-{name}")
    seen, found = set(), []
    while len(found) < CANDIDATES:
        literal, p = STRATA[name](rng)
        if literal in seen:
            continue
        seen.add(literal)
        try:
            found.append(record(literal, p, SLOW_S))
        except (Unresolved, TooSlow) as exc:
            print(f"  skip {literal} p={p}: {type(exc).__name__} {exc}", file=sys.stderr)
    mid = math.log(statistics.median(c["cost_s"] for c in found))
    kept = sorted(found, key=lambda c: abs(math.log(c["cost_s"]) - mid))[:KEEP]
    kept.sort(key=lambda c: c["cost_s"])
    print(f"{name}: cost {kept[0]['cost_s']}..{kept[-1]['cost_s']} s, "
          f"median {statistics.median(c['cost_s'] for c in kept)} s", file=sys.stderr)
    return sorted(kept, key=lambda c: c["id"])


def measure_costs(cases: list[dict]) -> None:
    """Set each case's ``cost_s`` to the median of ``COST_ROUNDS`` timings,
    taken round-robin so that a drift in machine speed hits every case alike."""
    ops = [(case, workloads.resolve_op(workloads.with_slug(case), WORKDIR)) for case in cases]
    caches = lru_caches()
    times: dict[str, list[float]] = {case["id"]: [] for case in cases}
    for _ in range(COST_ROUNDS):
        for case, op in ops:
            clear_caches(caches)
            start = time.perf_counter()
            op.run()
            times[case["id"]].append(time.perf_counter() - start)
    for case in cases:
        case["cost_s"] = round(statistics.median(times[case["id"]]), 4)


def main() -> None:
    signal.signal(signal.SIGALRM, _too_slow)
    WORKDIR.mkdir(parents=True, exist_ok=True)
    out = {
        "ladder": [record(t, 0) for t in LADDER],
        "tiny": [record(t, 0) for t in TINY],
        "pool": {name: stratum(name) for name in STRATA},
    }
    measure_costs([case for pool in out["pool"].values() for case in pool])
    workloads.CASES_FILE.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
