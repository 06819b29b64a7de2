"""Command-line surface.

Subcommands: classify, resolve, blowup, hilbert, hj, cartify, glue-check.
Exit codes:

- 0: success.
- 1: ``glue-check`` ran, but some sampled substitution broke the filtration.
- 2: precondition violation, for example ``--samples`` below 0, a
  ``hilbert`` degree bound or a ``glue-check`` truncation below 1, an
  ``hj L A`` pair with ``A`` outside ``(0, L)`` or not coprime to ``L``, a
  ray outside the fan or a singular cone without a faithful marked ray.
  argparse also exits 2 on malformed arguments.
- 3: parse error or other invalid input, or an output file
  (``resolve --emit-trace``, ``blowup --emit``) that cannot be written,
  reported as ``cannot write PATH: reason``.  The output path is checked
  before any work, without creating or truncating it: a directory, a
  missing parent or one that cannot be written exits 3 before the resolve
  or the blow-up runs.
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
import errno
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
from .resolution_engine import MarkedFan, blowup_step, replay, resolve
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
    return "(" + ",".join(map(str, v)) + ")"


def _fmt_cone(c: Cone) -> str:
    return "<" + ", ".join(_fmt_vec(g) for g in c.generators) + ">"


def _load_fan(path: str) -> MarkedFan:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise FanParseError(f"cannot read {path}: {exc.strerror}")
    return fanfile.parse_fan(text)


def _check_output_path(path: str) -> None:
    """Raise the error :func:`_write_output` would for the usual causes,
    without creating or truncating ``path``: a directory, a missing parent
    or one that is no directory, and a parent or file that cannot be
    written."""
    target = Path(path)
    parent = target.parent
    if target.is_dir():
        code = errno.EISDIR
    elif not parent.exists():
        code = errno.ENOENT
    elif not parent.is_dir():
        code = errno.ENOTDIR
    elif not os.access(parent, os.W_OK | os.X_OK) or (
        target.exists() and not os.access(target, os.W_OK)
    ):
        code = errno.EACCES
    else:
        return
    raise QresError(f"cannot write {path}: {os.strerror(code)}")


def _write_output(path: str, text: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise QresError(f"cannot write {path}: {exc.strerror}")


# ---------------------------------------------------------------------------
# classify


def _cmd_classify(args) -> int:
    """One loop over the sorted cones writes either report.  The ``--json``
    report is assembled directly, keys in sorted order, so its bytes equal
    ``json.dumps`` with ``sort_keys=True`` and ``separators=(",", ":")``:
    every value is a decimal string, a boolean or ASCII text the program
    makes (a ray such as ``(1,-2)`` or a type ``1/l(c_1,...,c_n)``), none
    needing escapes."""
    m = _load_fan(args.file)
    p = m.characteristic
    # every ray is named by each cone it generates: format it once
    text = {g: _fmt_vec(g) for g in m.fan.ray_index}
    cones = m.fan.sorted_cones()
    out = []
    if not args.json:
        out.append(f"fan: rank {m.fan.rank}, characteristic {p}, {len(cones)} cone(s)")
    for i, cone in enumerate(cones, start=1):
        desc = cone_descriptor(cone)
        rays = [text[g] for g in cone.generators]
        mult = multiplicity(cone)
        # a fan file declares no zero cone, so a cone is cyclic iff it has a type
        typed = desc.cqs is not None
        if typed:
            order = desc.order
            tame = is_tame(order, p)
            faithful = [
                text[g]
                for g, c in zip(cone.generators, desc.characters)
                if math.gcd(c, order) == 1
            ]
        if args.json:
            head = f'{{"cone":{_json_texts(rays)},"cyclic":{_JSON_BOOL[desc.cyclic]}'
            tail = (
                f'"invariants":{_json_texts([str(d) for d in desc.nontrivial])},'
                f'"multiplicity":"{mult}"'
            )
            if typed:
                out.append(
                    f'{head},"faithful_rays":{_json_texts(faithful)},{tail},'
                    f'"tame":{_JSON_BOOL[tame]},"type":"{desc.cqs}"}}'
                )
            else:
                out.append(f"{head},{tail}}}")
            continue
        out.append(f"cone {i}: <{', '.join(rays)}>")
        out.append(f"  multiplicity: {mult}")
        if typed:
            out.append(f"  type: {desc.cqs}")
            out.append(f"  tame: {'yes' if tame else 'no'}")
            out.append(f"  faithful rays: {', '.join(faithful) if faithful else 'none'}")
        else:
            out.append(f"  not cyclic: invariant factors {' | '.join(map(str, desc.nontrivial))}")
    if args.json:
        print(f'{{"characteristic":"{p}","cones":[{",".join(out)}],"rank":"{m.fan.rank}"}}')
    else:
        print("\n".join(out))
    return 0


_JSON_BOOL = {True: "true", False: "false"}


def _json_texts(items: list[str]) -> str:
    """The JSON array of the strings ``items``, none needing escapes."""
    return '["' + '","'.join(items) + '"]' if items else "[]"


# ---------------------------------------------------------------------------
# resolve / blowup


def _trace_summary(trace, as_json: bool) -> None:
    if as_json:
        payload = {
            "steps": str(len(trace.steps)),
            "exceptional_rays": [[str(e) for e in u] for u in trace.exceptional_rays],
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
    if args.oracle_check and m.fan.rank != 2:
        raise PreconditionError("--oracle-check requires a rank-2 fan")
    if args.emit_trace is not None:
        _check_output_path(args.emit_trace)
    trace = resolve(m)
    try:
        replay(m, trace)
    except ReplayError as exc:
        raise MeasureError(f"the resolution does not replay: {exc}") from exc
    if args.emit_trace is not None:
        _write_output(args.emit_trace, fanfile.emit_trace(trace))
    if args.oracle_check:
        checked = check_minimal_rays(m.fan, trace.final.fan)
        if not args.json:
            print(f"oracle check: ok ({checked} rays verified)")
    _trace_summary(trace, args.json)
    return 0


def _cmd_blowup(args) -> int:
    m = _load_fan(args.file)
    if args.emit is not None:
        _check_output_path(args.emit)
    new_m, record = blowup_step(m)
    if args.emit is not None:
        _write_output(args.emit, fanfile.emit_fan(new_m))
    if args.json:
        payload = {
            "added": [[str(e) for e in u] for u in record.added_rays],
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
            payload["rays"] = [[str(e) for e in r] for r in hj_rays(args.l, args.a)]
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
            f"last coordinate of {args.type.strip()} must carry a unit character"
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
