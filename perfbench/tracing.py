"""Spans around the public functions of each qres module, recorded from outside.

``Tracer.install`` replaces every binding of each traced function: the
module attribute where it is defined and every ``from ... import`` copy in
another qres module; methods are replaced on their class.  Each call appends
its layer, start, end and parent (the index of the enclosing span) to
in-memory columns, plus a per-layer count taken from the arguments or result
for some layers.  ``layer_metrics`` turns one pass's spans into the
per-layer metrics; a span's self time is its duration minus that of its
direct children.
"""

from __future__ import annotations

import statistics
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path
from typing import Callable, Optional


def qres_modules() -> list:
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "qres" or name.startswith("qres."))
    ]


def lru_caches() -> dict[str, Callable]:
    """Every ``functools.lru_cache`` defined in a qres module, by dotted name."""
    out = {}
    for mod in qres_modules():
        for value in vars(mod).values():
            if hasattr(value, "cache_info") and getattr(value, "__module__", "") == mod.__name__:
                out[f"{mod.__name__}.{value.__qualname__}"] = value
    return dict(sorted(out.items()))


def clear_caches(caches: dict[str, Callable]) -> None:
    for cache in caches.values():
        cache.cache_clear()


# ---------------------------------------------------------------------------
# counts taken at the traced boundaries


def _max_bits(args, out) -> int:
    rows = [r.entries for r in out.left.rows] + [out.diagonal] + [r.entries for r in out.right.rows]
    return max(abs(x).bit_length() for row in rows for x in row)


def _is_true(args, out) -> int:
    return 1 if out else 0


def _cones_in(args, out) -> int:
    return len(args[2])


def _scanned_touched(args, out) -> tuple[int, int]:
    before = args[0].cones
    return len(before), len(before - out.cones)


def _pairs(args, out) -> int:
    # every pair is checked unless the fan is invalid, which no workload has
    n = len(args[0].cones)
    return n * (n - 1) // 2


def _order(args, out) -> int:
    return int(args[1])


def _trace_counts(args, out) -> tuple[int, int, int]:
    nontame = sum(1 for s in out.steps if s.phase == "non-tame")
    return len(out.steps), nontame, len(out.final.fan.cones)


def _bytes_in(args, out) -> int:
    return len(args[0].encode("utf-8"))


def _bytes_out(args, out) -> int:
    return len(out.encode("utf-8"))


# (layer name, module, attribute or Class.method, count taken per call)
LAYERS: tuple[tuple[str, str, str, Optional[Callable]], ...] = (
    ("exact_lattice.span_coordinates", "qres.exact_lattice", "span_coordinates", None),
    ("exact_lattice.smith_normal_form", "qres.exact_lattice", "smith_normal_form", _max_bits),
    ("exact_lattice.matrix_rank", "qres.exact_lattice", "matrix_rank", None),
    ("cones_fans.contains", "qres.cones_fans", "Cone.contains", _is_true),
    ("cones_fans.fan_init", "qres.cones_fans", "Fan.__init__", _cones_in),
    ("cones_fans.star_subdivide", "qres.cones_fans", "star_subdivide", _scanned_touched),
    ("cones_fans.cone_init", "qres.cones_fans", "Cone.__init__", None),
    ("cones_fans.multiplicity", "qres.cones_fans", "multiplicity", None),
    ("cones_fans.validate_fan", "qres.cones_fans", "validate_fan", _pairs),
    ("quotient_classifier.cone_characters", "qres.quotient_classifier", "cone_characters", None),
    ("quotient_classifier.quotient_type", "qres.quotient_classifier", "CyclicQuotientType.__init__", _order),
    ("quotient_classifier.cone_descriptor", "qres.quotient_classifier", "cone_descriptor", None),
    ("resolution_engine.resolve", "qres.resolution_engine", "resolve", _trace_counts),
    ("resolution_engine.invariant", "qres.resolution_engine", "invariant", None),
    ("resolution_engine.replay", "qres.resolution_engine", "replay", None),
    ("fanfile.parse_fan", "qres.fanfile", "parse_fan", _bytes_in),
    ("fanfile.emit_fan", "qres.fanfile", "emit_fan", _bytes_out),
    ("fanfile.emit_trace", "qres.fanfile", "emit_trace", _bytes_out),
    ("fanfile.parse_trace", "qres.fanfile", "parse_trace", _bytes_in),
    ("weighted_filtration.glue_check", "qres.weighted_filtration", "glue_check", None),
    ("weighted_filtration.substitute", "qres.weighted_filtration", "substitute", None),
    ("weighted_filtration.sample", "qres.weighted_filtration", "sample_divisor_fixing_automorphism", None),
    ("weighted_filtration.ideal_generators", "qres.weighted_filtration", "ideal_generators", None),
    ("cli", "qres.cli", "main", None),
)

# cache whose hits/(hits+misses) is reported, by layer
HIT_RATIO_CACHES = {
    "cones_fans.multiplicity": "qres.cones_fans.multiplicity",
    "quotient_classifier.cone_characters": "qres.quotient_classifier.cone_characters",
    "weighted_filtration.substitute": "qres.weighted_filtration.substitute",
}
ENTRY_CACHES_MODULE = "qres.weighted_filtration"

# per-layer metrics of a traced run: (name, unit, better)
PER_LAYER: list[tuple[str, str, str]] = [
    (f"{layer}.{kind}", unit, "lower")
    for layer, *_ in LAYERS
    for kind, unit in (("calls", "count"), ("self_s", "s"))
] + [
    ("exact_lattice.smith_normal_form.max_bits", "bits", "lower"),
    ("cones_fans.contains.hit_ratio", "ratio", "higher"),
    ("cones_fans.fan_init.cones_in", "count", "lower"),
    ("cones_fans.star_subdivide.cones_scanned", "count", "lower"),
    ("cones_fans.star_subdivide.cones_touched", "count", "lower"),
    ("cones_fans.star_subdivide.touch_ratio", "ratio", "higher"),
    ("cones_fans.multiplicity.hit_ratio", "ratio", "higher"),
    ("cones_fans.validate_fan.pairs", "count", "lower"),
    ("quotient_classifier.cone_characters.hit_ratio", "ratio", "higher"),
    ("quotient_classifier.quotient_type.max_order", "count", "lower"),
    ("resolution_engine.steps", "count", "lower"),
    ("resolution_engine.nontame_steps", "count", "lower"),
    ("resolution_engine.final_cones", "count", "lower"),
    ("fanfile.parse_fan.bytes", "B", "lower"),
    ("fanfile.emit_fan.bytes", "B", "lower"),
    ("fanfile.emit_trace.bytes", "B", "lower"),
    ("fanfile.parse_trace.bytes", "B", "lower"),
    ("weighted_filtration.substitute.hit_ratio", "ratio", "higher"),
    ("weighted_filtration.cache_entries", "count", "lower"),
    ("cmd.resolve_s", "s", "lower"),
    ("cmd.classify_s", "s", "lower"),
    ("cmd.replay_s", "s", "lower"),
    ("cmd.glue_samples_per_s", "1/s", "higher"),
    ("cmd.fail_share", "ratio", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


class Spans:
    """Columns of recorded spans; ``parent`` is -1 for a span with none."""

    def __init__(self) -> None:
        self.layer = array("i")  # index into LAYERS
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.info: dict[int, object] = {}

    def __len__(self) -> int:
        return len(self.layer)

    def truncate(self, n: int) -> None:
        for column in (self.layer, self.parent, self.start, self.end):
            del column[n:]
        # info is keyed in order of span end; the dropped spans ended last
        while self.info:
            i, value = self.info.popitem()
            if i < n:
                self.info[i] = value
                break


class Tracer:
    """In-memory span recorder that patches the qres layers while installed."""

    def __init__(self) -> None:
        self.spans = Spans()
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, code: int, fn: Callable, info: Optional[Callable]) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        layer, parent, starts, ends, infos = (
            spans.layer, spans.parent, spans.start, spans.end, spans.info
        )

        def traced(*args, **kwargs):
            idx = len(layer)
            layer.append(code)
            parent.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if info is not None:
                infos[idx] = info(args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = qres_modules()
        for code, (_, modname, attr, info) in enumerate(LAYERS):
            owner = sys.modules[modname]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                self._replace(cls, method, self._wrap(code, cls.__dict__[method], info))
                continue
            orig = getattr(owner, attr)
            wrapper = self._wrap(code, orig, info)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._replace(mod, key, wrapper)

    def _replace(self, obj: object, key: str, value: object) -> None:
        self._undo.append((obj, key, vars(obj)[key]))
        setattr(obj, key, value)

    def uninstall(self) -> None:
        while self._undo:
            obj, key, orig = self._undo.pop()
            setattr(obj, key, orig)

    def write(self, path: Path) -> None:
        """All spans as ``index,parent,name,start_s,end_s,info`` lines."""
        s = self.spans
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            fh.write("index,parent,name,start_s,end_s,info\n")
            for i in range(len(s)):
                info = s.info.get(i)
                extra = "" if info is None else str(info).replace(",", ";").replace(" ", "")
                fh.write(f"{i},{s.parent[i]},{LAYERS[s.layer[i]][0]},{s.start[i]:.9f},{s.end[i]:.9f},{extra}\n")


# ---------------------------------------------------------------------------
# metrics of one traced pass


def layer_metrics(spans: Spans, lo: int, hi: int) -> dict[str, float]:
    """Per-layer calls, self time and counts over spans ``lo`` to ``hi``."""
    n = len(LAYERS)
    child = defaultdict(float)
    for i in range(lo, hi):
        if spans.parent[i] >= lo:
            child[spans.parent[i]] += spans.end[i] - spans.start[i]
    calls = [0] * n
    self_s = [0.0] * n
    infos: dict[str, list] = defaultdict(list)
    for i in range(lo, hi):
        code = spans.layer[i]
        calls[code] += 1
        self_s[code] += spans.end[i] - spans.start[i] - child[i]
        if i in spans.info:
            infos[LAYERS[code][0]].append(spans.info[i])
    out: dict[str, float] = {}
    for code, (layer, *_) in enumerate(LAYERS):
        out[f"{layer}.calls"] = calls[code]
        out[f"{layer}.self_s"] = self_s[code]

    def total(layer: str, k: Optional[int] = None) -> int:
        return sum(x if k is None else x[k] for x in infos[layer])

    out["exact_lattice.smith_normal_form.max_bits"] = max(infos["exact_lattice.smith_normal_form"], default=0)
    out["cones_fans.contains.hit_ratio"] = _ratio(
        total("cones_fans.contains"), out["cones_fans.contains.calls"]
    )
    out["cones_fans.fan_init.cones_in"] = total("cones_fans.fan_init")
    scanned = total("cones_fans.star_subdivide", 0)
    touched = total("cones_fans.star_subdivide", 1)
    out["cones_fans.star_subdivide.cones_scanned"] = scanned
    out["cones_fans.star_subdivide.cones_touched"] = touched
    out["cones_fans.star_subdivide.touch_ratio"] = _ratio(touched, scanned)
    out["cones_fans.validate_fan.pairs"] = total("cones_fans.validate_fan")
    out["quotient_classifier.quotient_type.max_order"] = max(
        infos["quotient_classifier.quotient_type"], default=0
    )
    out["resolution_engine.steps"] = total("resolution_engine.resolve", 0)
    out["resolution_engine.nontame_steps"] = total("resolution_engine.resolve", 1)
    out["resolution_engine.final_cones"] = total("resolution_engine.resolve", 2)
    for layer in ("parse_fan", "emit_fan", "emit_trace", "parse_trace"):
        out[f"fanfile.{layer}.bytes"] = total(f"fanfile.{layer}")
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class CacheStats:
    """Hits, misses and peak entries of the lru caches, summed over operations.

    Caches are cleared before every operation, so ``add`` is called after
    each one, before the next clear.
    """

    def __init__(self, caches: dict[str, Callable]) -> None:
        self.caches = caches
        self.hits = defaultdict(int)
        self.lookups = defaultdict(int)
        self.peak_entries = 0

    def add(self) -> None:
        for layer, key in HIT_RATIO_CACHES.items():
            info = self.caches[key].cache_info()
            self.hits[layer] += info.hits
            self.lookups[layer] += info.hits + info.misses
        entries = sum(
            c.cache_info().currsize
            for key, c in self.caches.items()
            if key.startswith(ENTRY_CACHES_MODULE + ".")
        )
        self.peak_entries = max(self.peak_entries, entries)

    def metrics(self) -> dict[str, float]:
        out = {f"{layer}.hit_ratio": _ratio(self.hits[layer], self.lookups[layer]) for layer in HIT_RATIO_CACHES}
        out["weighted_filtration.cache_entries"] = self.peak_entries
        return out


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
