"""Line-oriented JSON formats for marked fans and resolution traces.

Every line is one JSON record; integers are written as decimal strings so
consumers without big-integer support can stay exact.  Emission is
byte-deterministic: keys are sorted, ordering of records is canonical.
An integer field is read back from a string of an optional ``-`` and ASCII
digits only: ``"+1"``, ``"1_0"``, ``" 1 "`` and non-ASCII digits, all of
which ``int`` alone accepts, are parse errors.  A JSON integer is also
read; a boolean or any other value is an error.

:func:`emit_trace` writes its step and ``final_fan`` records directly, with
no JSON encoder pass: each distinct vector is turned into its JSON text,
such as ``["1","-2"]``, once per call, and each record is assembled with its
keys in sorted order, so its bytes equal ``json.dumps`` with
``sort_keys=True`` and ``separators=(",", ":")``.  Nothing needs escaping:
every value there is a decimal string, a boolean, ``null``, or ASCII text
the program makes itself (a phase name or a ``1/l(c_1,...,c_n)`` type).
The header record, which carries the input digest, the ``certificates``
record and fan files go through the encoder.  The ``certificates`` record
copies the verdicts the trace owns, ``all_smooth`` and ``measure_decreasing``
of :class:`~qres.resolution_engine.ResolutionTrace`, and runs none of the
engine's rules again.

A trace names the same rays many times: every added ray comes back in
center rays, center cones, final cones and markings.  :func:`parse_trace`
parses each distinct vector payload once per call and hands the same
:class:`~qres.exact_lattice.IntegerVector` to every record that repeats it,
so later dict, set and fan comparisons of these vectors short-circuit on
identity: a dict or set lookup, and the item-by-item comparison of two
generator tuples, test identity before comparing entries.  Every center and
final cone is still built, and so checked, by the
:class:`~qres.cones_fans.Cone` constructor, which for a full-dimensional
cone of rank 2 to 4 checks independence by a closed-form determinant and
makes the cone's cofactor rows only when they are first read.  Replay reads
them for the center cones, to place each ray; it compares the final cones
only by their generators, so none of them ever holds rows.  The step
records must carry the indices ``0..N-1``, in any order, every vector the
header's rank, which must be positive, and there is one ``final_fan``
record.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Optional

from .cones_fans import Cone, Fan, validate_fan
from .errors import FanParseError, PreconditionError, QresError
from .exact_lattice import IntegerVector, is_primitive, parse_decimal
from .resolution_engine import MarkedFan, ResolutionTrace, StepRecord

TRACE_FORMAT = "qres-trace-v1"


def dump_json(obj: Any) -> str:
    """``obj`` as one line of JSON, keys sorted, no spaces: the form of
    every record and report qres writes."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _s(x: int) -> str:
    return str(int(x))


def _vec(v: IntegerVector) -> list[str]:
    return [_s(e) for e in v]


class _VectorJson(dict):
    """The JSON text of each distinct vector, such as ``["1","-2"]``, built
    on first use; one per :func:`emit_trace` call, which names each ray in
    many center, chart and final cones."""

    def __missing__(self, v: IntegerVector) -> str:
        out = self[v] = json_strings(v)
        return out

    def cone(self, c: Cone) -> str:
        return "[" + ",".join([self[g] for g in c.generators]) + "]"


def json_strings(items: Iterable[Any]) -> str:
    """The JSON array of the strings of ``items``: texts that need no
    escapes, such as a ray ``(1,-2)``, or integers, written in decimal."""
    return "[" + ",".join([f'"{x}"' for x in items]) + "]"


def _parse_int(value: Any, lineno: Optional[int], what: str) -> int:
    """An integer field: a decimal string, the form every record here is
    written in (see the module docstring), or a JSON integer."""
    if isinstance(value, str):
        try:
            return parse_decimal(value)
        except ValueError:
            raise FanParseError(f"{what} is not a decimal integer: {value!r}", lineno) from None
    if isinstance(value, bool):
        raise FanParseError(f"{what} must be an integer, got a boolean", lineno)
    if isinstance(value, int):
        return value
    raise FanParseError(f"{what} must be a decimal string, got {type(value).__name__}", lineno)


def _parse_vector(value: Any, lineno: Optional[int], what: str) -> IntegerVector:
    if not isinstance(value, list) or not value:
        raise FanParseError(f"{what} must be a nonempty list of integers", lineno)
    return IntegerVector([_parse_int(x, lineno, what) for x in value])


def _parse_vector_once(
    value: Any, rank: int, lineno: int, what: str, memo: dict[tuple[str, ...], IntegerVector]
) -> IntegerVector:
    """:func:`_parse_vector` of a vector of rank ``rank``, sharing one
    vector per distinct payload.

    Only lists of ``str`` items, the form :func:`emit_trace` writes, are
    keys: ``(1, 0)`` equals ``(True, 0)`` and ``(1.0, 0)``, so a looser key
    would let a payload that :func:`_parse_int` rejects hit the entry of a
    valid one.  A lookup needs no such check, since a tuple with an item
    that is not a ``str`` equals no key; the items are checked only before
    a parsed vector is stored.  Any other payload, an unhashable item
    included, takes the full parse every time.  The rank is checked when a
    vector is parsed, before it is stored, so a stored vector is returned
    unchecked: ``memo`` serves one call, of one rank.
    """
    key = None
    if type(value) is list:
        key = tuple(value)
        try:
            vec = memo.get(key)
        except TypeError:  # an unhashable item, such as a list or an object
            key = None
        else:
            if vec is not None:
                return vec
    vec = _parse_vector(value, lineno, what)
    if vec.rank != rank:
        raise FanParseError(f"{what} {vec} has rank {vec.rank}, expected {rank}", lineno)
    if key is not None and all(type(x) is str for x in key):
        memo[key] = vec
    return vec


def _rank_and_characteristic(header: dict, lineno: int) -> tuple[int, int]:
    """The positive rank and the characteristic (default 0) of a fan or trace header."""
    rank = _parse_int(header.get("rank"), lineno, "rank")
    characteristic = _parse_int(header.get("characteristic", "0"), lineno, "characteristic")
    if rank < 1:
        raise FanParseError("rank must be positive", lineno)
    return rank, characteristic


# ---------------------------------------------------------------------------
# fan files


def emit_fan(m: MarkedFan) -> str:
    rays = list(m.fan.rays())
    index = {ray: i for i, ray in enumerate(rays)}
    lines = [
        dump_json(
            {
                "record": "fan",
                "rank": _s(m.fan.rank),
                "characteristic": _s(m.characteristic),
            }
        )
    ]
    for i, ray in enumerate(rays):
        lines.append(dump_json({"record": "ray", "id": _s(i), "v": _vec(ray)}))
    for cone in m.fan.sorted_cones():
        lines.append(
            dump_json({"record": "cone", "rays": [_s(index[g]) for g in cone.generators]})
        )
    for ray in m.marked_rays:
        lines.append(dump_json({"record": "marked", "ray": _s(index[ray])}))
    return "\n".join(lines) + "\n"


def _records(text: str) -> Iterator[tuple[int, Any, dict]]:
    """Each nonblank line of ``text`` as its line number, ``record`` field
    and JSON object; raises :class:`FanParseError` at a line that is not a
    JSON object with a ``record`` field."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise FanParseError(f"invalid JSON at column {exc.colno}: {exc.msg}", lineno)
        if not isinstance(obj, dict) or "record" not in obj:
            raise FanParseError("expected a JSON object with a 'record' field", lineno)
        yield lineno, obj["record"], obj


def parse_fan(text: str) -> MarkedFan:
    header: Optional[dict] = None
    header_line = 0
    rays: dict[int, IntegerVector] = {}
    ray_ids: dict[IntegerVector, int] = {}
    ray_lines: dict[int, int] = {}
    cone_records: list[tuple[int, list[int]]] = []
    marked_records: list[tuple[int, int]] = []
    for lineno, kind, obj in _records(text):
        if kind == "fan":
            if header is not None:
                raise FanParseError("duplicate fan header", lineno)
            header = obj
            header_line = lineno
        elif kind == "ray":
            if "id" not in obj or "v" not in obj:
                raise FanParseError("ray record needs 'id' and 'v'", lineno)
            rid = _parse_int(obj["id"], lineno, "ray id")
            if rid in rays:
                raise FanParseError(f"duplicate ray id {rid}", lineno)
            vec = _parse_vector(obj["v"], lineno, "ray coordinates")
            if not is_primitive(vec):
                raise FanParseError(f"ray {vec} is not primitive", lineno)
            # a cone naming both ids would silently lose one generator
            if vec in ray_ids:
                raise FanParseError(f"ray {rid} repeats the vector of ray {ray_ids[vec]}", lineno)
            rays[rid] = vec
            ray_ids[vec] = rid
            ray_lines[rid] = lineno
        elif kind == "cone":
            ids = obj.get("rays")
            if not isinstance(ids, list) or not ids:
                raise FanParseError("cone record needs a nonempty 'rays' list", lineno)
            ids = [_parse_int(x, lineno, "cone ray id") for x in ids]
            if len(set(ids)) != len(ids):
                twice = next(rid for rid in ids if ids.count(rid) > 1)
                raise FanParseError(f"cone names ray id {twice} twice", lineno)
            cone_records.append((lineno, ids))
        elif kind == "marked":
            if "ray" not in obj:
                raise FanParseError("marked record needs a 'ray' id", lineno)
            marked_records.append((lineno, _parse_int(obj["ray"], lineno, "marked ray id")))
        else:
            raise FanParseError(f"unknown record type {kind!r}", lineno)
    if header is None:
        raise FanParseError("missing fan header record")
    rank, characteristic = _rank_and_characteristic(header, header_line)
    if not cone_records:
        raise FanParseError("fan file declares no cones")
    for rid, vec in rays.items():
        if vec.rank != rank:
            raise FanParseError(f"ray {rid} has rank {vec.rank}, expected {rank}", ray_lines[rid])
    cones = []
    for lineno, ids in cone_records:
        gens = []
        for rid in ids:
            if rid not in rays:
                raise FanParseError(f"cone references unknown ray id {rid}", lineno)
            gens.append(rays[rid])
        try:
            cones.append(Cone(rank, gens))
        except QresError as exc:
            raise FanParseError(f"invalid cone: {exc}", lineno)
    fan = Fan(rank, cones)
    if not validate_fan(fan):
        raise FanParseError("cones do not intersect along common faces")
    marked = []
    for lineno, rid in marked_records:
        if rid not in rays:
            raise FanParseError(f"marking references unknown ray id {rid}", lineno)
        marked.append(rays[rid])
    try:
        return MarkedFan(fan, marked, characteristic)
    except (PreconditionError, QresError) as exc:
        raise FanParseError(str(exc))


# ---------------------------------------------------------------------------
# trace files


# the JSON text of a boolean
JSON_BOOL = {True: "true", False: "false"}


def _measure_json(pair: Optional[tuple[int, int]]) -> str:
    return "null" if pair is None else json_strings(pair)


def _step_line(index: int, step: StepRecord, vec: _VectorJson) -> str:
    centers = []
    for center, charts in zip(step.centers, step.charts):
        chart_lines = [
            f'{{"cone":{vec.cone(ch.cone)},'
            f'"exceptional_character":"{int(ch.exceptional_character)}",'
            f'"order":"{int(ch.order)}","tame":{JSON_BOOL[ch.tame]},'
            f'"type":"{ch.chart_type}"}}'
            for ch in charts
        ]
        centers.append(
            f'{{"charts":[{",".join(chart_lines)}],"cone":{vec.cone(center.cone)},'
            f'"divisor_index":"{int(center.divisor_index)}",'
            f'"divisor_ray":{vec[center.divisor_ray]},"order":"{int(center.order)}",'
            f'"ray":{vec[center.ray]},"weights":{json_strings(center.weights)}}}'
        )
    added = ",".join([vec[u] for u in step.added_rays])
    return (
        f'{{"added":[{added}],"centers":[{",".join(centers)}],"index":"{int(index)}",'
        f'"invariant_after":{_measure_json(step.invariant_after)},'
        f'"invariant_before":{_measure_json(step.invariant_before)},'
        f'"nontame_after":{_measure_json(step.nontame_after)},'
        f'"nontame_before":{_measure_json(step.nontame_before)},'
        f'"phase":"{step.phase}","record":"step"}}'
    )


def emit_trace(trace: ResolutionTrace) -> str:
    final = trace.final
    vec = _VectorJson()
    lines = [
        dump_json(
            {
                "record": "trace",
                "format": TRACE_FORMAT,
                "input": trace.input_digest,
                "rank": _s(final.fan.rank),
                "characteristic": _s(final.characteristic),
            }
        )
    ]
    for i, step in enumerate(trace.steps):
        lines.append(_step_line(i, step, vec))
    cones = ",".join([vec.cone(c) for c in final.fan.sorted_cones()])
    marked = ",".join([vec[r] for r in final.marked_rays])
    lines.append(f'{{"cones":[{cones}],"marked":[{marked}],"record":"final_fan"}}')
    lines.append(
        dump_json(
            {
                "record": "certificates",
                "all_smooth": trace.all_smooth,
                "measure_decreasing": trace.measure_decreasing,
            }
        )
    )
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class TraceDocument:
    """Replayable view of a trace file: the input digest, the subdivisions
    and the final state, which :func:`~qres.resolution_engine.replay` reads.

    ``subdivisions`` pairs each added ray, in the order the steps applied
    them, with the first recorded center cone of its step whose ray it is;
    :func:`parse_trace` rejects an added ray that no center of its step
    names.  Replay subdivides each ray in the star of its center cone's face
    containing it, and a center cone that does not contain its ray is an
    error, never a reason to scan the fan.
    """

    input_digest: str
    subdivisions: tuple[tuple[IntegerVector, Cone], ...]
    final: MarkedFan


def parse_trace(text: str) -> TraceDocument:
    header: Optional[dict] = None
    header_line = 0
    steps: list[tuple[int, dict]] = []
    final_record: Optional[tuple[int, dict]] = None
    for lineno, kind, obj in _records(text):
        if kind == "trace":
            if header is not None:
                raise FanParseError("duplicate trace header", lineno)
            header, header_line = obj, lineno
        elif kind == "step":
            steps.append((lineno, obj))
        elif kind == "final_fan":
            if final_record is not None:
                raise FanParseError("duplicate final_fan record", lineno)
            final_record = (lineno, obj)
        elif kind == "certificates":
            continue
        else:
            raise FanParseError(f"unknown record type {kind!r}", lineno)
    if header is None:
        raise FanParseError("missing trace header record")
    if header.get("format") != TRACE_FORMAT:
        raise FanParseError(f"unsupported trace format {header.get('format')!r}", header_line)
    if final_record is None:
        raise FanParseError("missing final_fan record")
    digest = header.get("input")
    if not isinstance(digest, str):
        raise FanParseError("trace header lacks an input digest", header_line)
    rank, characteristic = _rank_and_characteristic(header, header_line)
    memo: dict[tuple[str, ...], IntegerVector] = {}
    subdivisions = []
    for lineno, obj in _steps_in_order(steps):
        added = obj.get("added")
        if not isinstance(added, list):
            raise FanParseError("step record needs an 'added' list", lineno)
        group = [_parse_vector_once(v, rank, lineno, "added ray", memo) for v in added]
        cone_of = _parse_center_cones(obj.get("centers"), rank, lineno, memo)
        for u in group:
            if u not in cone_of:
                raise FanParseError(f"added ray {u} is the ray of no center of its step", lineno)
            subdivisions.append((u, cone_of[u]))
    lineno, obj = final_record
    cones_payload = obj.get("cones")
    if not isinstance(cones_payload, list) or not cones_payload:
        raise FanParseError("final_fan record needs a nonempty 'cones' list", lineno)
    cones = []
    for payload in cones_payload:
        if not isinstance(payload, list):
            raise FanParseError("final_fan cone must be a list of rays", lineno)
        gens = [_parse_vector_once(v, rank, lineno, "cone ray", memo) for v in payload]
        try:
            cones.append(Cone(rank, gens))
        except QresError as exc:
            raise FanParseError(f"invalid final cone: {exc}", lineno)
    marked_payload = obj.get("marked", [])
    if not isinstance(marked_payload, list):
        raise FanParseError("final_fan 'marked' must be a list of rays", lineno)
    marked = [_parse_vector_once(v, rank, lineno, "marked ray", memo) for v in marked_payload]
    try:
        final = MarkedFan(Fan(rank, cones), marked, characteristic)
    except (PreconditionError, QresError) as exc:
        raise FanParseError(str(exc), lineno)
    return TraceDocument(digest, tuple(subdivisions), final)


def _steps_in_order(steps: list[tuple[int, dict]]) -> list[tuple[int, dict]]:
    """The step records sorted by their ``index``, which must run ``0..N-1``."""
    indexed = []
    for lineno, obj in steps:
        if "index" not in obj:
            raise FanParseError("step record needs an 'index'", lineno)
        indexed.append((_parse_int(obj["index"], lineno, "step index"), lineno, obj))
    indexed.sort(key=lambda t: t[:2])
    n = len(indexed)
    for expected, (index, lineno, _) in enumerate(indexed):
        if index == expected:
            continue
        if not 0 <= index < n:
            raise FanParseError(f"step index {index} is outside 0..{n - 1}", lineno)
        if index < expected:
            raise FanParseError(f"duplicate step index {index}", lineno)
        raise FanParseError(f"step index {expected} is missing", lineno)
    return [(lineno, obj) for _, lineno, obj in indexed]


def _parse_center_cones(
    centers: Any, rank: int, lineno: int, memo: dict[tuple[str, ...], IntegerVector]
) -> dict[IntegerVector, Cone]:
    """Each center ray of a step record with the first center cone naming it."""
    if not isinstance(centers, list):
        raise FanParseError("step record needs a 'centers' list", lineno)
    out: dict[IntegerVector, Cone] = {}
    for center in centers:
        if not isinstance(center, dict):
            raise FanParseError("step center must be a JSON object", lineno)
        ray = _parse_vector_once(center.get("ray"), rank, lineno, "center ray", memo)
        payload = center.get("cone")
        if not isinstance(payload, list):
            raise FanParseError("step center needs a 'cone' list of rays", lineno)
        gens = [_parse_vector_once(v, rank, lineno, "center cone ray", memo) for v in payload]
        try:
            cone = Cone(rank, gens)
        except QresError as exc:
            raise FanParseError(f"invalid center cone: {exc}", lineno)
        out.setdefault(ray, cone)
    return out
