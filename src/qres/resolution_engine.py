"""Iterated weighted blow-up of marked fans until every chart is smooth.

The state is a fan with an ordered list of marked divisor rays and a base
characteristic.  Each step star-subdivides every cone of the targeted
multiplicity at the lattice point determined by its unit-normalized
characters, appends the new exceptional rays to the marking, and records
enough data to replay the computation exactly.

Two kinds of step alternate: ordinary steps target the cones of maximal
multiplicity; whenever charts of order divisible by the characteristic
appear, dedicated steps target the maximal such order first, using the
freshest marked ray with unit character (largest creation index) as the
divisor.  Both measures decrease strictly; that and every other invariant
of the loop is checked explicitly and a failure raises
:class:`~qres.errors.MeasureError`, so the checks survive ``python -O``.
One function chooses the next step, takes it and checks its measure:
:func:`resolve` repeats it until the fan is smooth and :func:`blowup_step`
takes it once, so iterating ``blowup_step`` makes exactly ``resolve``'s
steps, in either characteristic.  :func:`replay` reads a trace as one
sequence of subdivisions, each added ray with the first center cone
naming it.

A blow-up changes only the stars of its centers, so each step passes its
state to the next instead of rebuilding it from the fan.  The fan carries
its ray index (:attr:`~qres.cones_fans.Fan.ray_index`) and the marked fan
the order and characters of each singular cone (:attr:`MarkedFan.singular`),
from which the measures, the targets and the centers are read.  The step's
:func:`~qres.cones_fans.star_subdivide` records the cones it removed and
added and the pieces of each cone it split.  The step classifies each added
cone once, which checks that its quotient is cyclic: the child's groups are
the parent's less the removed cones plus the singular added ones, and each
center's charts are the pieces the subdivision made of it, with their
orders and characters from that classification.
"""

from __future__ import annotations

import hashlib
import json
import math
import operator
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Optional

from .cones_fans import (
    Cone,
    Fan,
    Subdivision,
    multiplicity,
    star_subdivide,
)
from .errors import (
    DegenerateInputError,
    MeasureError,
    NoFaithfulDivisorError,
    PreconditionError,
    ReplayError,
    SupportError,
)
from .exact_lattice import IntegerVector, is_primitive
from .quotient_classifier import (
    CyclicQuotientType,
    _smooth_descriptor,
    _validate_characteristic,
    cone_characters,
    is_tame,
    standard_cone,
    unit_weights,
)

PHASE_MAX_ORDER = "max-order"
PHASE_NON_TAME = "non-tame"

_STEP_BUDGET = 100_000

# the order and generator-aligned characters of a cone's cyclic quotient
Quotient = tuple[int, tuple[int, ...]]

# chart types by order and sorted characters: the canonical form and the
# faithfulness check read only the order and the multiset of characters
TypeMemo = dict[Quotient, CyclicQuotientType]


@dataclass(frozen=True)
class MarkedFan:
    """Fan with ordered marked divisor rays and a base characteristic.

    ``marked_position`` maps each marked ray to its last position in the
    marking, its creation index.  :attr:`singular` holds the order and
    characters of each singular cone; like ``marked_position`` it is
    derived data, not part of equality.
    """

    fan: Fan
    marked_rays: tuple[IntegerVector, ...]
    characteristic: int
    marked_position: dict[IntegerVector, int] = field(
        init=False, repr=False, compare=False
    )

    def __init__(
        self,
        fan: Fan,
        marked_rays: Iterable[IntegerVector],
        characteristic: int = 0,
    ):
        marked = tuple(marked_rays)
        _validate_characteristic(characteristic)
        rays = fan.ray_index
        for ray in marked:
            if ray not in rays:
                raise PreconditionError(f"marked ray {ray} is not a ray of the fan")
        self._set(
            fan, marked, int(characteristic), {ray: i for i, ray in enumerate(marked)}
        )

    def _set(
        self,
        fan: Fan,
        marked: tuple[IntegerVector, ...],
        characteristic: int,
        position: dict[IntegerVector, int],
    ) -> None:
        object.__setattr__(self, "fan", fan)
        object.__setattr__(self, "marked_rays", marked)
        object.__setattr__(self, "characteristic", characteristic)
        object.__setattr__(self, "marked_position", position)

    @cached_property
    def singular(self) -> dict[int, dict[Cone, tuple[int, ...]]]:
        """The singular cones of the fan by order, each with its characters;
        no order maps to an empty dict.  Classified in sorted order on first
        read for a constructed marked fan, so the first cone that is not
        cyclic raises; a blow-up step derives it from its parent's."""
        groups: dict[int, dict[Cone, tuple[int, ...]]] = {}
        for c in self.fan.sorted_cones():
            order, chars = cone_characters(c)
            if order > 1:
                groups.setdefault(order, {})[c] = chars
        return groups

    def _subdivided(
        self,
        fan: Fan,
        added_rays: tuple[IntegerVector, ...],
        done: Subdivision,
        classes: dict[Cone, Quotient],
    ) -> "MarkedFan":
        """The marked fan after a step that subdivided ``self.fan`` into
        ``fan``, as ``done`` records, and marked ``added_rays``; ``classes``
        holds the quotient of every cone in ``done.added``.

        Only what the step changed is computed: the groups of
        :attr:`singular` lose the removed cones and gain the singular added
        ones.  The added rays need no check against the fan:
        :func:`star_subdivide` raises unless each lands in a cone, and no ray
        of a split cone is lost.
        """
        changes: dict[int, tuple[set[Cone], dict[Cone, tuple[int, ...]]]] = {}
        for c in done.removed:
            # a full-dimensional cone's multiplicity is its det
            x = c.det if c.is_full_dimensional() else multiplicity(c)
            if x > 1:
                changes.setdefault(x, (set(), {}))[0].add(c)
        for c, (x, chars) in classes.items():
            if x > 1:
                changes.setdefault(x, (set(), {}))[1][c] = chars
        groups = dict(self.singular)
        for x, (drop, add) in changes.items():
            groups[x] = {c: ch for c, ch in groups.get(x, {}).items() if c not in drop} | add
        n = len(self.marked_rays)
        position = dict(self.marked_position)
        position.update((ray, n + i) for i, ray in enumerate(added_rays))
        child = object.__new__(MarkedFan)
        child._set(fan, self.marked_rays + added_rays, self.characteristic, position)
        child.__dict__["singular"] = {x: group for x, group in groups.items() if group}
        return child


@dataclass(frozen=True)
class Center:
    """One targeted cone with its subdivision data.

    ``weights`` are the cone's characters rescaled so the chosen divisor
    ray has character 1; ``ray`` is the lattice point with barycentric
    coordinates ``weights / order`` in the cone generators.
    """

    cone: Cone
    ray: IntegerVector
    divisor_ray: IntegerVector
    divisor_index: int
    order: int
    weights: tuple[int, ...]


@dataclass(frozen=True)
class ChartRecord:
    """Quotient data of one cone created by a subdivision."""

    cone: Cone
    order: int
    chart_type: CyclicQuotientType
    tame: bool
    exceptional_character: int


@dataclass(frozen=True)
class StepRecord:
    """Everything one step did, sufficient for replay and certification."""

    phase: str
    centers: tuple[Center, ...]
    added_rays: tuple[IntegerVector, ...]
    charts: tuple[tuple[ChartRecord, ...], ...]
    invariant_before: tuple[int, int]
    invariant_after: tuple[int, int]
    nontame_before: Optional[tuple[int, int]]
    nontame_after: Optional[tuple[int, int]]


@dataclass(frozen=True)
class ResolutionTrace:
    """Ordered step records plus the final state."""

    input_digest: str
    steps: tuple[StepRecord, ...]
    final: MarkedFan

    @property
    def subdivisions(self) -> tuple[tuple[IntegerVector, Cone], ...]:
        """Each added ray with the first center cone naming it, in the order
        the steps applied them: what :func:`replay` subdivides at."""
        out: list[tuple[IntegerVector, Cone]] = []
        for step in self.steps:
            cone_of = _center_cones(step.centers)
            out.extend((u, cone_of[u]) for u in step.added_rays)
        return tuple(out)

    @cached_property
    def all_smooth(self) -> bool:
        """Whether every final cone has multiplicity 1; computed once."""
        return all(multiplicity(c) == 1 for c in self.final.fan.cones)

    @cached_property
    def measure_decreasing(self) -> bool:
        """Whether every step's measure strictly drops by the rule
        :func:`resolve` enforces on each step; computed once."""
        try:
            for step in self.steps:
                _check_step_measure(step)
        except MeasureError:
            return False
        return True

    @property
    def exceptional_rays(self) -> tuple[IntegerVector, ...]:
        return tuple(u for step in self.steps for u in step.added_rays)


def fan_digest(m: MarkedFan) -> str:
    payload = {
        "rank": m.fan.rank,
        "characteristic": m.characteristic,
        "cones": [c.generators for c in m.fan.sorted_cones()],
        "marked": m.marked_rays,
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def invariant(m: MarkedFan) -> tuple[int, int]:
    """Maximal cone multiplicity and how many maximal cones attain it.

    Read from :attr:`MarkedFan.singular`, whose first read on a constructed
    marked fan raises :class:`~qres.errors.UnsupportedInputError` at the
    first cone in sorted order whose quotient is not cyclic.
    """
    groups = m.singular
    if not groups:
        return 1, len(m.fan.cones)
    top = max(groups)
    return top, len(groups[top])


def _nontame_invariant(m: MarkedFan) -> Optional[tuple[int, int]]:
    bad = [x for x in m.singular if not is_tame(x, m.characteristic)]
    if not bad:
        return None
    top = max(bad)
    return top, len(m.singular[top])


def _center_for(m: MarkedFan, cone: Cone, order: int) -> Center:
    """The center of a singular cone of this order, from its carried characters."""
    chars = m.singular[order][cone]
    gens = cone.generators
    position = m.marked_position
    unit_marked = [
        (position[ray], k)
        for k, ray in enumerate(gens)
        if ray in position and math.gcd(chars[k], order) == 1
    ]
    if not unit_marked:
        raise NoFaithfulDivisorError(
            f"no marked ray of {cone} (order {order}) carries a unit character"
        )
    divisor_index, k = max(unit_marked)
    divisor_ray = gens[k]
    weights = unit_weights(order, chars, k)
    num = [sum(map(operator.mul, weights, col)) for col in zip(*gens)]
    if any(x % order for x in num):
        raise MeasureError(f"center of {cone} is not a lattice point")
    ray = IntegerVector([x // order for x in num])
    if not is_primitive(ray):
        raise MeasureError(f"center ray {ray} of {cone} is not primitive")
    return Center(cone, ray, divisor_ray, divisor_index, order, weights)


def _local_charts(
    center: Center,
    characteristic: int,
    done: Subdivision,
    classes: dict[Cone, Quotient],
    types: TypeMemo,
) -> tuple[ChartRecord, ...]:
    """The chart records of a center's pieces, in sorted order, with their
    quotients from the step's ``classes``.  Every order-1 piece has the
    trivial type of the center's dimension, which the shared smooth
    descriptor of that dimension holds; every other type is taken from, or
    made once into, the memo ``types``."""
    # no center splits another's cone: a center ray lies on a face carrying its
    # cone's whole group, so every target having that face has the same ray
    pieces = done.pieces.get((center.cone, center.ray), ())
    charts = sorted((piece.sort_key(), piece, classes.get(piece)) for piece in pieces)
    if not pieces or any(q is None for _, _, q in charts):
        raise MeasureError(f"the step did not subdivide its center {center.cone}")
    expected = sorted(w for w in center.weights if w > 0)
    got = sorted(q[0] for _, _, q in charts)
    if got != expected:
        raise MeasureError(f"chart orders {got} differ from weights {expected}")
    trivial = _smooth_descriptor(len(center.cone.generators)).cqs
    records = []
    for _, piece, (order, chars) in charts:
        if order == 1:
            # every character is 0, order 1 is tame and gcd(x, 1) = 1 passes
            # both checks below
            records.append(ChartRecord(piece, 1, trivial, True, 0))
            continue
        gens = piece.generators
        exc = chars[gens.index(center.ray)]
        # the exceptional character is the center order mod the chart order,
        # hence a unit exactly when those two orders are coprime; singular
        # charts always keep the old divisor ray, whose character is -1
        if math.gcd(center.order, order) == 1 and math.gcd(exc, order) != 1:
            raise MeasureError(f"exceptional character of {piece} is not a unit")
        if (
            center.divisor_ray not in gens
            or math.gcd(chars[gens.index(center.divisor_ray)], order) != 1
        ):
            raise MeasureError(f"divisor ray lost faithfulness on {piece}")
        key = (order, tuple(sorted(chars)))
        chart_type = types.get(key)
        if chart_type is None:
            chart_type = types[key] = CyclicQuotientType(order, chars)
        tame = is_tame(order, characteristic)
        records.append(ChartRecord(piece, order, chart_type, tame, exc))
    return tuple(records)


def _center_cones(centers: Iterable[Center]) -> dict[IntegerVector, Cone]:
    """Each center ray with the first center cone it was computed in, the
    cone :func:`~qres.cones_fans.star_subdivide` takes for that ray."""
    out: dict[IntegerVector, Cone] = {}
    for center in centers:
        out.setdefault(center.ray, center.cone)
    return out


def _targets(m: MarkedFan, order: int) -> list[Cone]:
    """Cones of multiplicity ``order``, in sorted order."""
    return sorted(m.singular.get(order, ()), key=Cone.sort_key)


def _apply_step(
    m: MarkedFan,
    inv_before: tuple[int, int],
    nt_before: Optional[tuple[int, int]],
    types: TypeMemo,
) -> tuple[MarkedFan, StepRecord]:
    """The next step of :func:`resolve` from ``m``, whose measures are
    ``inv_before`` and ``nt_before``: while a chart is non-tame, a non-tame
    step blows up every cone of the largest non-tame order, and otherwise a
    max-order step every cone of the largest order.  Raises
    :class:`MeasureError` unless the step's measure drops.

    The step computes only the measures of the result, from the state it
    derives from ``m`` and the record of its subdivision.  ``types`` is the
    memo of chart types :func:`_local_charts` reads and fills;
    :func:`resolve` keeps one for all its steps.
    """
    if nt_before is not None:
        phase, top = PHASE_NON_TAME, nt_before[0]
    else:
        phase, top = PHASE_MAX_ORDER, inv_before[0]
    centers = tuple(_center_for(m, c, top) for c in _targets(m, top))
    cone_of = _center_cones(centers)
    added = tuple(sorted(cone_of))
    done = Subdivision()
    fan = star_subdivide(m.fan, added, [cone_of[u] for u in added], record=done)
    # each added cone is classified once, in sorted order: the first not cyclic raises
    classes = {c: cone_characters(c) for c in sorted(done.added, key=Cone.sort_key)}
    new_m = m._subdivided(fan, added, done, classes)
    charts = tuple(
        _local_charts(c, m.characteristic, done, classes, types) for c in centers
    )
    record = StepRecord(
        phase=phase,
        centers=centers,
        added_rays=added,
        charts=charts,
        invariant_before=inv_before,
        invariant_after=invariant(new_m),
        nontame_before=nt_before,
        nontame_after=_nontame_invariant(new_m),
    )
    _check_step_measure(record)
    return new_m, record


def blowup_step(m: MarkedFan) -> tuple[MarkedFan, StepRecord]:
    """The next step of :func:`resolve` from ``m``: iterating it from a
    marked fan makes exactly the steps that ``resolve`` records.  Raises
    :class:`PreconditionError` when ``m`` is already smooth."""
    inv = invariant(m)
    if inv[0] == 1:
        raise PreconditionError("fan is already smooth")
    return _apply_step(m, inv, _nontame_invariant(m), {})


def _check_step_measure(record: StepRecord) -> None:
    if record.phase == PHASE_NON_TAME:
        before, after = record.nontame_before, record.nontame_after
        if before is None or (after is not None and after >= before):
            raise MeasureError(
                f"non-tame measure did not decrease: {before} -> {after}"
            )
        if record.invariant_after > record.invariant_before:
            raise MeasureError("global measure increased during a non-tame step")
    else:
        if record.invariant_after >= record.invariant_before:
            raise MeasureError(
                f"measure did not decrease: {record.invariant_before} -> "
                f"{record.invariant_after}"
            )


def resolve(m: MarkedFan) -> ResolutionTrace:
    """Blow up until every cone is smooth, recording a replayable trace.

    Requires every cone's quotient to be cyclic and every singular cone to
    have a marked ray with unit character; both are rechecked as new charts
    appear.  Charts of order divisible by the characteristic are eliminated
    before the next ordinary step, always using the freshest faithful
    marking (see :func:`_apply_step`).  Raises :class:`MeasureError` when a
    recorded measure fails to decrease or the final fan is not smooth.
    """
    order_of = {c: x for x, group in m.singular.items() for c in group}
    for cone in sorted(order_of, key=Cone.sort_key):
        _center_for(m, cone, order_of[cone])
    steps: list[StepRecord] = []
    types: TypeMemo = {}
    current = m
    inv, nt = invariant(m), _nontame_invariant(m)
    while inv[0] > 1:
        if len(steps) > _STEP_BUDGET:
            raise MeasureError("step budget exceeded; measure failed to make progress")
        current, record = _apply_step(current, inv, nt, types)
        steps.append(record)
        inv, nt = record.invariant_after, record.nontame_after
    trace = ResolutionTrace(fan_digest(m), tuple(steps), current)
    if not trace.all_smooth:
        raise MeasureError("resolution ended with a singular cone")
    return trace


def replay(m: MarkedFan, trace) -> Fan:
    """Re-apply the recorded subdivisions; exact agreement is enforced.

    Accepts anything exposing ``input_digest``, ``subdivisions`` and
    ``final`` the way :class:`ResolutionTrace` does.  The subdivisions, each
    an added ray with the first center cone naming it, in the order the
    steps applied them, are one batched
    :func:`~qres.cones_fans.star_subdivide` call, which applies its rays in
    order and lets a later ray split an earlier ray's piece, so it equals one
    call per step and builds one :class:`~qres.cones_fans.Fan`.  Each center
    cone must contain its ray, and its face containing the ray must be a
    cone of the fan at that point.  A center that breaks this is a
    :class:`ReplayError`, like a ray outside the fan; it is never repaired
    by scanning the fan.  The final state must also keep the input's
    characteristic and mark its rays followed by every added ray in order.
    """
    if fan_digest(m) != trace.input_digest:
        raise ReplayError("trace was produced from a different input")
    subdivisions = trace.subdivisions
    rays = tuple(u for u, _ in subdivisions)
    try:
        fan = star_subdivide(m.fan, rays, [cone for _, cone in subdivisions])
    except (SupportError, DegenerateInputError) as exc:
        raise ReplayError(f"recorded ray cannot be applied: {exc}") from exc
    final = trace.final
    if fan != final.fan:
        raise ReplayError("replayed fan differs from the recorded final fan")
    if final.characteristic != m.characteristic:
        raise ReplayError("recorded final characteristic differs from the input's")
    if final.marked_rays != m.marked_rays + rays:
        raise ReplayError("recorded final marking is not the input's plus the added rays")
    return fan


def marked_fan_from_characters(
    order: int, chars: Iterable[int], characteristic: int = 0
) -> MarkedFan:
    """Marked fan of the literal tuple, preserving coordinate positions.

    The cone is :func:`~qres.quotient_classifier.standard_cone` with the
    last coordinate as divisor (its character must be a unit), and the
    divisor ray is marked.  The tuple is kept as given instead of
    canonicalized, so the fan lives in the coordinates the caller wrote down.
    """
    chars = tuple(int(c) % order for c in chars)
    n = len(chars)
    if n < 1:
        raise PreconditionError("need at least one character")
    if math.gcd(chars[-1], order) != 1:
        raise NoFaithfulDivisorError(
            f"last character of 1/{order}{chars} is not a unit"
        )
    cone, divisor = standard_cone(order, chars, n - 1)
    return MarkedFan(Fan(n, [cone]), (divisor,), characteristic)
