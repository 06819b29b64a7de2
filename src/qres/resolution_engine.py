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

A blow-up changes only the stars of its centers, so each step passes its
state to the next instead of rebuilding it from the fan.  The fan carries
its ray index (:attr:`~qres.cones_fans.Fan.ray_index`) and the marked fan
its singular cones grouped by multiplicity (:attr:`MarkedFan.singular`),
from which the measures and the targets are read.  The step's
:func:`~qres.cones_fans.star_subdivide` records the cones it removed and
added and the pieces of each cone it split: the child's groups are the
parent's less the removed cones plus the singular added ones, only those
are checked for a cyclic quotient, and each center's charts are the pieces
the subdivision made of it.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Optional

from .cones_fans import (
    Cone,
    Fan,
    Subdivision,
    _subdivide_cone,
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
    _validate_characteristic,
    cone_characters,
    is_tame,
    standard_cone,
    unit_weights,
)

PHASE_MAX_ORDER = "max-order"
PHASE_NON_TAME = "non-tame"

_STEP_BUDGET = 100_000


@dataclass(frozen=True)
class MarkedFan:
    """Fan with ordered marked divisor rays and a base characteristic.

    ``marked_position`` maps each marked ray to its last position in the
    marking, its creation index.  :attr:`singular` groups the singular cones
    of the fan by multiplicity; like ``marked_position`` it is derived data,
    not part of equality.
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
    def singular(self) -> dict[int, frozenset[Cone]]:
        """The singular cones of the fan by multiplicity; no multiplicity
        maps to an empty set.  One scan of the fan, on first read, for a
        constructed marked fan; a blow-up step derives it from its parent's
        (see :meth:`_subdivided`)."""
        groups: dict[int, set[Cone]] = {}
        for c in self.fan.cones:
            x = multiplicity(c)
            if x > 1:
                groups.setdefault(x, set()).add(c)
        return {x: frozenset(cs) for x, cs in groups.items()}

    @cached_property
    def _unchecked(self) -> tuple[Cone, ...]:
        """The singular cones whose quotient :func:`invariant` checks to be
        cyclic, in sorted order: all of them for a constructed marked fan,
        only those a blow-up step added for its result."""
        return tuple(sorted(itertools.chain(*self.singular.values()), key=Cone.sort_key))

    def _subdivided(
        self, fan: Fan, added_rays: tuple[IntegerVector, ...], done: Subdivision
    ) -> "MarkedFan":
        """The marked fan after a step that subdivided ``self.fan`` into
        ``fan``, as ``done`` records, and marked ``added_rays``.

        Only what the step changed is computed: the groups of
        :attr:`singular` lose the removed cones and gain the singular added
        ones, which alone are left for :func:`invariant` to check, and only
        the added rays are checked against the fan, since star subdivision
        keeps every ray.
        """
        rays = fan.ray_index
        for ray in added_rays:
            if ray not in rays:
                raise PreconditionError(f"marked ray {ray} is not a ray of the fan")
        changes: dict[int, tuple[list[Cone], list[Cone]]] = {}
        for c in done.removed:
            x = multiplicity(c)
            if x > 1:
                changes.setdefault(x, ([], []))[0].append(c)
        fresh = []
        for c in done.added:
            x = multiplicity(c)
            if x > 1:
                changes.setdefault(x, ([], []))[1].append(c)
                fresh.append(c)
        groups = dict(self.singular)
        for x, (drop, add) in changes.items():
            group = groups.get(x, frozenset()).difference(drop).union(add)
            if group:
                groups[x] = group
            else:
                del groups[x]
        n = len(self.marked_rays)
        position = dict(self.marked_position)
        position.update((ray, n + i) for i, ray in enumerate(added_rays))
        child = object.__new__(MarkedFan)
        child._set(fan, self.marked_rays + added_rays, self.characteristic, position)
        child.__dict__["singular"] = groups
        child.__dict__["_unchecked"] = tuple(sorted(fresh, key=Cone.sort_key))
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
    def ray_groups(self) -> tuple[tuple[IntegerVector, ...], ...]:
        return tuple(step.added_rays for step in self.steps)

    @property
    def hint_groups(self) -> tuple[tuple[Cone, ...], ...]:
        """For each added ray, the first center cone it was computed in."""
        groups = []
        for step in self.steps:
            cone_of = _center_cones(step.centers)
            groups.append(tuple(cone_of[u] for u in step.added_rays))
        return tuple(groups)

    @property
    def all_smooth(self) -> bool:
        return all(multiplicity(c) == 1 for c in self.final.fan.cones)

    @property
    def exceptional_rays(self) -> tuple[IntegerVector, ...]:
        return tuple(u for group in self.ray_groups for u in group)


def fan_digest(m: MarkedFan) -> str:
    payload = {
        "rank": m.fan.rank,
        "characteristic": m.characteristic,
        "cones": [[list(g.entries) for g in c.generators] for c in m.fan.sorted_cones()],
        "marked": [list(r.entries) for r in m.marked_rays],
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def invariant(m: MarkedFan) -> tuple[int, int]:
    """Maximal cone multiplicity and how many maximal cones attain it.

    Raises :class:`~qres.errors.UnsupportedInputError` at the first cone in
    sorted order whose quotient is not cyclic.  Only singular cones are
    checked, since a smooth cone's quotient is trivial, and of a blow-up
    step's result only those the step added: the rest were checked in its
    parent, so the first failure is the same.
    """
    for cone in m._unchecked:
        cone_characters(cone)
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


def _center_for(m: MarkedFan, cone: Cone) -> Center:
    order, chars = cone_characters(cone)
    if order == 1:
        raise PreconditionError(f"{cone} is already smooth")
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
    num = [0] * cone.rank
    for w, g in zip(weights, gens):
        for j in range(cone.rank):
            num[j] += w * g.entries[j]
    if any(x % order for x in num):
        raise MeasureError(f"center of {cone} is not a lattice point")
    ray = IntegerVector([x // order for x in num])
    if not is_primitive(ray):
        raise MeasureError(f"center ray {ray} of {cone} is not primitive")
    return Center(cone, ray, divisor_ray, divisor_index, order, weights)


def _local_charts(
    center: Center, characteristic: int, done: Subdivision
) -> tuple[ChartRecord, ...]:
    pieces = done.pieces.get((center.cone, center.ray))
    if pieces is None:
        # an earlier ray of the same step split the center cone first
        pieces = _subdivide_cone(center.cone, center.ray)
    expected = sorted(w for w in center.weights if w > 0)
    got = sorted(multiplicity(piece) for piece in pieces)
    if got != expected:
        raise MeasureError(f"chart orders {got} differ from weights {expected}")
    records = []
    for piece in sorted(pieces, key=Cone.sort_key):
        order, chars = cone_characters(piece)
        pos = piece.generators.index(center.ray)
        exc = chars[pos]
        # the exceptional character is the center order mod the chart order,
        # hence a unit exactly when those two orders are coprime; singular
        # charts always keep the old divisor ray, whose character is -1
        if math.gcd(center.order, order) == 1 and math.gcd(exc, order) != 1:
            raise MeasureError(f"exceptional character of {piece} is not a unit")
        if order > 1 and (
            center.divisor_ray not in piece.generators
            or math.gcd(chars[piece.generators.index(center.divisor_ray)], order) != 1
        ):
            raise MeasureError(f"divisor ray lost faithfulness on {piece}")
        tame = is_tame(order, characteristic)
        records.append(
            ChartRecord(piece, order, CyclicQuotientType(order, chars), tame, exc)
        )
    return tuple(records)


def _center_cones(centers: Iterable[Center]) -> dict[IntegerVector, Cone]:
    """Each center ray with the first center cone it was computed in, the
    hint :func:`~qres.cones_fans.star_subdivide` takes for that ray."""
    out: dict[IntegerVector, Cone] = {}
    for center in centers:
        out.setdefault(center.ray, center.cone)
    return out


def _targets(m: MarkedFan, order: int) -> list[Cone]:
    """Cones of multiplicity ``order``, in sorted order."""
    return sorted(m.singular.get(order, ()), key=Cone.sort_key)


def _apply_step(
    m: MarkedFan,
    phase: str,
    inv_before: tuple[int, int],
    nt_before: Optional[tuple[int, int]],
) -> tuple[MarkedFan, StepRecord]:
    """Blow up every cone of the order the phase targets.

    ``inv_before`` and ``nt_before`` are the measures of ``m``; the step
    computes only the measures of the result, from the state it derives
    from ``m`` and the record of its subdivision.
    """
    top = nt_before[0] if phase == PHASE_NON_TAME else inv_before[0]
    centers = tuple(_center_for(m, c) for c in _targets(m, top))
    cone_of = _center_cones(centers)
    added = tuple(sorted(cone_of, key=lambda v: v.entries))
    done = Subdivision()
    fan = star_subdivide(m.fan, *added, hints=[cone_of[u] for u in added], record=done)
    new_m = m._subdivided(fan, added, done)
    charts = tuple(_local_charts(center, m.characteristic, done) for center in centers)
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
    return new_m, record


def blowup_step(m: MarkedFan) -> tuple[MarkedFan, StepRecord]:
    """One simultaneous blow-up of all cones of maximal multiplicity."""
    inv = invariant(m)
    if inv[0] == 1:
        raise PreconditionError("fan is already smooth")
    return _apply_step(m, PHASE_MAX_ORDER, inv, _nontame_invariant(m))


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
    marking.  Raises :class:`MeasureError` when a recorded measure fails to
    decrease or the final fan is not smooth.
    """
    for cone in m.fan.sorted_cones():
        if multiplicity(cone) > 1:
            _center_for(m, cone)
    steps: list[StepRecord] = []
    current = m
    inv, nt = invariant(m), _nontame_invariant(m)
    while len(steps) <= _STEP_BUDGET:
        if nt is not None:
            phase = PHASE_NON_TAME
        elif inv[0] > 1:
            phase = PHASE_MAX_ORDER
        else:
            break
        current, record = _apply_step(current, phase, inv, nt)
        _check_step_measure(record)
        steps.append(record)
        inv, nt = record.invariant_after, record.nontame_after
    else:
        raise MeasureError("step budget exceeded; measure failed to make progress")
    if not all(multiplicity(c) == 1 for c in current.fan.cones):
        raise MeasureError("resolution ended with a singular cone")
    return ResolutionTrace(fan_digest(m), tuple(steps), current)


def replay(m: MarkedFan, trace) -> Fan:
    """Re-apply the recorded subdivisions; exact agreement is enforced.

    Accepts anything exposing ``input_digest``, ``ray_groups``,
    ``hint_groups`` and ``final`` the way :class:`ResolutionTrace` does.
    Each ray group is one :func:`~qres.cones_fans.star_subdivide` call, with
    one hint cone (the recorded center cone) or ``None`` per ray.  The hints
    only choose where to look: a hint is used only after checking that it
    contains its ray, and a missing, misplaced or stale one costs a scan of
    the fan, so the replayed fan never depends on them.  The final state
    must also keep the input's characteristic and mark its rays followed by
    every added ray in order.
    """
    if fan_digest(m) != trace.input_digest:
        raise ReplayError("trace was produced from a different input")
    fan = m.fan
    try:
        for group, hints in zip(trace.ray_groups, trace.hint_groups, strict=True):
            fan = star_subdivide(fan, *group, hints=hints)
    except (SupportError, DegenerateInputError) as exc:
        raise ReplayError(f"recorded ray cannot be applied: {exc}") from exc
    final = trace.final
    if fan != final.fan:
        raise ReplayError("replayed fan differs from the recorded final fan")
    if final.characteristic != m.characteristic:
        raise ReplayError("recorded final characteristic differs from the input's")
    added = tuple(u for group in trace.ray_groups for u in group)
    if final.marked_rays != m.marked_rays + added:
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
