"""Simplicial rational cones and fans.

Cones are stored by their primitive, linearly independent generators in a
canonical order, so equal cones compare equal and fans can be compared as
sets.  A generator is an :class:`~qres.exact_lattice.IntegerVector`, a
tuple, so that order is plain tuple order, lexicographic in the entries,
and the generator tuple itself is a cone's sort key; vectors hash in C, and
a cone hashes once, in its constructor.  Star subdivision and the
shared-face fan check are exact; no floating point is used anywhere.

Kernel.  Every cone has ``det = |det G_P|``, set on construction, and
``k`` cofactor rows ``C_j``, computed on first read, of its ``k x n``
generator matrix ``G`` with first column basis ``P``: ``sign(det G_P)``
times the columns of ``adj(G_P)``, zero off ``P``, so ``C_j . g_l`` is
``det`` if ``j = l`` and 0 otherwise.  One helper, :func:`_kernel`, makes
both, by :func:`~qres.exact_lattice.adjugate` (a closed form when the cone
is full-dimensional of rank 2-4, one fraction-free elimination otherwise),
and it is the only place rows are made.  A full-dimensional cone of rank
2-4 takes ``det``, which is all its independence check needs, from the
closed-form determinant (:func:`~qres.exact_lattice.closed_determinant`),
and a piece of a subdivision takes it from its parent; either runs the
helper only when its rows are first read, which for a final cone of a
parsed trace is never.  The constructor of any other cone runs the helper,
as its independence check, and keeps the rows.  By Cramer's rule on ``P`` a
vector ``v`` of the span has coordinates ``C_j . v / det``, and ``v`` is in
the span exactly when ``sum_j (C_j . v) g_j = det v``, which only a
lower-dimensional cone can miss.  Containment is sign tests of integer dot
products and star subdivision reads the numerators ``C_j . v``.  For a
full-dimensional cone ``P`` is every coordinate and ``det`` the
multiplicity.  The constructor checks each generator by one gcd of its
entries: 0 is the zero vector, above 1 a vector that is not primitive.

Star subdivision.  Every :class:`Fan` owns a dict from each of its rays to
the cones it generates (:attr:`Fan.ray_index`), built once from its cones
when first read.  :func:`star_subdivide` applies a batch of rays starting
from the input fan's index, copying only the sets of the rays it touches,
and builds its result from the star: the cone set and the updated index go
to :meth:`Fan._from_parts`, which runs no pass over the cones, so a step
costs the star of its rays, not a pass over every cone.  The result is
still checked to absorb no cone, locally: a cone can only absorb, or be
absorbed by, a cone having one of the call's rays.  A piece without its ray
lies in its parent, so a cone without any of the rays lies in an input
cone, and the input's cones form an antichain; hence comparing, for each
ray, the cones of different dimension in its set of the final index finds
every absorption, one dimension test per cone in a pure fan.  Each ray
comes with a cone containing it, in a blow-up its center cone, and the
index alone gives the star of that cone's face containing the ray, which
is the set of cones containing the ray; a cone that does not contain its
ray, or whose face is not a cone of the fan, is an error, never a reason
to scan the fan.  The pieces of a cone take their ``det`` from the
parent's numerators of the ray (see :func:`_subdivide_cone`), so a
subdivision runs no elimination and makes no cofactor row, and keep the
parent's sorted order with the new ray inserted where it sorts, so no piece
is sorted again.
On request a :class:`Subdivision` records the cones removed and added and
the pieces of every cone split, so a caller can update what it derives from
the fan instead of recomputing it.

Fan check.  :func:`validate_fan` asks of every pair of cones whether they
meet in the face they share.  A cofactor row ``C_j`` of a cone at a
generator the other cone lacks vanishes on the shared rays and is
nonnegative on its own cone; when it is strictly negative on every ray only
the other cone has, no point of the other cone outside the shared face lies
in this one, so the pair is settled by one row (a facet certificate).  The
integer work is done per distinct row, not per pair: every ray of the fan
is packed into one lane of ``n`` big integers, one per coordinate, and a
row's dot products with all ``R`` rays at once are ``n`` big-integer
multiply-adds, whose lane sign bits give the bit mask of the rays where
the row is negative and that of the rays where it is positive, the mask of
the row the cone across the facet has (see :func:`_sign_masks`).  Each row
is first scaled to a primitive row, except those of a cone with ``det`` 1:
they are the columns of a unimodular matrix, primitive already.  A pair
then costs a few ``&`` of ray masks per row.  Only pairs that no single row
of either cone settles go to the exact check, which decides whether a
separating functional exists: each shared ray's equality is removed by
substitution, and the inequalities left go to an integer Fourier-Motzkin
elimination (see :func:`_meet_in_common_face`).
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Iterable, Optional, Sequence

from .errors import DegenerateInputError, DimensionError, MeasureError, SupportError
from .exact_lattice import (
    IntegerVector,
    adjugate,
    closed_determinant,
    is_primitive,
    smith_elimination,
)


def _kernel(
    rank: int, gens: tuple[IntegerVector, ...]
) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """``det`` and the cofactor rows of the generators ``gens``, the only
    place cofactor rows are made (see the module docstring); raises
    :class:`DegenerateInputError` when ``gens`` are dependent."""
    pivots, det, adj = adjugate(gens)
    if adj is None:
        raise DegenerateInputError("generators are linearly dependent")
    # column j of adj(G_P), times sign(det), spread onto P is the row C_j
    cols = zip(*adj) if det > 0 else (tuple(-x for x in col) for col in zip(*adj))
    if len(pivots) == rank:
        return abs(det), tuple(cols)
    spread = []
    for col in cols:
        row = [0] * rank
        for i, x in zip(pivots, col):
            row[i] = x
        spread.append(tuple(row))
    return abs(det), tuple(spread)


@dataclass(frozen=True)
class Cone:
    """Simplicial cone spanned by primitive, independent lattice vectors.

    ``det`` is ``|det G_P|`` on the first column basis ``P`` of the
    generator matrix, set on construction, and ``cofactors[j] . v / det``
    is the ``j``-th coordinate of any ``v`` in the span of the generators
    (see the module docstring).  For a full-dimensional cone of rank 2-4
    the constructor computes ``det`` alone, by the closed-form determinant,
    and raises :class:`DegenerateInputError` when it is 0; such a cone,
    like one made by :meth:`_from_parts`, computes its rows by
    :func:`_kernel` when ``cofactors`` is first read.  For any other cone
    the constructor runs :func:`_kernel`, which raises the same error for
    dependent generators, and keeps both.  Below full dimension ``det`` is
    one maximal minor, a multiple of the multiplicity.  The zero cone of a
    given ambient rank has an empty generator tuple, ``det`` 1 and no
    cofactor rows.
    """

    rank: int
    generators: tuple[IntegerVector, ...]
    det: int = field(init=False, repr=False, compare=False)

    def __init__(self, rank: int, generators: Iterable[Iterable[int] | IntegerVector]):
        gens = tuple(
            g if isinstance(g, IntegerVector) else IntegerVector(g) for g in generators
        )
        for g in gens:
            if len(g) != rank:
                raise DimensionError(f"generator {g} does not live in rank {rank}")
            # the gcd of the entries is 0 only for the zero vector, 1 when primitive
            d = math.gcd(*g)
            if d != 1:
                if d == 0:
                    raise DegenerateInputError("the zero vector cannot generate a ray")
                raise DegenerateInputError(f"ray generator {g} is not primitive")
        gens = tuple(sorted(set(gens)))
        det = closed_determinant(gens) if len(gens) == rank else None
        if det is None:
            det, cofactors = _kernel(rank, gens)
            # not through __dict__: reading it makes CPython keep the instance's
            # attributes in a real dict, which slows every later attribute read
            object.__setattr__(self, "cofactors", cofactors)
        elif det == 0:
            raise DegenerateInputError("generators are linearly dependent")
        self._set(int(rank), gens, abs(det))

    def _set(self, rank: int, gens: tuple[IntegerVector, ...], det: int) -> None:
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "generators", gens)
        object.__setattr__(self, "det", det)
        object.__setattr__(self, "_hash", hash((rank, gens)))

    @classmethod
    def _from_parts(cls, rank: int, gens: tuple[IntegerVector, ...], det: int) -> "Cone":
        """A cone whose sorted, independent generators and ``det`` the
        caller has already established; see :func:`_subdivide_cone`, the
        only caller.  Its cofactor rows are computed when first read."""
        cone = object.__new__(cls)
        cone._set(rank, gens, det)
        return cone

    @cached_property
    def cofactors(self) -> tuple[tuple[int, ...], ...]:
        return _kernel(self.rank, self.generators)[1]

    def __hash__(self) -> int:
        # computed once: cones are hashed on every set insert and cache lookup
        return self._hash

    @property
    def dim(self) -> int:
        return len(self.generators)

    def is_full_dimensional(self) -> bool:
        return self.dim == self.rank

    def numerators(self, v: IntegerVector) -> Optional[tuple[tuple[int, ...], int]]:
        """Integer numerators ``n_j = C_j . v`` and common denominator
        ``det`` (not always the least) of the coordinates of ``v`` in the
        generators, or ``None`` when ``sum_j n_j g_j != det v``, that is off
        their span, which only a lower-dimensional cone can miss."""
        if v.rank != self.rank:
            raise DimensionError("vector rank does not match the cone")
        nums = tuple([sum(map(operator.mul, row, v)) for row in self.cofactors])
        if len(self.generators) < self.rank and any(
            sum(x * g[i] for x, g in zip(nums, self.generators)) != self.det * vi
            for i, vi in enumerate(v)
        ):
            return None
        return nums, self.det

    def contains(self, v: IntegerVector) -> bool:
        nd = self.numerators(v)
        return nd is not None and all(x >= 0 for x in nd[0])

    def sort_key(self) -> tuple[IntegerVector, ...]:
        """The generators: sorted vectors, so cones order lexicographically
        by their generators' entries."""
        return self.generators

    def __repr__(self) -> str:
        return "Cone<" + ", ".join(repr(g) for g in self.generators) + ">"


@dataclass(frozen=True)
class Fan:
    """Finite set of maximal simplicial cones of a common ambient rank.

    There are two constructors.  ``Fan(rank, cones)``, for parsed and
    hand-built fans, absorbs any cone whose generators are a subset of
    another cone's, so only maximal cones are stored; their faces are
    implied.  Only cones below the top dimension are tested: a
    full-dimensional cone is never a proper face of another, and equal cones
    meet in the set.  :meth:`_from_parts` takes cones that already form an
    antichain and their ray index, with no pass over the cones; only
    :func:`star_subdivide` calls it.

    :attr:`ray_index` is derived data, not part of equality or hash.
    """

    rank: int
    cones: frozenset[Cone]

    def __init__(self, rank: int, cones: Iterable[Cone]):
        cs = set(cones)
        for c in cs:
            if c.rank != rank:
                raise DimensionError("cone rank does not match fan rank")
        absorbed = {
            c
            for c in cs
            if len(c.generators) < rank
            and any(
                len(c.generators) < len(d.generators) and set(c.generators) <= set(d.generators)
                for d in cs
            )
        }
        object.__setattr__(self, "rank", int(rank))
        object.__setattr__(self, "cones", frozenset(cs - absorbed))

    @classmethod
    def _from_parts(
        cls,
        rank: int,
        cones: frozenset[Cone],
        index: dict[IntegerVector, set[Cone]],
    ) -> "Fan":
        """A fan of ``cones``, which the caller has checked to be an
        antichain of the given rank, with ``index`` as its
        :attr:`ray_index`; see :func:`star_subdivide`, the only caller."""
        fan = object.__new__(cls)
        object.__setattr__(fan, "rank", rank)
        object.__setattr__(fan, "cones", cones)
        fan.__dict__["ray_index"] = index
        return fan

    @cached_property
    def ray_index(self) -> dict[IntegerVector, set[Cone]]:
        """Each ray of the fan with the set of cones it generates; no ray
        maps to an empty set.  Built once, on first read, or handed over by
        :func:`star_subdivide`; fans derived from this one share the sets of
        the rays their subdivision did not touch, so neither the dict nor
        its sets may be mutated."""
        index: dict[IntegerVector, set[Cone]] = {}
        for c in self.cones:
            for g in c.generators:
                index.setdefault(g, set()).add(c)
        return index

    def sorted_cones(self) -> tuple[Cone, ...]:
        return tuple(sorted(self.cones, key=Cone.sort_key))

    def rays(self) -> tuple[IntegerVector, ...]:
        return tuple(sorted(self.ray_index))

    def __repr__(self) -> str:
        return "Fan{" + ", ".join(repr(c) for c in self.sorted_cones()) + "}"


@lru_cache(maxsize=4096)
def multiplicity(c: Cone) -> int:
    """Index of the generator sublattice inside its saturation.

    For a full-dimensional cone this is ``det`` and equals 1 exactly when
    the affine chart is smooth.  Lower-dimensional cones are measured inside
    the saturated sublattice they span, by the gcd of the maximal minors: 1
    when the minor ``det`` is, else the product of the Smith invariants.
    """
    if c.det == 1 or c.is_full_dimensional():
        return c.det
    return math.prod(smith_elimination(c.generators)[0])


def faces(c: Cone) -> frozenset[Cone]:
    """All faces of a simplicial cone: the sub-cones of generator subsets."""
    out = set()
    for r in range(len(c.generators) + 1):
        for subset in itertools.combinations(c.generators, r):
            out.add(Cone(c.rank, subset))
    return frozenset(out)


def _subdivide_cone(
    c: Cone, u: IntegerVector, nums: Optional[tuple[int, ...]] = None
) -> tuple[Cone, ...]:
    """Star subdivision of a single cone containing the primitive ``u``.

    Every generator of the minimal face containing ``u`` (the positive
    coordinates) is replaced in turn by ``u``; if ``u`` already is a
    generator the cone is returned unchanged.  ``nums`` are the numerators
    ``c.numerators(u)`` of a caller that has already checked that ``c``
    contains ``u``; without them they are computed here, and
    :class:`MeasureError` is raised when ``u`` is not in ``c``: callers only
    pass cones that contain it.

    Each piece is built from the parent's data, with no elimination.  Let
    ``D = det`` and ``n = C . u``, so ``D u = sum_j n_j g_j``.  The piece
    replacing ``g_i`` by ``u`` has independent generators spanning the
    parent's space because ``n_i > 0`` puts ``g_i`` in their span; so it has
    the parent's column basis ``P``, which depends only on that space, and
    its minor on ``P`` is ``n_i / D`` times the parent's, by linearity in
    the replaced row: its ``det`` is ``n_i``.  The constructor's other
    checks hold by construction: ``u`` is primitive (callers check it once
    per ray) and the other generators are the parent's.  So does its order:
    a piece keeps the parent's sorted generators, less slot ``i``, with
    ``u`` inserted at the slot where it sorts among them, found by one
    comparison pass per call.  Its cofactor rows are made on first read
    (see :class:`Cone`): most pieces are final cones, never split again,
    that need none.  The pieces come in the order of the slots they replace.
    """
    if nums is None:
        nd = c.numerators(u)
        if nd is None or any(x < 0 for x in nd[0]):
            raise MeasureError(f"subdivision ray {u} does not lie in {c}")
        nums = nd[0]
    slots = [i for i, x in enumerate(nums) if x > 0]
    if len(slots) == 1 and nums[slots[0]] == c.det:
        return (c,)
    gens = c.generators
    at = sum(g < u for g in gens)  # u is none of them
    pieces = []
    for i in slots:
        new_gens = list(gens)
        del new_gens[i]
        new_gens.insert(at - 1 if i < at else at, u)
        pieces.append(Cone._from_parts(c.rank, tuple(new_gens), nums[i]))
    return tuple(pieces)


def _face_star(
    index: dict[IntegerVector, set[Cone]], cone: Cone, u: IntegerVector
) -> tuple[set[Cone], tuple[int, ...]]:
    """The cones having as a face the minimal face of ``cone`` containing
    ``u``: those having every generator of positive weight, found by
    intersecting their sets in ``index``; and the numerators of ``u`` in
    ``cone``, which :func:`_subdivide_cone` reuses when ``cone`` is one of
    them.  Raises :class:`SupportError` when ``cone`` does not contain ``u``
    or that face is not a cone of the indexed fan."""
    if not cone.contains(u):
        raise SupportError(f"{u} does not lie in {cone}")
    nums, _ = cone.numerators(u)
    stars = [index.get(g, frozenset()) for g, x in zip(cone.generators, nums) if x > 0]
    star = stars[0].intersection(*stars[1:])
    if not star:
        raise SupportError(f"the face of {cone} containing {u} is not a cone of the fan")
    return star, nums


@dataclass
class Subdivision:
    """What one :func:`star_subdivide` call did, filled in when passed as its
    ``record``.

    ``removed`` are the cones of the input fan not in the result and
    ``added`` those of the result not in the input; a piece made by one ray
    and split again by a later ray of the same call is in neither.
    ``pieces`` maps each ``(cone, ray)`` that was split to its pieces, as
    :func:`_subdivide_cone` returns them.
    """

    removed: frozenset[Cone] = frozenset()
    added: frozenset[Cone] = frozenset()
    pieces: dict[tuple[Cone, IntegerVector], tuple[Cone, ...]] = field(
        default_factory=dict
    )


def star_subdivide(
    f: Fan,
    rays: Sequence[IntegerVector],
    cones: Sequence[Cone],
    record: Optional[Subdivision] = None,
) -> Fan:
    """Star subdivision of ``f`` at the primitive lattice points ``rays``,
    applied in order, each with the cone of ``cones`` at its position.

    ``cones[k]`` must contain ``rays[k]``; in a blow-up it is the center
    cone the ray was computed in, and it need not be a cone of the fan.  Its
    generators of positive weight span its minimal face ``F`` containing the
    ray, which lies in the relative interior of ``F``, and the cones replaced
    by their star subdivisions are those having every generator of ``F``
    (see :func:`_face_star`).  This is sound for a fan: a simplicial cone
    having every generator of ``F`` has ``F`` as a face, so then ``F`` is a
    cone of the fan with the ray in its relative interior; each point of a
    fan lies in the relative interior of exactly one of its cones, so the
    cones containing the ray are exactly those having ``F`` as a face.
    Raises :class:`SupportError` when a cone does not contain its ray or its
    ``F`` is not a cone of the fan as subdivided by the rays before it.
    When ``record`` is given it is filled in with what the call did (see
    :class:`Subdivision`); only then are the pieces kept until the call
    ends.

    Locality.  The ray index of ``f`` (see :attr:`Fan.ray_index`) is kept
    up to date as the rays are applied: the dict is copied, and the set of a
    ray is copied the first time the call changes it, so ``f`` and every fan
    sharing its sets are left as they were.  The result is built from the
    cone set and the updated index by :meth:`Fan._from_parts`, the second
    constructor, with no pass over the cones.  A star subdivision of a fan
    absorbs no cone, and only cones having one of the rays can absorb or be
    absorbed (see the module docstring), so the cones of each ray's set are
    compared and :class:`DegenerateInputError` is raised if one of them has
    the generators of another of lower dimension.
    """
    current = set(f.cones)
    index = dict(f.ray_index)
    owned: dict[IntegerVector, set[Cone]] = {}  # the sets this call has copied
    split: Optional[dict[tuple[Cone, IntegerVector], tuple[Cone, ...]]] = (
        None if record is None else {}
    )
    for u, cone in zip(rays, cones, strict=True):
        if not is_primitive(u):
            raise DegenerateInputError(f"subdivision ray {u} must be primitive")
        star, nums = _face_star(index, cone, u)
        for c in star:
            pieces = _subdivide_cone(c, u, nums if c == cone else None)
            if pieces[0] is c:
                continue
            if split is not None:
                split[(c, u)] = pieces
            current.remove(c)
            for g in c.generators:
                cs = owned.get(g)
                if cs is None:
                    cs = owned[g] = index[g] = set(index[g])
                cs.discard(c)  # never the last: every generator of c is in a piece
            for piece in pieces:
                current.add(piece)
                for g in piece.generators:
                    cs = owned.get(g)
                    if cs is None:
                        cs = owned[g] = index[g] = set(index.get(g, ()))
                    cs.add(piece)
    for u in set(rays):
        star = index[u]
        if len({len(c.generators) for c in star}) > 1 and any(
            len(c.generators) < len(d.generators)
            and set(c.generators) <= set(d.generators)
            for c in star
            for d in star
        ):
            raise DegenerateInputError(
                "star subdivision absorbed a cone: the input is not a fan"
            )
    fan = Fan._from_parts(f.rank, frozenset(current), index)
    if split is not None:
        # no piece is an input cone, so the split cones no ray made are input cones
        gone = {c for c, _ in split}
        made = {piece for pieces in split.values() for piece in pieces}
        record.removed, record.added = frozenset(gone - made), frozenset(made - gone)
        record.pieces = split
    return fan


def _fm_feasible(num_vars: int, constraints: list[tuple[tuple[int, ...], int]]) -> bool:
    """Feasibility of ``coeffs . w >= rhs`` systems by Fourier-Motzkin.

    Integer throughout: eliminating ``w_k`` adds positive integer multiples
    of two inequalities, and each result is divided by the gcd of its
    coefficients and right-hand side, which keeps the system small without
    changing its solutions.  Three exact rules keep it smaller still:

    - each round eliminates the variable with the fewest pairs of a row
      positive and a row negative on it; the order decides nothing;
    - each row carries the set of input rows it is a positive combination
      of, and after ``k`` eliminations a new row combining more than
      ``k + 1`` of them is dropped (Chernikov 1965; Imbert 1990).  The rows
      after ``k`` eliminations are ``y . (A, b)`` over the cone of
      multipliers ``y >= 0`` vanishing on the eliminated columns; each
      extreme ray of that cone has at most ``k + 1`` nonzero entries and is
      a combination of two extreme rays of the cone one round before, or is
      one, so every extreme row is kept with exactly its support as its
      set, and by Farkas' lemma the system is infeasible exactly when some
      extreme row reads ``0 >= rhs`` with ``rhs > 0``.  Rows are kept apart
      by their sets, so no row stands in for another with a different set;
    - a row with all coefficients zero decides at once: ``0 >= rhs`` fails
      when ``rhs > 0`` and otherwise holds, and the row is dropped.
    """
    system = set()
    for i, (coeffs, rhs) in enumerate(dict.fromkeys(constraints)):
        if any(coeffs):
            system.add((coeffs, rhs, 1 << i))
        elif rhs > 0:
            return False
    left = list(range(num_vars))
    while system:
        best = None
        for k in left:
            pos = [row for row in system if row[0][k] > 0]
            neg = [row for row in system if row[0][k] < 0]
            pairs = len(pos) * len(neg)
            if best is None or pairs < best[0]:
                best = pairs, k, pos, neg
                if not pairs:
                    break
        _, k, pos, neg = best
        left.remove(k)
        limit = num_vars - len(left) + 1
        rest = {row for row in system if not row[0][k]}
        for cp, rp, hp in pos:
            a = cp[k]
            for cn, rn, hn in neg:
                h = hp | hn
                if h.bit_count() > limit:
                    continue
                # cp[k] * cn - cn[k] * cp eliminates w_k with a positive combination
                b = -cn[k]
                coeffs = tuple([b * x + a * y for x, y in zip(cp, cn)])
                rhs = b * rp + a * rn
                g = math.gcd(*coeffs, rhs)
                if g > 1:
                    coeffs = tuple([x // g for x in coeffs])
                    rhs //= g
                if any(coeffs):
                    rest.add((coeffs, rhs, h))
                elif rhs > 0:
                    return False
        system = rest
    return True


def _meet_in_common_face(sigma: Cone, tau: Cone) -> bool:
    """Whether two cones intersect exactly in the face they share.

    They do precisely when a separating functional ``w`` exists: zero on the
    common rays, ``>= 1`` on the rays only ``sigma`` has and ``<= -1`` on
    those only ``tau`` has.  Each common ray ``g`` is the equality
    ``g . w = 0``, removed exactly by substitution before any inequality is
    combined (Ziegler, *Lectures on Polytopes*, section 1.2): with ``k`` the
    coordinate of ``g`` of least nonzero absolute value, every other row
    ``c`` becomes ``|g_k| c - sign(g_k) c_k g``, which is zero at ``k`` and
    equals ``|g_k| c`` wherever ``g . w = 0``, and coordinate ``k`` is
    dropped, since ``w_k`` is then fixed by the others; the right-hand sides
    are scaled by ``|g_k|``.  The common rays are independent, so each
    equality is still nonzero when its turn comes.  What is left,
    inequalities in ``n`` less the number of common rays variables, goes to
    the integer Fourier-Motzkin elimination :func:`_fm_feasible`, which
    decides the same as for the equalities passed as the two inequalities
    ``+-g . w >= 0`` but, unlike that, combines no pair of them.
    :func:`validate_fan` calls this only for the pairs that no facet
    certificate settles.
    """
    common = set(sigma.generators) & set(tau.generators)
    s_only = [g for g in sigma.generators if g not in common]
    t_only = [g for g in tau.generators if g not in common]
    if not s_only and not t_only:
        return True
    equalities = [g for g in sigma.generators if g in common]
    rows = [(g, 1) for g in s_only] + [(tuple([-x for x in g]), 1) for g in t_only]
    while equalities:
        g = equalities.pop()
        k = min((i for i, x in enumerate(g) if x), key=lambda i: abs(g[i]))
        a, sign = abs(g[k]), 1 if g[k] > 0 else -1
        rest = [i for i in range(len(g)) if i != k]

        def substitute(c: Sequence[int]) -> tuple[int, ...]:
            b = sign * c[k]
            return tuple([a * c[i] - b * g[i] for i in rest])

        equalities = [substitute(e) for e in equalities]
        rows = [(substitute(c), a * r) for c, r in rows]
    return _fm_feasible(sigma.rank - len(common), rows)


# translate tables from a lane's top byte to the binary digit "1" when the
# lane's top bit is clear (bytes 0-127), and when it is set (bytes 128-255)
_CLEAR_TOP = b"1" * 128 + b"0" * 128
_SET_TOP = b"0" * 128 + b"1" * 128


def _sign_masks(
    rank: int, rows: Sequence[tuple[int, ...]], rays: Sequence[IntegerVector]
) -> dict[tuple[int, ...], int]:
    """Each row ``a`` and its negative ``-a``, each with the bit mask of the
    rays it is strictly negative on: bit ``i`` for ``a . rays[i] < 0``.

    Broadword arithmetic on Python ints: ray ``i`` owns the lane of ``W``
    bits at bit ``W * i``, and coordinate ``j`` of every ray is packed into
    one int ``cols[j]``.  ``s = sum_j a_j cols[j] + B * ones``, with ``B =
    2^(W-1)`` and ``ones`` a 1 in every lane, holds ``a . r_i + B`` in lane
    ``i``.  ``W`` is the least multiple of 8 above the bit length of the
    bound ``rank * max|a_j| * max|r_ij|`` on every ``|a . r_i|`` and of
    ``max|r_ij|``, so every ray entry and every lane value lies in
    ``(-B, B)`` before the bias and in ``(0, 2B)`` after it: the lanes pack
    and add without a carry or borrow between them.  The top bit of a lane
    is then set exactly when ``a . r_i >= 0``, and that of ``s - ones``
    exactly when ``a . r_i >= 1``, that is when ``-a . r_i < 0``.  The top
    byte of every lane is one slice of the big-endian bytes of ``s``, turned
    into the binary digits of the mask, ray ``R - 1`` first, by one
    ``translate``.
    """
    out: dict[tuple[int, ...], int] = {}
    top = max((abs(x) for r in rays for x in r), default=0)
    bound = rank * max((abs(x) for row in rows for x in row), default=0) * top
    width = max(bound, top).bit_length() // 8 + 1
    size = width * len(rays)
    half = 1 << (8 * width - 1)
    ones = int.from_bytes((b"\0" * (width - 1) + b"\1") * len(rays), "big")
    bias = half * ones
    # cols[j] = sum_i r_ij 2^(W i), packed as the lanes r_ij + B less B * ones
    cols = [
        int.from_bytes(b"".join([(x + half).to_bytes(width, "big") for x in col]), "big")
        - bias
        for col in zip(*reversed(rays))
    ]
    for row in rows:
        if row in out:
            continue
        s = sum(map(operator.mul, row, cols), bias)
        out[row] = int(s.to_bytes(size, "big")[::width].translate(_CLEAR_TOP), 2)
        out[tuple(-x for x in row)] = int(
            (s - ones).to_bytes(size, "big")[::width].translate(_SET_TOP), 2
        )
    return out


def validate_fan(f: Fan) -> bool:
    """True iff every pairwise intersection of cones is a common face.

    The facet certificate (see the module docstring) runs as bit tests.
    Each of the ``R`` rays of the fan has one bit and each cone the mask
    ``M`` of its rays.  Each cofactor row ``C_j``, scaled to a primitive
    row, gets the mask ``N_j`` of the rays with ``C_j . r < 0`` and its
    negative, the row the cone across the facet has, that of the rays with
    ``C_j . r > 0``: :func:`_sign_masks` computes both for every ray at once
    with ``n`` big-integer multiply-adds, ``n`` the ambient rank, once per
    distinct row of the fan.  A pair ``(sigma, tau)`` is settled by a row of
    ``sigma`` when ``tau`` lacks its generator ``g_j`` and ``N_j`` covers
    ``M_tau & ~M_sigma``, the rays only ``tau`` has: ``M_tau`` is disjoint
    from the block ``~(N_j | M_sigma) | bit(g_j)``.  The same test is tried
    from ``tau``'s side, so a pair costs a few bit operations per row.  Only
    pairs that neither side settles go to :func:`_meet_in_common_face`,
    which decides them exactly.  A fan of fewer than two cones has no pair
    and is valid before any row is made.
    """
    if len(f.cones) < 2:
        return True
    cones = f.sorted_cones()
    rays = f.rays()
    bit = {r: 1 << i for i, r in enumerate(rays)}
    full = (1 << len(rays)) - 1
    keys = []
    for c in cones:
        if c.det == 1:
            # the columns of a unimodular adjugate are primitive already
            keys.append(c.cofactors)
            continue
        own = []
        for row in c.cofactors:
            d = math.gcd(*row)
            own.append(tuple(x // d for x in row))
        keys.append(own)
    negative = _sign_masks(f.rank, [key for own in keys for key in own], rays)
    masks, blocks = [], []
    for c, own in zip(cones, keys):
        m = sum(bit[g] for g in c.generators)
        masks.append(m)
        blocks.append([full & ~(negative[key] | m) | bit[g] for g, key in zip(c.generators, own)])
    for i, (ms, own) in enumerate(zip(masks, blocks)):
        pending = range(i + 1, len(cones))
        for z in own:
            pending = [j for j in pending if masks[j] & z]
        for j in pending:
            if all(ms & z for z in blocks[j]) and not _meet_in_common_face(cones[i], cones[j]):
                return False
    return True
