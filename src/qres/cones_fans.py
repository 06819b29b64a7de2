"""Simplicial rational cones and fans.

Cones are stored by their primitive, linearly independent generators in a
canonical (lexicographic) order, so equal cones compare equal and fans can
be compared as sets.  Star subdivision and the shared-face fan check are
exact; no floating point is used anywhere.

Kernel.  Every cone computes once in its constructor, by
:func:`~qres.exact_lattice.adjugate` of its ``k x n`` generator matrix
``G`` (a closed form when the cone is full-dimensional of rank 2-4, one
fraction-free elimination otherwise), its first column basis ``P``,
``det = |det G_P|`` and ``k`` cofactor rows ``C_j``: ``sign(det G_P)``
times the columns of ``adj(G_P)``, zero off ``P``, so ``C_j . g_l`` is
``det`` if ``j = l`` and 0 otherwise.  By Cramer's rule on ``P`` a vector
``v`` of the span has coordinates ``C_j . v / det``, and ``v`` is in the
span exactly when ``sum_j (C_j . v) g_j = det v``, which only a
lower-dimensional cone can miss.  Containment is sign tests of integer dot
products and star subdivision reads the numerators ``C_j . v``.  For a
full-dimensional cone ``P`` is every coordinate and ``det`` the
multiplicity.  The constructor checks each generator by one gcd of its
entries: 0 is the zero vector, above 1 a vector that is not primitive.

Star subdivision.  Every :class:`Fan` owns a dict from each of its rays to
the cones it generates (:attr:`Fan.ray_index`), built once from its cones
when first read.  :func:`star_subdivide` applies a batch of rays starting
from the input fan's index, copying only the sets of the rays it touches,
builds one :class:`Fan` at the end and hands it the updated index, so a
step costs the star of its rays, not a pass over every cone.  Each point of
a fan lies in the relative interior of exactly one of its cones, so the
cones containing a ray are exactly those having that cone as a face: given a
hint cone that is checked to contain the ray, the generators of positive
weight name that face, and intersecting their index sets finds its star
without testing any other cone.  Without a usable hint every cone is
scanned.  The pieces of a cone take their ``det`` and cofactor rows from the
parent's by one exact rank-one update each (see :func:`_subdivide_cone`), so
a subdivision runs no elimination; cones hash once, in their constructor.
On request a :class:`Subdivision` records the cones removed and added and
the pieces of every cone split, so a caller can update what it derives from
the fan instead of recomputing it.

Fan check.  :func:`validate_fan` asks of every pair of cones whether they
meet in the face they share.  A cofactor row ``C_j`` of a cone at a
generator the other cone lacks vanishes on the shared rays and is
nonnegative on its own cone; when it is strictly negative on every ray only
the other cone has, no point of the other cone outside the shared face lies
in this one, so the pair is settled by one row (a facet certificate).  The
integer work is done per cone, not per pair: each row is dotted once with
every ray of the fan, ``k * R`` dot products for a cone of dimension ``k``
in a fan of ``R`` rays (fewer where the cones on the two sides of a facet
share the row up to sign), and kept as the bit mask of the rays where it is
negative; a pair then costs a few ``&`` of ray masks per row.  Only pairs
that no single row of either cone settles go to the exact integer
Fourier-Motzkin elimination, which decides whether a separating functional
exists.
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
    IntegerMatrix,
    IntegerVector,
    adjugate,
    is_primitive,
    smith_normal_form,
)


@dataclass(frozen=True)
class Cone:
    """Simplicial cone spanned by primitive, independent lattice vectors.

    ``det`` is ``|det G_P|`` on the first column basis ``P`` of the
    generator matrix and ``cofactors[j] . v / det`` is the ``j``-th
    coordinate of any ``v`` in the span of the generators (see the module
    docstring).  Below full dimension ``det`` is one maximal minor, a
    multiple of the multiplicity.  The zero cone of a given ambient rank has
    an empty generator tuple, ``det`` 1 and no cofactor rows.
    """

    rank: int
    generators: tuple[IntegerVector, ...]
    det: int = field(init=False, repr=False, compare=False)
    cofactors: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)

    def __init__(self, rank: int, generators: Iterable[Iterable[int] | IntegerVector]):
        gens = tuple(
            g if isinstance(g, IntegerVector) else IntegerVector(g) for g in generators
        )
        for g in gens:
            if g.rank != rank:
                raise DimensionError(f"generator {g} does not live in rank {rank}")
            # the gcd of the entries is 0 only for the zero vector, 1 when primitive
            d = math.gcd(*g.entries)
            if d != 1:
                if d == 0:
                    raise DegenerateInputError("the zero vector cannot generate a ray")
                raise DegenerateInputError(f"ray generator {g} is not primitive")
        gens = tuple(sorted(set(gens), key=lambda g: g.entries))
        pivots, det, adj = adjugate([g.entries for g in gens])
        if adj is None:
            raise DegenerateInputError("generators are linearly dependent")
        # column j of adj(G_P), times sign(det), spread onto P is the row C_j
        cols = zip(*adj) if det > 0 else (tuple(-x for x in col) for col in zip(*adj))
        if len(pivots) == rank:
            cofactors = tuple(cols)
        else:
            spread = []
            for col in cols:
                row = [0] * rank
                for i, x in zip(pivots, col):
                    row[i] = x
                spread.append(tuple(row))
            cofactors = tuple(spread)
        self._set(int(rank), gens, abs(det), cofactors)

    def _set(
        self,
        rank: int,
        gens: tuple[IntegerVector, ...],
        det: int,
        cofactors: tuple[tuple[int, ...], ...],
    ) -> None:
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "generators", gens)
        object.__setattr__(self, "det", det)
        object.__setattr__(self, "cofactors", cofactors)
        object.__setattr__(self, "_hash", hash((rank, gens)))

    @classmethod
    def _from_parts(
        cls,
        rank: int,
        gens: tuple[IntegerVector, ...],
        det: int,
        cofactors: tuple[tuple[int, ...], ...],
    ) -> "Cone":
        """A cone whose sorted generators, ``det`` and cofactor rows the
        caller has already established; see :func:`_subdivide_cone`, the
        only caller."""
        cone = object.__new__(cls)
        cone._set(rank, gens, det, cofactors)
        return cone

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
        e = v.entries
        nums = tuple(sum(a * b for a, b in zip(row, e)) for row in self.cofactors)
        if self.dim < self.rank and any(
            sum(x * g.entries[i] for x, g in zip(nums, self.generators)) != self.det * ei
            for i, ei in enumerate(e)
        ):
            return None
        return nums, self.det

    def contains(self, v: IntegerVector) -> bool:
        nd = self.numerators(v)
        return nd is not None and all(x >= 0 for x in nd[0])

    def sort_key(self) -> tuple:
        return tuple(g.entries for g in self.generators)

    def __repr__(self) -> str:
        return "Cone<" + ", ".join(repr(g) for g in self.generators) + ">"


@dataclass(frozen=True)
class Fan:
    """Finite set of maximal simplicial cones of a common ambient rank.

    Construction absorbs any cone whose generators are a subset of another
    cone's, so only maximal cones are stored; their faces are implied.  Only
    cones below the top dimension are tested: a full-dimensional cone is
    never a proper face of another, and equal cones meet in the set.

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
            if c.dim < rank
            and any(
                c.dim < d.dim and set(c.generators) <= set(d.generators) for d in cs
            )
        }
        object.__setattr__(self, "rank", int(rank))
        object.__setattr__(self, "cones", frozenset(cs - absorbed))

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
        seen = sorted({g for c in self.cones for g in c.generators}, key=lambda g: g.entries)
        return tuple(seen)

    def __repr__(self) -> str:
        return "Fan{" + ", ".join(repr(c) for c in self.sorted_cones()) + "}"


@lru_cache(maxsize=None)
def multiplicity(c: Cone) -> int:
    """Index of the generator sublattice inside its saturation.

    For a full-dimensional cone this is ``det`` and equals 1 exactly when
    the affine chart is smooth.  Lower-dimensional cones are measured inside
    the saturated sublattice they span, by the gcd of the maximal minors: 1
    when the minor ``det`` is, else the product of the Smith invariants.
    """
    if c.det == 1 or c.is_full_dimensional():
        return c.det
    return math.prod(smith_normal_form(IntegerMatrix(c.generators)).diagonal)


def faces(c: Cone) -> frozenset[Cone]:
    """All faces of a simplicial cone: the sub-cones of generator subsets."""
    out = set()
    for r in range(len(c.generators) + 1):
        for subset in itertools.combinations(c.generators, r):
            out.add(Cone(c.rank, subset))
    return frozenset(out)


def _subdivide_cone(c: Cone, u: IntegerVector) -> tuple[Cone, ...]:
    """Star subdivision of a single cone containing the primitive ``u``.

    Every generator of the minimal face containing ``u`` (the positive
    coordinates) is replaced in turn by ``u``; if ``u`` already is a
    generator the cone is returned unchanged.  Raises :class:`MeasureError`
    when ``u`` is not in ``c``: callers only pass cones that contain it.

    Each piece is built from the parent's kernel, with no elimination.  Let
    ``D = det`` and ``n = C . u``, so ``C_j . g_k = D`` when ``j = k`` and 0
    otherwise.  The piece replacing ``g_i`` by ``u`` spans the parent's
    space (``n_i > 0``), hence has its column basis ``P``, which depends
    only on that space; its ``det`` is ``n_i``, its row for ``u`` is ``C_i``
    and its row for ``j != i`` is ``(n_i C_j - n_j C_i) / D``.  Each is zero
    off ``P`` and satisfies the defining equations of the piece's row, which
    determine it, so the division is exact and equals what the constructor
    computes.  The constructor's checks hold by construction: ``u`` is
    primitive (callers check it once per ray), the other generators are the
    parent's, and ``n_i > 0`` makes them independent.
    """
    nd = c.numerators(u)
    if nd is None or any(x < 0 for x in nd[0]):
        raise MeasureError(f"subdivision ray {u} does not lie in {c}")
    nums, den = nd
    slots = [i for i, x in enumerate(nums) if x > 0]
    if len(slots) == 1 and nums[slots[0]] == den:
        return (c,)
    rows = c.cofactors
    pieces = []
    for i in slots:
        ni, ci = nums[i], rows[i]
        gens = list(c.generators)
        gens[i] = u
        new_rows = [
            ci if j == i else tuple((ni * a - nj * b) // den for a, b in zip(rows[j], ci))
            for j, nj in enumerate(nums)
        ]
        perm = sorted(range(c.dim), key=lambda j: gens[j].entries)
        pieces.append(
            Cone._from_parts(
                c.rank,
                tuple(gens[j] for j in perm),
                ni,
                tuple(new_rows[j] for j in perm),
            )
        )
    return tuple(pieces)


def _face_star(
    index: dict[IntegerVector, set[Cone]], hint: Cone, u: IntegerVector
) -> set[Cone]:
    """The cones having as a face the minimal face of ``hint`` containing
    ``u``, which ``hint`` must contain; empty when that face is not a cone
    of the indexed fan."""
    nums, _ = hint.numerators(u)
    stars = [index.get(g) for g, x in zip(hint.generators, nums) if x > 0]
    if not all(stars):
        return set()
    stars.sort(key=len)
    return stars[0].intersection(*stars[1:])


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
    *rays: IntegerVector,
    hints: Sequence[Optional[Cone]] = (),
    record: Optional[Subdivision] = None,
) -> Fan:
    """Star subdivision of ``f`` at the primitive lattice points ``rays``,
    applied in order.

    Cones not containing a ray are untouched; every cone containing it
    (necessarily in the relative interior of one of its faces) is replaced
    by its star subdivision.  Raises :class:`SupportError` when a ray lies
    outside the support of the fan as subdivided by the rays before it.
    When ``record`` is given it is filled in with what the call did (see
    :class:`Subdivision`).

    Locality.  The ray index of ``f`` (see :attr:`Fan.ray_index`) is kept
    up to date as the rays are applied: the dict is copied, and the set of a
    ray is copied the first time the call changes it, so ``f`` and every fan
    sharing its sets are left as they were.  One :class:`Fan` is built at
    the end and takes the updated index, unless its constructor absorbed a
    cone, which only a collection that is not a fan can give.

    ``hints[k]``, when given, is a cone believed to contain ``rays[k]``; it
    need not be a cone of the fan.  If it does contain the ray, the
    generators of positive weight span the minimal face ``F`` of the hint
    containing it, the ray lies in the relative interior of ``F``, and the
    cones subdivided are those having every generator of ``F``, found by
    intersecting their index sets.  This is sound for a fan: a simplicial
    cone having every generator of ``F`` has ``F`` as a face, so then ``F``
    is a cone of the fan with the ray in its relative interior; each point
    of a fan lies in the relative interior of exactly one of its cones, so
    the cones containing the ray are exactly those having ``F`` as a face.
    When the intersection is empty (``F`` was split by an earlier ray) or
    the hint does not contain the ray, every cone is scanned and each one
    containing the ray is subdivided.  A wrong, missing or hostile hint
    therefore costs only the scan, and without hints the result is the
    one-ray-at-a-time subdivision of any cone collection, fan or not.
    """
    cones = set(f.cones)
    index = dict(f.ray_index)
    owned: dict[IntegerVector, set[Cone]] = {}  # the sets this call has copied
    gone: set[Cone] = set()
    made: set[Cone] = set()
    split: dict[tuple[Cone, IntegerVector], tuple[Cone, ...]] = {}
    for k, u in enumerate(rays):
        if not is_primitive(u):
            raise DegenerateInputError(f"subdivision ray {u} must be primitive")
        hint = hints[k] if k < len(hints) else None
        star: Iterable[Cone] = ()
        if hint is not None and hint.rank == u.rank and hint.contains(u):
            star = _face_star(index, hint, u)
        if not star:
            star = [c for c in cones if c.contains(u)]
            if not star:
                raise SupportError(f"{u} lies outside the support of the fan")
        for c in star:
            pieces = _subdivide_cone(c, u)
            if pieces[0] is c:
                continue
            split[(c, u)] = pieces
            cones.remove(c)
            gone.add(c)
            for g in c.generators:
                cs = owned.get(g)
                if cs is None:
                    cs = owned[g] = index[g] = set(index[g])
                cs.discard(c)
            for piece in pieces:
                cones.add(piece)
                made.add(piece)
                for g in piece.generators:
                    cs = owned.get(g)
                    if cs is None:
                        cs = owned[g] = index[g] = set(index.get(g, ()))
                    cs.add(piece)
    for g, cs in owned.items():
        if not cs:
            del index[g]
    fan = Fan(f.rank, cones)
    before, after = f.cones, fan.cones
    absorbed = len(after) != len(cones)
    if not absorbed:
        # the constructor kept every cone, so the index is exactly the fan's
        fan.__dict__["ray_index"] = index
    if record is not None:
        if absorbed:
            record.removed, record.added = before - after, after - before
        else:
            record.removed = frozenset(c for c in gone if c in before and c not in after)
            record.added = frozenset(c for c in made if c in after and c not in before)
        record.pieces = split
    return fan


def _fm_feasible(num_vars: int, constraints: list[tuple[tuple[int, ...], int]]) -> bool:
    """Feasibility of ``coeffs . w >= rhs`` systems by Fourier-Motzkin.

    Integer throughout: eliminating ``w_k`` adds positive integer multiples
    of two inequalities, and each result is divided by the gcd of its
    coefficients and right-hand side, which keeps the system small without
    changing its solutions.
    """
    system = set(constraints)
    for k in range(num_vars):
        pos, neg, rest = [], [], set()
        for coeffs, rhs in system:
            if coeffs[k] > 0:
                pos.append((coeffs, rhs))
            elif coeffs[k] < 0:
                neg.append((coeffs, rhs))
            else:
                rest.add((coeffs, rhs))
        for (cp, rp) in pos:
            for (cn, rn) in neg:
                # cp[k] * cn - cn[k] * cp eliminates w_k with a positive combination
                a, b = cp[k], -cn[k]
                coeffs = tuple(b * x + a * y for x, y in zip(cp, cn))
                rhs = b * rp + a * rn
                g = math.gcd(*coeffs, rhs) or 1
                rest.add((tuple(x // g for x in coeffs), rhs // g))
        system = rest
    return all(rhs <= 0 for _, rhs in system)


def _meet_in_common_face(sigma: Cone, tau: Cone) -> bool:
    """Whether two cones intersect exactly in the face they share.

    A separating functional vanishing on the common rays, strictly positive
    on the remaining rays of one cone and strictly negative on those of the
    other, exists precisely when the intersection is a common face; its
    existence is decided exactly by integer Fourier-Motzkin elimination.
    :func:`validate_fan` calls this only for the pairs that no facet
    certificate settles.
    """
    common = set(sigma.generators) & set(tau.generators)
    s_only = [g for g in sigma.generators if g not in common]
    t_only = [g for g in tau.generators if g not in common]
    if not s_only and not t_only:
        return True
    n = sigma.rank
    constraints: list[tuple[tuple[int, ...], int]] = []
    for g in common:
        constraints.append((g.entries, 0))
        constraints.append((tuple(-e for e in g.entries), 0))
    for g in s_only:
        constraints.append((g.entries, 1))
    for g in t_only:
        constraints.append((tuple(-e for e in g.entries), 1))
    return _fm_feasible(n, constraints)


def validate_fan(f: Fan) -> bool:
    """True iff every pairwise intersection of cones is a common face.

    The facet certificate (see the module docstring) runs as bit tests.
    Each of the ``R`` rays of the fan has one bit and each cone the mask
    ``M`` of its rays.  Each cofactor row ``C_j``, scaled to a primitive
    row, is dotted once with every ray, giving the mask ``N_j`` of the rays
    with ``C_j . r < 0`` (and that of its negative, the row the cone across
    the facet has): at most ``k * R`` integer dot products per cone of
    dimension ``k``.  A pair ``(sigma, tau)`` is settled by a row of
    ``sigma`` when ``tau`` lacks its generator ``g_j`` and ``N_j`` covers
    ``M_tau & ~M_sigma``, the rays only ``tau`` has: ``M_tau`` is disjoint
    from the block ``~(N_j | M_sigma) | bit(g_j)``.  The same test is tried
    from ``tau``'s side, so a pair costs a few bit operations per row.  Only
    pairs that neither side settles go to :func:`_meet_in_common_face`,
    which decides them exactly.
    """
    cones = f.sorted_cones()
    rays = f.rays()
    bit = {r: 1 << i for i, r in enumerate(rays)}
    full = (1 << len(rays)) - 1
    high_to_low = [r.entries for r in reversed(rays)]
    negative: dict[tuple[int, ...], int] = {}
    masks, blocks = [], []
    for c in cones:
        m = sum(bit[g] for g in c.generators)
        own = []
        for g, row in zip(c.generators, c.cofactors):
            d = math.gcd(*row)
            key = tuple(x // d for x in row)
            if key not in negative:
                dots = [sum(map(operator.mul, key, e)) for e in high_to_low]
                negative[key] = int("".join(["01"[x < 0] for x in dots]), 2)
                negative[tuple(-x for x in key)] = int("".join(["01"[x > 0] for x in dots]), 2)
            own.append(full & ~(negative[key] | m) | bit[g])
        masks.append(m)
        blocks.append(own)
    for i, (ms, own) in enumerate(zip(masks, blocks)):
        pending = range(i + 1, len(cones))
        for z in own:
            pending = [j for j in pending if masks[j] & z]
        for j in pending:
            if all(ms & z for z in blocks[j]) and not _meet_in_common_face(cones[i], cones[j]):
                return False
    return True
