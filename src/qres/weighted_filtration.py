"""Weighted monomial filtrations, invariant algebras and the gluing test.

The filtration is the one of the monomial valuation ``v`` with weights
``a``: ``v(f)`` is the least weighted degree ``sum a_j e_j`` over the terms
of ``f``, and ``I_k = {f : v(f) >= k}`` is spanned by the monomials of
weighted degree at least ``k``.  Automorphism invariance of the filtration
is tested on truncated polynomial substitutions over a prime field chosen
so that roots of unity of the right order exist; power series statements
are checked up to a finite total degree bound.

Every enumeration of the truncated simplex (exponent tuples of total
degree at most a bound) goes through one walk, :func:`_weighted_simplex`,
which carries each tuple's weighted degree down from its prefix.  The
sampler's correction-term pools for all coordinates come from a single
such walk, in its fixed order, since the draws index into the pools.
Every cache here is an ``lru_cache`` of finite size: the minimal generators
of ``I_k`` by weights and degree, the sampler's pools by weights, order and
truncation, and :func:`substitute` by substitution and monomial.

With the pools built, a sample of ``glue-check`` costs its draws, each a
``getrandbits`` call in C (see :func:`_draw_below`), the sort of each
image's two or three terms, which the sampler hands to the constructor as
they are stored, and one pass of :func:`glue_check` over the image terms
that reads each term's weighted degree with ``map(operator.mul, ...)`` and
stops at the first term too light; no polynomial is multiplied.  What is
left is the interpreter's work on the sampler's loop and, a little less, on
that pass, and per command the one walk that builds the pools.  The number
and order of the draws fix which substitutions a seed yields.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from random import Random
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .cones_fans import Cone
from .errors import DimensionError, GluePreconditionError, QresError
from .quotient_classifier import _is_prime

DEFAULT_DEGREE_BOUND = 12

# correction terms drawn per coordinate by the sampler, at most
_MAX_EXTRA_TERMS = 2


@dataclass(frozen=True)
class Monomial:
    """Monomial recorded by its exponent vector."""

    exponents: tuple[int, ...]

    def __init__(self, exponents: Iterable[int]):
        exps = tuple(int(e) for e in exponents)
        if any(e < 0 for e in exps):
            raise QresError(f"negative exponent in {exps}")
        object.__setattr__(self, "exponents", exps)

    @property
    def total_degree(self) -> int:
        return sum(self.exponents)

    def divides(self, other: "Monomial") -> bool:
        return all(a <= b for a, b in zip(self.exponents, other.exponents))

    def __mul__(self, other: "Monomial") -> "Monomial":
        return Monomial(a + b for a, b in zip(self.exponents, other.exponents))

    def __str__(self) -> str:
        names = "xyzw" if len(self.exponents) <= 4 else None
        parts = []
        for i, e in enumerate(self.exponents):
            if e == 0:
                continue
            name = names[i] if names else f"x{i + 1}"
            parts.append(name if e == 1 else f"{name}^{e}")
        return "*".join(parts) if parts else "1"


def minimalize(monomials: Iterable[Monomial]) -> frozenset[Monomial]:
    """Divisibility-minimal subset of a set of monomials."""
    items = sorted(set(monomials), key=lambda m: (m.total_degree, m.exponents))
    kept: list[Monomial] = []
    for m in items:
        if not any(g.divides(m) for g in kept):
            kept.append(m)
    return frozenset(kept)


@dataclass(frozen=True)
class WeightedFiltration:
    """Weights ``(a_1, ..., a_n)`` mod ``order`` grading monomial ideals.

    ``I_k`` is generated by the monomials of weighted degree at least ``k``;
    the divisor coordinate is by convention the last one.
    """

    order: int
    weights: tuple[int, ...]

    def __init__(self, order: int, weights: Iterable[int]):
        order = int(order)
        if order < 1:
            raise QresError("order must be positive")
        ws = tuple(int(w) % order for w in weights)
        if not ws:
            raise DimensionError("need at least one coordinate")
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "weights", ws)

    @property
    def rank(self) -> int:
        return len(self.weights)


def ideal_generators(w: WeightedFiltration, k: int) -> frozenset[Monomial]:
    """Unique minimal monomial generating set of ``I_k``."""
    if k < 0:
        raise QresError("filtration degree must be nonnegative")
    return _ideal_generators_cached(w.weights, k)


@lru_cache(maxsize=256)
def _ideal_generators_cached(weights: tuple[int, ...], k: int) -> frozenset[Monomial]:
    n = len(weights)
    if k == 0:
        return frozenset([Monomial((0,) * n)])
    # a minimal generator never involves a weight-0 coordinate and its
    # exponent at coordinate i is at most ceil(k / a_i)
    caps = [(-(-k // a) if a > 0 else 0) for a in weights]
    found = []
    for exps in itertools.product(*[range(c + 1) for c in caps]):
        if sum(w * e for w, e in zip(weights, exps)) >= k:
            found.append(Monomial(exps))
    return minimalize(found)


def invariant_generators(
    order: int, chars: Sequence[int], degree_bound: int
) -> frozenset[Monomial]:
    """Truncated generator set of the invariant monomial algebra of
    ``1/order(chars)``.

    Divisibility-minimal nonconstant monomials of total degree at most
    ``degree_bound`` whose weighted degree vanishes mod the group order.
    """
    if degree_bound < 1:
        raise QresError("degree bound must be at least 1")
    found = [
        Monomial(exps)
        for exps, degree in _weighted_simplex(chars, order, degree_bound)
        if degree == 0 and any(exps)
    ]
    return minimalize(found)


def _weighted_simplex(
    weights: Sequence[int], order: int, bound: int
) -> Iterator[tuple[tuple[int, ...], int]]:
    """Every exponent tuple of length ``len(weights)`` with coordinate sum
    at most ``bound``, with its weighted degree ``sum a_j e_j`` mod ``order``.

    Tuples come in lexicographic order, the first coordinate varying
    slowest.  The walk is depth first on an explicit stack whose entries
    carry a prefix, its weighted degree and the degree left to spend, so
    each degree costs one product and one sum.
    """
    n = len(weights)
    stack = [((), 0, bound)]
    while stack:
        prefix, degree, rest = stack.pop()
        a = weights[len(prefix)]
        if len(prefix) == n - 1:
            for e in range(rest + 1):
                yield prefix + (e,), (degree + a * e) % order
        else:
            # pushed in reverse, so the smallest exponent is popped first
            stack.extend(
                (prefix + (e,), (degree + a * e) % order, rest - e)
                for e in range(rest, -1, -1)
            )


@dataclass(frozen=True)
class DualConePoints:
    """Lattice points of a dual cone as chart exponent vectors."""

    points: frozenset[Monomial]
    minimal: frozenset[Monomial]


def dual_cone_points(c: Cone, degree_bound: int) -> DualConePoints:
    """Dual-cone lattice points with chart coordinate sum up to the bound.

    A candidate exponent vector ``alpha`` corresponds to the dual vector
    ``sum alpha_j w_j`` in the basis dual to the cone generators; it is kept
    exactly when that vector is integral in the ambient dual lattice.  The
    dual basis is ``w_j = C_j / det`` with the cone's cofactor rows, so the
    test is ``sum alpha_j C_j = 0 (mod det)`` in every entry.  This is an
    independent, purely lattice-theoretic route to the invariant monomials.
    """
    if not c.is_full_dimensional():
        raise DimensionError("dual cone points need a full-dimensional cone")
    det, rows = c.det, c.cofactors
    points = []
    for exps, _ in _weighted_simplex((0,) * c.rank, 1, degree_bound):
        vec = [sum(a * row[j] for a, row in zip(exps, rows)) for j in range(c.rank)]
        if all(x % det == 0 for x in vec):
            points.append(Monomial(exps))
    nonzero = [m for m in points if m.total_degree > 0]
    return DualConePoints(frozenset(points), minimalize(nonzero))


# ---------------------------------------------------------------------------
# truncated automorphisms and the gluing test


Poly = dict[tuple[int, ...], int]


@dataclass(frozen=True)
class TruncatedAutomorphism:
    """Per-coordinate substitution ``x_i -> u_i x_i + higher terms``.

    Coefficients live in the prime field of ``modulus``; ``truncation`` is
    the total degree beyond which terms are dropped.  Images are canonical:
    each is stored as its polynomial, the terms of one exponent summed mod
    ``modulus``, zero sums dropped and the rest sorted, so every exponent
    appears once with a coefficient in ``[1, modulus)``.
    """

    images: tuple[tuple[tuple[tuple[int, ...], int], ...], ...]
    modulus: int
    truncation: int

    def __init__(
        self,
        images: Sequence[Poly | Sequence[tuple[tuple[int, ...], int]]],
        modulus: int,
        truncation: int,
    ):
        if not _is_prime(modulus):
            raise QresError(f"coefficient modulus {modulus} must be prime")
        packed = []
        for img in images:
            poly: Poly = {}
            for e, c in img.items() if isinstance(img, dict) else img:
                e = e if type(e) is tuple else tuple(e)
                poly[e] = (poly.get(e, 0) + c) % modulus
            packed.append(tuple(sorted([term for term in poly.items() if term[1]])))
        self._set(tuple(packed), int(modulus), int(truncation))

    def _set(
        self,
        images: tuple[tuple[tuple[tuple[int, ...], int], ...], ...],
        modulus: int,
        truncation: int,
    ) -> None:
        object.__setattr__(self, "images", images)
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "truncation", truncation)

    @classmethod
    def _from_parts(
        cls,
        images: tuple[tuple[tuple[tuple[int, ...], int], ...], ...],
        modulus: int,
        truncation: int,
    ) -> "TruncatedAutomorphism":
        """A substitution whose images are already what the public
        constructor stores: per coordinate, the canonical polynomial as its
        sorted terms, each exponent tuple once with a coefficient in
        ``[1, modulus)``, over a modulus the caller has checked to be prime;
        see :func:`sample_divisor_fixing_automorphism`, the only caller."""
        phi = object.__new__(cls)
        phi._set(images, modulus, truncation)
        return phi

    @property
    def rank(self) -> int:
        return len(self.images)

    def image_poly(self, i: int) -> Poly:
        return dict(self.images[i])

    def unit_part(self, i: int) -> int:
        """Coefficient of ``x_i`` inside the image of ``x_i``."""
        unit = (0,) * i + (1,) + (0,) * (self.rank - i - 1)
        return self.image_poly(i).get(unit, 0)

    def fixes_divisor(self) -> bool:
        """Image of the last coordinate lies in its ideal with unit lead."""
        last = self.rank - 1
        img = self.images[last]
        if not img or any(e[last] == 0 for e, _ in img):
            return False
        return self.unit_part(last) != 0

    def is_local(self) -> bool:
        """No constant terms and every linear unit part is nonzero.

        One pass over the images: they are canonical, so the unit part of
        ``x_i`` is nonzero exactly when its image has the term ``x_i``, and
        no :meth:`unit_part` lookup is needed.
        """
        zero = (0,) * len(self.images)
        for i, img in enumerate(self.images):
            unit = zero[:i] + (1,) + zero[i + 1 :]
            found = False
            for e, _ in img:
                if e == unit:
                    found = True
                elif not any(e):
                    return False
            if not found:
                return False
        return True

    @classmethod
    def identity(cls, n: int, modulus: int, truncation: int) -> "TruncatedAutomorphism":
        images = []
        for i in range(n):
            unit = tuple(1 if j == i else 0 for j in range(n))
            images.append({unit: 1})
        return cls(images, modulus, truncation)


def _poly_mul(a: Poly, b: Poly, bound: int, modulus: int) -> Poly:
    out: Poly = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            if sum(e) > bound:
                continue
            c = (out.get(e, 0) + ca * cb) % modulus
            if c:
                out[e] = c
            elif e in out:
                del out[e]
    return out


@lru_cache(maxsize=4096)
def substitute(phi: TruncatedAutomorphism, exponents: tuple[int, ...]) -> tuple:
    """Image of a monomial under the substitution, truncated: the product
    of ``phi(x_i)`` taken ``e_i`` times, as its sorted terms.  No degree
    falls in a product, so truncating each partial product drops no term of
    the result."""
    acc: Poly = {(0,) * phi.rank: 1}
    for i, e in enumerate(exponents):
        image = phi.image_poly(i)
        for _ in range(e):
            acc = _poly_mul(acc, image, phi.truncation, phi.modulus)
    return tuple(sorted(acc.items()))


def glue_check(w: WeightedFiltration, phi: TruncatedAutomorphism, k_max: int) -> bool:
    """Whether the substitution preserves every ``I_k``, ``k <= k_max``, up
    to truncation.

    Requires a divisor-fixing local substitution and a divisor coordinate of
    weight 1 (hence unit character), which the filtration stores as
    ``1 % order``, 0 for order 1; monomials of total degree beyond the
    truncation bound ``T`` are ignored.

    Criterion: with weights ``a``, the answer is True iff for every
    coordinate ``i`` every term of ``phi(x_i)`` of total degree at most
    ``T`` has weighted degree at least ``min(a_i, k_max)`` (vacuous when
    ``a_i = 0`` or ``k_max <= 0``).  Write ``v_i`` for the least weighted
    degree of those terms.

    Sufficient: a local substitution has no constant terms, so a term of
    total degree at most ``T`` in the image of ``x^alpha`` is a product of
    image terms of total degree at most ``T``; truncation and cancellation
    mod p only drop terms, so each surviving term has weighted degree at
    least ``sum alpha_i v_i``.  A minimal generator ``x^alpha`` of ``I_k``
    with ``1 <= k <= k_max`` uses only coordinates with ``a_i >= 1``.  If it
    uses some ``i`` with ``a_i >= k_max``, that factor alone gives weight
    ``v_i >= k_max >= k``; otherwise ``v_i >= a_i`` on every coordinate it
    uses and the weight is at least ``sum alpha_i a_i >= k``.

    Necessary: if a term of ``phi(x_i)`` of total degree at most ``T`` has
    weight ``v < min(a_i, k_max)``, take ``k = v + 1``.  Then
    ``1 <= k <= min(a_i, k_max)``, so ``x_i`` is a minimal generator of
    ``I_k`` (its only proper divisor is 1); :func:`substitute` of ``x_i`` is
    exactly the truncated image, which has that term, so ``phi(x_i)`` is
    not in ``I_k``.

    This costs one pass over the image terms, with no polynomial products.
    """
    if w.rank != phi.rank:
        raise DimensionError("filtration and substitution rank differ")
    unit = 1 % w.order
    if w.weights[-1] != unit:
        raise GluePreconditionError(
            f"divisor coordinate has weight {w.weights[-1]}, expected {unit}"
        )
    if not phi.fixes_divisor():
        raise GluePreconditionError("substitution does not fix the divisor ideal")
    if not phi.is_local():
        raise GluePreconditionError("substitution is not a local automorphism")
    weights, truncation = w.weights, phi.truncation
    for a, image in zip(weights, phi.images):
        need = min(a, k_max)
        for exps, _coeff in image:
            if sum(exps) <= truncation and sum(map(operator.mul, weights, exps)) < need:
                return False
    return True


def smallest_prime_with_roots(order: int) -> int:
    """Smallest prime ``p = 1 (mod order)``, so order-th roots exist; only
    the numbers ``k*order + 1`` are tried (for order 1 that is every ``p``)."""
    p = order + 1
    while not _is_prime(p):
        p += order
    return p


@lru_cache(maxsize=32)
def _term_pools(
    weights: tuple[int, ...], order: int, bound: int
) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Exponent tuples usable as correction terms, one pool per coordinate.

    A term on coordinate ``i`` must be action-compatible (weighted degree
    congruent to the weight of ``x_i``), nonconstant, differ from ``x_i``
    itself and, on the divisor coordinate, keep the divisor ideal stable
    (nonzero last exponent).  One walk of the truncated simplex files each
    tuple under every coordinate of its residue, so each pool lists its
    terms in the walk's order.
    """
    n = len(weights)
    coordinates_of: dict[int, list[int]] = {}
    for i, a in enumerate(weights):
        coordinates_of.setdefault(a % order, []).append(i)
    pools: list[list[tuple[int, ...]]] = [[] for _ in weights]
    for exps, degree in _weighted_simplex(weights, order, bound):
        for i in coordinates_of.get(degree, ()):
            pools[i].append(exps)
    out = []
    for i, pool in enumerate(pools):
        unit = tuple(1 if j == i else 0 for j in range(n))
        out.append(
            tuple(e for e in pool if any(e) and e != unit and (i < n - 1 or e[-1]))
        )
    return tuple(out)


def _draw_below(getrandbits: Callable[[int], int], n: int, bits: int) -> int:
    """A uniform draw from ``range(n)``, ``n >= 1``, with ``bits`` equal to
    ``n.bit_length()``: ``getrandbits(bits)`` is drawn again while it is at
    least ``n``.  That is the rule of ``Random.randrange(n)`` on CPython
    3.10-3.13, so both read the same Mersenne Twister words; the rule is
    written here so that the sampled streams do not rest on ``randrange``'s
    implementation, which the Python docs do not promise to keep."""
    r = getrandbits(bits)
    while r >= n:
        r = getrandbits(bits)
    return r


def sample_divisor_fixing_automorphism(
    w: WeightedFiltration,
    rng: Random,
    modulus: Optional[int] = None,
    truncation: int = DEFAULT_DEGREE_BOUND,
) -> TruncatedAutomorphism:
    """Random truncated automorphism fixing the divisor ideal.

    Correction terms are drawn action-compatibly; an arbitrary substitution
    fixing the divisor can move the filtration (that is the content of the
    counterexample with swapped coordinates), so the sampled class is the
    one the gluing statement is about.

    The terms come from :func:`_term_pools`: every coordinate's pool from
    one walk of the simplex of total degree at most ``truncation``, cached
    in a bounded ``lru_cache``.  A draw is an index into a pool, so the
    pools' order (the walk's lexicographic order) fixes which substitutions
    a seed yields.

    Per coordinate, in order, the draws are: the unit coefficient in
    ``[1, q)``; if the pool is not empty, the number of correction terms in
    ``[0, _MAX_EXTRA_TERMS]``, then for each term its pool index and its
    coefficient in ``[1, q)``, a term drawn twice adding up its coefficients
    mod ``q``.  Every draw is :func:`_draw_below` on ``rng.getrandbits``,
    which yields what ``rng.randrange`` would.  A given ``modulus`` must be
    prime, which is checked before any draw; each image is built as the
    sorted terms the public constructor would store, and handed to
    :meth:`TruncatedAutomorphism._from_parts`.
    """
    if modulus is None:
        q = smallest_prime_with_roots(w.order)
    elif _is_prime(modulus):
        q = int(modulus)
    else:
        raise QresError(f"coefficient modulus {modulus} must be prime")
    n = w.rank
    getrandbits = rng.getrandbits
    span, span_bits = q - 1, (q - 1).bit_length()
    counts, count_bits = _MAX_EXTRA_TERMS + 1, (_MAX_EXTRA_TERMS + 1).bit_length()
    images = []
    for i, pool in enumerate(_term_pools(w.weights, w.order, truncation)):
        unit = (0,) * i + (1,) + (0,) * (n - i - 1)
        img = {unit: 1 + _draw_below(getrandbits, span, span_bits)}
        if pool:
            size, size_bits = len(pool), len(pool).bit_length()
            for _ in range(_draw_below(getrandbits, counts, count_bits)):
                exps = pool[_draw_below(getrandbits, size, size_bits)]
                coeff = 1 + _draw_below(getrandbits, span, span_bits)
                img[exps] = (img.get(exps, 0) + coeff) % q
        images.append(tuple(sorted([term for term in img.items() if term[1]])))
    return TruncatedAutomorphism._from_parts(tuple(images), q, truncation)


# ---------------------------------------------------------------------------
# cartification


def cartify(order: int, chars: Sequence[int], index: int) -> tuple[int, tuple[int, ...]]:
    """Pass to the kernel of the character scaling coordinate ``index`` of
    ``1/order(chars)``, returning its order and characters.

    The kernel has order ``gcd(l, c_i)`` and acts with the original
    characters reduced mod that order, so the chosen divisor becomes
    principal (its character vanishes).  The index refers to the tuple as
    given.
    """
    new_order = math.gcd(order, chars[index])
    return new_order, tuple(c % new_order for c in chars)
