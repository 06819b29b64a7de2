"""Weighted monomial filtrations, invariant algebras and the gluing test.

The filtration is the one of the monomial valuation ``v`` with weights
``a``: ``v(f)`` is the least weighted degree ``sum a_j e_j`` over the terms
of ``f``, and ``I_k = {f : v(f) >= k}`` is spanned by the monomials of
weighted degree at least ``k``.  Automorphism invariance of the filtration
is tested on truncated polynomial substitutions over a prime field chosen
so that roots of unity of the right order exist; power series statements
are checked up to a finite total degree bound.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from random import Random
from typing import Iterable, Optional, Sequence

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


@lru_cache(maxsize=None)
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
    found = []
    for exps in _simplex(len(chars), degree_bound):
        if sum(exps) == 0:
            continue
        if sum(c * e for c, e in zip(chars, exps)) % order == 0:
            found.append(Monomial(exps))
    return minimalize(found)


def _simplex(n: int, bound: int):
    """All exponent tuples of length n with coordinate sum <= bound."""
    if n == 1:
        for e in range(bound + 1):
            yield (e,)
        return
    for head in range(bound + 1):
        for tail in _simplex(n - 1, bound - head):
            yield (head,) + tail


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
    for exps in _simplex(c.rank, degree_bound):
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
    the total degree beyond which terms are dropped.
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
            items = img.items() if isinstance(img, dict) else img
            terms = tuple(
                sorted((tuple(e), c % modulus) for e, c in items if c % modulus)
            )
            packed.append(terms)
        object.__setattr__(self, "images", tuple(packed))
        object.__setattr__(self, "modulus", int(modulus))
        object.__setattr__(self, "truncation", int(truncation))

    @property
    def rank(self) -> int:
        return len(self.images)

    def image_poly(self, i: int) -> Poly:
        return dict(self.images[i])

    def unit_part(self, i: int) -> int:
        """Coefficient of ``x_i`` inside the image of ``x_i``."""
        unit = tuple(1 if j == i else 0 for j in range(self.rank))
        return dict(self.images[i]).get(unit, 0)

    def fixes_divisor(self) -> bool:
        """Image of the last coordinate lies in its ideal with unit lead."""
        last = self.rank - 1
        img = self.image_poly(last)
        if not img:
            return False
        if any(e[last] == 0 for e in img):
            return False
        return self.unit_part(last) != 0

    def is_local(self) -> bool:
        """No constant terms and every linear unit part is nonzero."""
        if any(self.unit_part(i) == 0 for i in range(self.rank)):
            return False
        return all(sum(e) > 0 for img in self.images for e in dict(img))

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


@lru_cache(maxsize=None)
def _image_power(phi: TruncatedAutomorphism, i: int, e: int) -> tuple:
    if e == 0:
        return ((tuple(0 for _ in range(phi.rank)), 1),)
    if e == 1:
        return phi.images[i]
    prev = dict(_image_power(phi, i, e - 1))
    cur = _poly_mul(prev, phi.image_poly(i), phi.truncation, phi.modulus)
    return tuple(sorted(cur.items()))


@lru_cache(maxsize=None)
def substitute(phi: TruncatedAutomorphism, exponents: tuple[int, ...]) -> tuple:
    """Image of a monomial under the substitution, truncated."""
    acc: Poly = {tuple(0 for _ in range(phi.rank)): 1}
    for i, e in enumerate(exponents):
        if e:
            acc = _poly_mul(acc, dict(_image_power(phi, i, e)), phi.truncation, phi.modulus)
    return tuple(sorted(acc.items()))


def glue_check(w: WeightedFiltration, phi: TruncatedAutomorphism, k_max: int) -> bool:
    """Whether the substitution preserves every ``I_k``, ``k <= k_max``, up
    to truncation.

    Requires a divisor-fixing local substitution and a divisor coordinate of
    weight 1 (hence unit character); monomials of total degree beyond the
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
    if w.weights[-1] != 1:
        raise GluePreconditionError(
            f"divisor coordinate has weight {w.weights[-1]}, expected 1"
        )
    if not phi.fixes_divisor():
        raise GluePreconditionError("substitution does not fix the divisor ideal")
    if not phi.is_local():
        raise GluePreconditionError("substitution is not a local automorphism")
    for a, image in zip(w.weights, phi.images):
        need = min(a, k_max)
        if any(
            sum(x * e for x, e in zip(w.weights, exps)) < need
            for exps, _coeff in image
            if sum(exps) <= phi.truncation
        ):
            return False
    return True


def smallest_prime_with_roots(order: int) -> int:
    """Smallest prime ``p = 1 (mod order)``, so order-th roots exist."""
    p = 2
    while True:
        if _is_prime(p) and p % order == 1 % order:
            return p
        p += 1


@lru_cache(maxsize=None)
def _term_pool(
    weights: tuple[int, ...], order: int, coordinate: int, bound: int
) -> tuple[tuple[int, ...], ...]:
    """Exponent tuples usable as correction terms on one coordinate.

    A term must be action-compatible (weighted degree congruent to the
    coordinate's weight), nonconstant, keep the divisor ideal stable when
    attached to the divisor coordinate, and differ from the coordinate
    itself.
    """
    n = len(weights)
    unit = tuple(1 if j == coordinate else 0 for j in range(n))
    pool = []
    for exps in _simplex(n, bound):
        if sum(exps) == 0 or exps == unit:
            continue
        if sum(w * e for w, e in zip(weights, exps)) % order != weights[coordinate] % order:
            continue
        if coordinate == n - 1 and exps[n - 1] == 0:
            continue
        pool.append(exps)
    return tuple(pool)


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
    """
    q = modulus if modulus is not None else smallest_prime_with_roots(w.order)
    n = w.rank
    images = []
    for i in range(n):
        unit = tuple(1 if j == i else 0 for j in range(n))
        img: Poly = {unit: rng.randrange(1, q)}
        pool = _term_pool(w.weights, w.order, i, truncation)
        if pool:
            for _ in range(rng.randrange(_MAX_EXTRA_TERMS + 1)):
                exps = pool[rng.randrange(len(pool))]
                coeff = rng.randrange(1, q)
                img[exps] = (img.get(exps, 0) + coeff) % q
        images.append({e: c for e, c in img.items() if c})
    return TruncatedAutomorphism(images, q, truncation)


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
