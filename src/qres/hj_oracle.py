"""Independent verification oracles.

Two-dimensional cyclic quotients have a classical minimal resolution read
off a ceiling-type continued fraction; coset enumeration gives the
structure of a finite quotient lattice without normal-form machinery.
Both are used to cross-check the main engine.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .cones_fans import Cone, Fan, multiplicity
from .errors import DegenerateInputError, InfiniteQuotientError, MeasureError, QresError
from .exact_lattice import (
    IntegerMatrix,
    IntegerVector,
    determinant,
    hermite_normal_form,
)
from .quotient_classifier import _prime_factors, cone_characters, unit_weights

BRUTE_FORCE_LIMIT = 10**4


@dataclass(frozen=True)
class HJExpansion:
    """Ceiling continued fraction ``l/a = b1 - 1/(b2 - 1/(...))``."""

    l: int
    a: int
    coefficients: tuple[int, ...]

    def reconstruct(self) -> Fraction:
        value = Fraction(self.coefficients[-1])
        for b in reversed(self.coefficients[:-1]):
            value = b - 1 / value
        return value


def _check_pair(l: int, a: int) -> None:
    if not 0 < a < l:
        raise QresError(f"need 0 < a < l, got a={a}, l={l}")
    if math.gcd(a, l) != 1:
        raise QresError(f"a={a} and l={l} are not coprime")


def hj_expansion(l: int, a: int) -> HJExpansion:
    """Greedy ceiling expansion of ``l/a``; every coefficient is >= 2."""
    _check_pair(l, a)
    coeffs = []
    num, den = l, a
    while den:
        b = -(-num // den)
        coeffs.append(b)
        num, den = den, b * den - num
    exp = HJExpansion(l, a, tuple(coeffs))
    if exp.reconstruct() != Fraction(l, a):
        raise MeasureError(f"expansion {exp.coefficients} does not reconstruct {l}/{a}")
    return exp


def hj_rays(l: int, a: int) -> tuple[IntegerVector, ...]:
    """Interior rays of the minimal smooth subdivision of the standard cone.

    For the cone spanned by ``e1`` and ``l*e2 - a*e1`` the boundary lattice
    points satisfy ``v_{i-1} + v_{i+1} = b_i * v_i`` with the expansion
    coefficients of ``l/a``; the recursion is seeded with ``v_0 = e1`` and
    ``v_1 = e2`` and checked against the far generator.
    """
    coeffs = hj_expansion(l, a).coefficients
    v_prev = IntegerVector([1, 0])
    v_cur = IntegerVector([0, 1])
    rays = [v_cur]
    for b in coeffs:
        v_prev, v_cur = v_cur, IntegerVector([b * x - y for x, y in zip(v_cur.entries, v_prev.entries)])
        rays.append(v_cur)
    end = rays.pop()
    if end.entries != (-a, l):
        raise MeasureError(f"recursion ended at {end}, expected (-{a}, {l})")
    return tuple(rays)


def hj_cone_rays(cone: Cone) -> list[IntegerVector]:
    """Minimal-resolution rays of a singular 2D cone, in ambient coordinates.

    The cone is the image of the standard cone ``<e1, l*e2 - a*e1>`` of
    ``1/l(a, 1)`` under the unimodular map sending ``l*e2 - a*e1`` to a
    generator with unit character and ``e1`` to the other one.
    """
    order, chars = cone_characters(cone)
    d = 1 if math.gcd(chars[1], order) == 1 else 0
    first, div = cone.generators[1 - d], cone.generators[d]
    a = unit_weights(order, chars, d)[1 - d]
    # image of e2 under the unimodular map sending the standard cone here
    mid = IntegerVector(
        [(x + a * f) // order for x, f in zip(div.entries, first.entries)]
    )
    out = []
    for ray in hj_rays(order, a):
        x, y = ray.entries
        out.append(
            IntegerVector([x * f + y * m for f, m in zip(first.entries, mid.entries)])
        )
    return out


def check_minimal_rays(original: Fan, resolved: Fan) -> int:
    """Check that ``resolved`` has every minimal-resolution ray of each
    singular cone of the rank-2 fan ``original``; the number of rays checked.
    Raises :class:`MeasureError` at the first missing ray.
    """
    final_rays = set(resolved.rays())
    checked = 0
    for cone in original.sorted_cones():
        if multiplicity(cone) == 1:
            continue
        for ray in hj_cone_rays(cone):
            if ray not in final_rays:
                raise MeasureError(f"oracle ray {ray} missing from the resolved fan")
            checked += 1
    return checked


def _box_representatives(hnf: IntegerMatrix) -> list[tuple[int, ...]]:
    diag = [hnf.entry(i, i) for i in range(hnf.nrows)]
    return [tuple(t) for t in itertools.product(*[range(d) for d in diag])]


def _reduce(hnf: IntegerMatrix, vec: list[int]) -> tuple[int, ...]:
    # top-down reduction against the triangular basis gives the unique
    # representative with every coordinate inside [0, pivot)
    v = list(vec)
    for i in range(hnf.nrows):
        p = hnf.entry(i, i)
        q = v[i] // p
        if q:
            for j in range(i, hnf.ncols):
                v[j] -= q * hnf.entry(i, j)
    return tuple(v)


def brute_quotient(mat: IntegerMatrix) -> tuple[int, ...]:
    """Divisor chain of the quotient lattice by brute-force coset counting.

    Enumerates all cosets, counts solutions of ``m * x = 0`` for prime
    powers ``m`` and reassembles the invariant factors from those counts.
    Returns the nontrivial chain (entries > 1, each dividing the next).
    """
    if mat.nrows != mat.ncols:
        raise InfiniteQuotientError("non-square generator matrix")
    det = determinant(mat)
    if det == 0:
        raise InfiniteQuotientError("row lattice does not have full rank")
    order = abs(det)
    if order > BRUTE_FORCE_LIMIT:
        raise DegenerateInputError(f"quotient of order {order} exceeds the desk-scale limit")
    hnf = hermite_normal_form(mat)
    if hnf.nrows != mat.ncols:
        raise MeasureError(f"Hermite basis has {hnf.nrows} rows, expected {mat.ncols}")
    reps = _box_representatives(hnf)
    if len(reps) != order:
        raise MeasureError(f"{len(reps)} coset representatives, expected {order}")

    def kill_count(m: int) -> int:
        zero = tuple(0 for _ in range(mat.ncols))
        return sum(1 for x in reps if _reduce(hnf, [m * e for e in x]) == zero)

    primes = _prime_factors(order)
    valuations: dict[int, list[int]] = {}
    for p in primes:
        counts = [1]
        power = p
        while True:
            counts.append(kill_count(power))
            if counts[-1] == counts[-2]:
                break
            power *= p
        # layers[j-1] = number of invariant factors with p-valuation >= j
        layers = []
        for j in range(1, len(counts)):
            ratio = counts[j] // counts[j - 1]
            k = 0
            while ratio > 1:
                ratio //= p
                k += 1
            if k == 0:
                break
            layers.append(k)
        valuations[p] = layers
    count_factors = max((layers[0] for layers in valuations.values() if layers), default=0)
    chain = []
    for idx in range(1, count_factors + 1):
        d = 1
        for p, layers in valuations.items():
            v = sum(1 for k in layers if k >= idx)
            d *= p**v
        chain.append(d)
    chain.sort()
    prod = 1
    for d in chain:
        prod *= d
    if prod != order:
        raise MeasureError(f"divisor chain {chain} does not multiply to {order}")
    return tuple(chain)

