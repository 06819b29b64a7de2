"""Dictionary between simplicial cones and diagonal cyclic quotient data.

A diagonal action of a cyclic group of order ``l`` on affine n-space is
recorded as the tuple of its characters modulo ``l``.  Tuples are stored in
a canonical form (lexicographically smallest among all unit rescalings and
coordinate permutations), which makes equality of quotient types decidable.
Cones map to types by :func:`cone_characters` and :func:`cone_descriptor`
and types to cones by :func:`standard_cone`; :func:`parse_quotient_literal`
is the one literal parser and :func:`is_tame` the one tameness rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Optional, Sequence

from .cones_fans import Cone, multiplicity
from .errors import (
    DimensionError,
    MeasureError,
    NotRepresentableError,
    QresError,
    UnsupportedInputError,
)
from .exact_lattice import (
    IntegerMatrix,
    IntegerVector,
    SmithDecomposition,
    primitive,
    smith_normal_form,
)


def _canonical_characters(order: int, chars: Sequence[int]) -> tuple[int, ...]:
    """Smallest sorted tuple ``sorted(u*c mod l)`` over the units ``u`` mod l.

    A unit keeps ``gcd(c, l)``, so the first nonzero entry of any candidate
    is at least the minimal gcd ``g`` of a nonzero character, and ``g`` is
    reached.  Only the units sending some character ``c`` of gcd ``g`` to
    ``g`` can win: the lifts of ``(c/g)^-1 mod l/g`` to units mod ``l``.
    """
    reduced = tuple(c % order for c in chars)
    nonzero = [c for c in reduced if c]
    if not nonzero:
        return tuple(reduced)
    g = min(math.gcd(c, order) for c in nonzero)
    step = order // g
    units = {
        u
        for c in set(nonzero)
        if math.gcd(c, order) == g
        for u in range(pow(c // g, -1, step), order, step)
        if math.gcd(u, order) == 1
    }
    return min(tuple(sorted((u * c) % order for c in reduced)) for u in units)


@dataclass(frozen=True)
class CyclicQuotientType:
    """Cyclic quotient ``1/l(c_1, ..., c_n)`` in canonical form.

    Invariants: ``0 <= c_i < l``, ``gcd(c_1, ..., c_n, l) = 1`` (the group
    acts with exact order ``l``), and the stored tuple is the canonical
    representative of its equivalence class.
    """

    order: int
    characters: tuple[int, ...]

    def __init__(self, order: int, characters: Iterable[int]):
        order = int(order)
        chars = _checked_characters(order, tuple(int(c) for c in characters))
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "characters", _canonical_characters(order, chars))

    @property
    def rank(self) -> int:
        return len(self.characters)

    def is_trivial(self) -> bool:
        return self.order == 1

    def __str__(self) -> str:
        return f"1/{self.order}({','.join(str(c) for c in self.characters)})"


def parse_quotient_literal(text: str) -> tuple[int, tuple[int, ...]]:
    """Order and character tuple of a ``1/l(c_1,...,c_n)`` literal, as typed.

    No canonicalization: callers that care about coordinate positions (the
    command line does) get the tuple in the order the user wrote it.
    """
    s = text.strip().replace(" ", "")
    if not s.startswith("1/") or "(" not in s or not s.endswith(")"):
        raise QresError(f"cannot parse quotient type {text!r}")
    head, inner = s[2:-1].split("(", 1)
    try:
        order = int(head)
        chars = tuple(int(p) for p in inner.split(",")) if inner else ()
    except ValueError as exc:
        raise QresError(f"cannot parse quotient type {text!r}") from exc
    return order, _checked_characters(order, chars)


def _checked_characters(order: int, chars: tuple[int, ...]) -> tuple[int, ...]:
    """``chars`` reduced mod ``order``, after the checks every quotient type
    needs: at least one coordinate, a positive order and a faithful action."""
    if not chars:
        raise DimensionError("a quotient type needs at least one coordinate")
    if order < 1:
        raise QresError(f"order must be positive, got {order}")
    chars = tuple(c % order for c in chars)
    if math.gcd(order, *chars) != 1:
        raise QresError(
            f"characters {chars} mod {order} do not generate a faithful action"
        )
    return chars


@dataclass(frozen=True)
class QuotientDescriptor:
    """Quotient group of a cone: divisor chain plus the cyclic type if any.

    ``characters`` are the generator-aligned characters that
    :func:`cone_characters` returns, or ``()`` when the group is not cyclic.
    """

    invariants: tuple[int, ...]
    cyclic: bool
    cqs: Optional[CyclicQuotientType]
    characters: tuple[int, ...] = ()

    @property
    def order(self) -> int:
        prod = 1
        for d in self.invariants:
            prod *= d
        return prod

    @property
    def nontrivial(self) -> tuple[int, ...]:
        return tuple(d for d in self.invariants if d > 1)


def _snf_characters(snf: SmithDecomposition) -> tuple[int, tuple[int, ...]]:
    """Order and generator-aligned characters read off a Smith transform of
    the generator matrix; raises :class:`UnsupportedInputError` when the
    quotient group is not cyclic."""
    heavy = [i for i, d in enumerate(snf.diagonal) if d > 1]
    if len(heavy) > 1:
        raise UnsupportedInputError(
            f"cone quotient has invariants {snf.nontrivial}, not cyclic"
        )
    if not heavy:
        return 1, tuple(0 for _ in snf.diagonal)
    k = heavy[0]
    order = snf.diagonal[k]
    row = snf.left.rows[k]
    return order, tuple(e % order for e in row.entries)


@lru_cache(maxsize=None)
def cone_characters(c: Cone) -> tuple[int, tuple[int, ...]]:
    """Order and characters of a cone's cyclic quotient, generator-aligned.

    The characters are read off the distinguished quotient generator that
    the Smith transform provides, so the result is deterministic; it is well
    defined up to a unit rescaling.  A cone with ``det`` 1 (every smooth
    full-dimensional cone, and the zero cone) has the trivial group, one
    zero character per generator, and skips the Smith normal form.  Raises
    :class:`UnsupportedInputError` when the quotient group is not cyclic.
    """
    if c.det == 1:
        return 1, (0,) * c.dim
    return _snf_characters(smith_normal_form(IntegerMatrix(c.generators)))


def cone_descriptor(c: Cone) -> QuotientDescriptor:
    """Divisor-chain descriptor of any simplicial cone (saturation-relative),
    from one Smith normal form; a cone with ``det`` 1 needs none and has
    ``dim`` trivial invariants and characters."""
    if not c.generators:
        return QuotientDescriptor((), True, None)
    if c.det == 1:
        trivial = (0,) * c.dim
        return QuotientDescriptor((1,) * c.dim, True, CyclicQuotientType(1, trivial), trivial)
    snf = smith_normal_form(IntegerMatrix(c.generators))
    try:
        order, chars = _snf_characters(snf)
    except UnsupportedInputError:
        return QuotientDescriptor(snf.diagonal, False, None)
    return QuotientDescriptor(snf.diagonal, True, CyclicQuotientType(order, chars), chars)


def unit_weights(order: int, chars: Sequence[int], i: int) -> tuple[int, ...]:
    """Characters rescaled mod ``order`` so coordinate ``i`` has character 1.

    These are the weights of a weighted blow-up with divisor ``i``; the
    caller checks that ``chars[i]`` is a unit mod ``order``.
    """
    s = pow(chars[i], -1, order)
    return tuple((s * c) % order for c in chars)


def standard_cone(
    order: int, chars: Sequence[int], divisor: int
) -> tuple[Cone, IntegerVector]:
    """Standard cone of ``1/order(chars)`` and its divisor ray.

    With the weights :func:`unit_weights` of coordinate ``divisor`` (a unit)
    and ``a_i`` the other weights in their order, the cone is spanned by
    ``e_1, ..., e_{n-1}`` and the divisor ray ``l*e_n - sum_i a_i e_i``,
    stored primitively.
    """
    weights = unit_weights(order, chars, divisor)
    n = len(weights)
    rest = weights[:divisor] + weights[divisor + 1 :]
    gens = [IntegerVector([1 if j == i else 0 for j in range(n)]) for i in range(n - 1)]
    divisor_ray = primitive(IntegerVector([-a for a in rest] + [order]))
    gens.append(divisor_ray)
    return Cone(n, gens), divisor_ray


def quotient_to_cone(q: CyclicQuotientType) -> Cone:
    """Standard cone of a cyclic quotient type with a unit character.

    The divisor is the first coordinate with a unit character.  The last
    generator is stored primitively, so quotients with generating
    pseudoreflections land on the cone of their reduced type.
    """
    units = [i for i, c in enumerate(q.characters) if math.gcd(c, q.order) == 1]
    if not units:
        raise NotRepresentableError(
            f"{q} has no coordinate with unit character; no standard cone exists"
        )
    return standard_cone(q.order, q.characters, units[0])[0]


def is_tame(order: int, characteristic: int) -> bool:
    """Whether a group of this order is invertible in a base field of this
    characteristic, which callers have already checked to be 0 or prime."""
    return characteristic == 0 or order % characteristic != 0


def _prime_factors(n: int) -> list[int]:
    """Distinct prime factors of ``n >= 1`` in increasing order, by trial division."""
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        out.append(n)
    return out


def _is_prime(n: int) -> bool:
    return n >= 2 and _prime_factors(n) == [n]


def _validate_characteristic(p: int) -> None:
    if p != 0 and not _is_prime(p):
        raise QresError(f"characteristic must be 0 or prime, got {p}")


def pseudoreflections(q: CyclicQuotientType) -> tuple[int, ...]:
    """Group elements fixing a coordinate divisor pointwise.

    ``k`` qualifies exactly when ``k*c_i = 0 (mod l)`` for all but one i.
    """
    l = q.order
    return tuple(
        k
        for k in range(1, l)
        if sum(1 for c in q.characters if (k * c) % l != 0) == 1
    )


def _pseudoreflection_gcd(q: CyclicQuotientType) -> int:
    """``gcd(l, k)`` over the pseudoreflections ``k``, or ``l`` if none.

    ``k * c_j = 0 (mod l)`` iff ``e_j = l / gcd(l, c_j)`` divides ``k``, so
    ``k`` fixes all but coordinate ``i`` iff ``m_i = lcm_{j != i} e_j``
    divides ``k`` and ``e_i`` does not.  Such ``k`` exist iff ``e_i`` does
    not divide ``m_i``, and then ``m_i`` itself is one (it is below ``l``,
    the lcm of all ``e_j``) and divides the others, so their gcd is the
    gcd of those ``m_i``.  :func:`pseudoreflections` is the scan this
    replaces.
    """
    l = q.order
    exps = [l // math.gcd(l, c) for c in q.characters]
    n = len(exps)
    # prefix and suffix lcms give every m_i in O(n)
    before, after = [1] * (n + 1), [1] * (n + 1)
    for i, e in enumerate(exps):
        before[i + 1] = math.lcm(before[i], e)
    for i in range(n - 1, -1, -1):
        after[i] = math.lcm(after[i + 1], exps[i])
    d = l
    for i, e in enumerate(exps):
        m = math.lcm(before[i], after[i + 1])
        if m % e:
            d = math.gcd(d, m)
    return d


def pseudoreflection_reduce(q: CyclicQuotientType) -> CyclicQuotientType:
    """Quotient by the subgroup generated by all pseudoreflections.

    The subgroup's invariant ring is polynomial in powers of the original
    coordinates; the residual action on those invariant coordinates is
    returned.  The output has no pseudoreflections and the operation is
    idempotent.
    """
    l = q.order
    d = _pseudoreflection_gcd(q)
    if d == l:
        return q
    sub_order = l // d
    exps = [l // math.gcd(l, d * c) for c in q.characters]
    prod = 1
    for e in exps:
        prod *= e
    # the pseudoreflection subgroup splits as a direct sum of one-coordinate
    # kernels, so its invariant ring is generated by pure powers
    if prod != sub_order:
        raise MeasureError(f"pseudoreflection subgroup of {q} is not a direct sum")
    step = sub_order
    new_chars = []
    for c, e in zip(q.characters, exps):
        ce = (c * e) % l
        if ce % step:
            raise MeasureError(f"residual character of {q} is not integral")
        new_chars.append(ce // step)
    return CyclicQuotientType(d, new_chars)
