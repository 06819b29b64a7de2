"""Global fans: the resolution of a weighted projective space glues chart by
chart.

The fan of ``P(w_0, ..., w_n)`` lives in ``N = Z^(n+1) / Z w``; its rays
``v_i``, the images of the unit vectors, satisfy ``sum w_i v_i = 0``, and
its maximal cones are the ``n + 1`` cones spanned by all rays but one.
Chart ``i`` is the cyclic quotient ``1/w_i(w_0, ..., w_n without w_i)``.
Its singular charts meet along singular faces, which no single standard
cone has, so these fans test that the local resolutions agree on overlaps.

Every ray is marked.  The sweep keeps the weights for which the engine's
precondition holds: well formed (any ``n`` weights coprime, so that each
chart's action is faithful) and with a unit character in every chart.
"""

import math
import operator
from itertools import combinations

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qres.cones_fans import Cone, Fan
from qres.exact_lattice import IntegerVector
from qres.quotient_classifier import CyclicQuotientType, cone_characters
from qres.resolution_engine import MarkedFan, replay, resolve


def projective_lattice(weights):
    """``(A, B)``: ``A`` maps ``Z^(n+1)`` onto ``Z^n`` with kernel ``Z w``,
    and ``B`` is an integer right inverse of ``A``, both as lists of rows.

    Euclid's algorithm on the column ``w``, by integer row operations, gives
    a unimodular ``U`` with ``U w = e_0``, and ``W = U^-1`` alongside it;
    ``A`` is ``U`` less its first row and ``B`` is ``W`` less its first
    column.
    """
    size = len(weights)
    v = list(weights)
    u = [[int(i == j) for j in range(size)] for i in range(size)]
    w = [[int(i == j) for j in range(size)] for i in range(size)]
    while sum(1 for x in v if x) > 1:
        j = min((i for i, x in enumerate(v) if x), key=lambda i: v[i])
        for i in range(size):
            if i != j and v[i]:
                q = v[i] // v[j]
                v[i] -= q * v[j]
                u[i] = [a - q * b for a, b in zip(u[i], u[j])]
                # row_i -= q row_j on U is column_j += q column_i on U^-1
                for row in w:
                    row[j] += q * row[i]
    j = next(i for i, x in enumerate(v) if x)
    u[0], u[j] = u[j], u[0]
    for row in w:
        row[0], row[j] = row[j], row[0]
    return u[1:], [row[1:] for row in w]


def weighted_projective_fan(weights):
    """The rays ``v_0, ..., v_n`` of ``P(weights)`` and its fan."""
    n = len(weights) - 1
    a, _ = projective_lattice(weights)
    rays = [IntegerVector(col) for col in zip(*a)]
    cones = [Cone(n, rays[:i] + rays[i + 1 :]) for i in range(n + 1)]
    return rays, Fan(n, cones)


def _apply(g, v):
    return IntegerVector(sum(a * x for a, x in zip(row, v)) for row in g)


def _matmul(x, y):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*y)] for row in x]


def _well_formed(weights):
    n = len(weights) - 1
    return all(math.gcd(*sub) == 1 for sub in combinations(weights, n))


def _unit_in_every_chart(weights):
    return all(
        any(math.gcd(x, w) == 1 for j, x in enumerate(weights) if j != i)
        for i, w in enumerate(weights)
    )


@st.composite
def projective_cases(draw):
    """Weights of ``P^n``, n from 2 to 4, a characteristic, and an order of
    the marked rays."""
    n = draw(st.integers(2, 4))
    top = {2: 30, 3: 12, 4: 7}[n]
    weights = tuple(draw(st.lists(st.integers(1, top), min_size=n + 1, max_size=n + 1)))
    assume(_well_formed(weights) and _unit_in_every_chart(weights))
    p = draw(st.sampled_from([0, 2, 3, 5]))
    marking = draw(st.permutations(range(n + 1)))
    return weights, p, marking


def test_the_charts_are_the_weighted_quotients():
    for weights in [(1, 1, 1), (2, 3, 5), (1, 2, 3, 6), (3, 5, 7, 11), (1, 6, 10, 15)]:
        rays, fan = weighted_projective_fan(weights)
        assert all(sum(map(operator.mul, weights, row)) == 0 for row in zip(*rays))
        for i, w in enumerate(weights):
            sigma = Cone(fan.rank, rays[:i] + rays[i + 1 :])
            assert sigma.det == w
            others = weights[:i] + weights[i + 1 :]
            assert CyclicQuotientType(*cone_characters(sigma)) == CyclicQuotientType(w, others)


@given(projective_cases())
@settings(max_examples=60, deadline=None)
def test_global_resolution_glues_chart_by_chart(case):
    # each maximal cone resolved alone, with its marked rays in marking
    # order, gives exactly the final cones inside it; the global trace
    # replays and its measures drop
    weights, p, marking = case
    rays, fan = weighted_projective_fan(weights)
    marked = [rays[i] for i in marking]
    m = MarkedFan(fan, marked, p)
    trace = resolve(m)
    assert trace.all_smooth and trace.measure_decreasing
    assert replay(m, trace) == trace.final.fan
    final = trace.final.fan.cones
    for sigma in fan.sorted_cones():
        own = [r for r in marked if r in sigma.generators]
        alone = resolve(MarkedFan(Fan(fan.rank, [sigma]), own, p))
        inside = {c for c in final if all(sigma.contains(g) for g in c.generators)}
        assert alone.final.fan.cones == inside


@given(projective_cases(), st.data())
@settings(max_examples=60, deadline=None)
def test_permuting_equal_weights_permutes_the_resolution(case, data):
    # a permutation pi with w o pi = w induces the lattice automorphism
    # g = A P B of N with g(v_i) = v_pi(i); it maps the fan to itself and
    # the marking to the permuted marking, so it maps the resolution of one
    # onto that of the other
    weights, p, marking = case
    shuffled = data.draw(st.permutations(range(len(weights))))
    pi = {}
    for x in set(weights):
        pi.update(
            zip(
                [i for i in range(len(weights)) if weights[i] == x],
                [i for i in shuffled if weights[i] == x],
            )
        )
    a, b = projective_lattice(weights)
    perm = [[int(pi[j] == i) for j in range(len(weights))] for i in range(len(weights))]
    g = _matmul(_matmul(a, perm), b)
    rays, fan = weighted_projective_fan(weights)
    assert [_apply(g, v) for v in rays] == [rays[pi[i]] for i in range(len(rays))]
    trace = resolve(MarkedFan(fan, [rays[i] for i in marking], p))
    moved = resolve(MarkedFan(fan, [rays[pi[i]] for i in marking], p))
    assert moved.final.fan == Fan(
        fan.rank,
        [Cone(fan.rank, [_apply(g, v) for v in c.generators]) for c in trace.final.fan.cones],
    )
    assert [s.phase for s in moved.steps] == [s.phase for s in trace.steps]
    for before, after in zip(trace.steps, moved.steps):
        assert {_apply(g, u) for u in before.added_rays} == set(after.added_rays)
