"""A fixed reference workload that measures how fast the machine runs right now.

The benchmark's machine is a few vCPUs of a shared host, and its speed wanders
by 20-40 % over seconds to minutes with the load of other tenants.  The
runner times this workload after every operation, for about 15 % of the
operation's time, and scales the end-to-end times by ``REFERENCE_S`` over the
run's median reference time: they read as seconds on a machine that runs the
reference workload in ``REFERENCE_S``.

The workload is benchmark code that touches no qres module, so no change to
the program moves it.  It does in pure Python what qres spends its time on:
exact ``Fraction`` elimination on small integer systems (``span_coordinates``),
pairwise containment scans over sets of small integer tuples
(``Fan.__init__``), and building, sorting and dropping a dict of some
thousands of tuple keys (the maps from cones to rays), so that it allocates
and walks memory about as qres does.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

# typical median time of ``work()`` on the 2-vCPU Intel Xeon container with
# Python 3.11.7 that the benchmark was defined on
REFERENCE_S = 0.027

_RNG = random.Random(1511_00550)
_SYSTEMS = [
    [[_RNG.randrange(-60, 61) for _ in range(4)] for _ in range(3)] for _ in range(60)
]
_FACES = [
    frozenset((_RNG.randrange(40), _RNG.randrange(40), _RNG.randrange(3)) for _ in range(_RNG.randrange(2, 6)))
    for _ in range(160)
]


def _solve(rows: list[list[int]]) -> list[Fraction] | None:
    """Reduced row echelon form of a 3 x 4 augmented system over Q."""
    aug = [[Fraction(x) for x in row] for row in rows]
    for c in range(3):
        pivot = next((i for i in range(c, 3) if aug[i][c] != 0), None)
        if pivot is None:
            return None
        aug[c], aug[pivot] = aug[pivot], aug[c]
        inv = 1 / aug[c][c]
        aug[c] = [x * inv for x in aug[c]]
        for i in range(3):
            if i != c and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[c])]
    return [row[3] for row in aug]


def work() -> int:
    """One pass of the reference workload; returns a checksum."""
    total = 0
    for rows in _SYSTEMS:
        x = _solve(rows)
        total += 0 if x is None else sum(v.denominator for v in x)
    maximal = [f for f in _FACES if not any(f < g for g in _FACES)]
    total += len(maximal)
    table = {(i % 97, i * 7, i % 13): (i, -i) for i in range(12_000)}
    total += sum(k[0] for k in sorted(table, key=lambda k: (k[2], -k[1]))[:50])
    return total


def measure() -> float:
    """Seconds one pass of ``work`` takes now."""
    start = time.perf_counter()
    work()
    return time.perf_counter() - start


def sample(into: list[float], seconds: float) -> None:
    """Times ``work`` into ``into`` at least once and until ``seconds`` are spent."""
    spent = 0.0
    while True:
        into.append(measure())
        spent += into[-1]
        if spent >= seconds:
            return
