"""A fixed standard-library computation that gauges the machine's speed.

On a shared host the speed of the same Python code drifts with the load of
the neighbours, in phases that last from seconds to minutes, and CPU time
drifts with it.  The benchmark therefore runs this gauge between jobs (about
one part in eight of the loop) and divides each job's wall time by the
gauge's median time around that job.  Job times are reported at the speed at
which one gauge sample takes `REF_S` seconds.

The gauge does the kinds of work the jobs do, none of it through the code
under test: a sparse polynomial product keyed by exponent tuples with big
integer coefficients, Gaussian elimination over `Fraction`, and a JSON round
trip.  It runs with the cyclic garbage collector off, so the heap a job
leaves behind cannot change its time.  The gauge and `REF_S` are part of the
benchmark's definition: changing either changes every reported time.
"""

from __future__ import annotations

import gc
import json
import random
import time
from fractions import Fraction

# Median gauge time on a 2-core x86-64 VM (Intel Xeon, 2.0 GHz) with
# Python 3.11.7, in a quiet phase.
REF_S = 0.0023

_rng = random.Random("perfbench/gauge")
_POLY = {(_rng.randrange(9), _rng.randrange(9), _rng.randrange(9)):
         _rng.randrange(1, 10 ** 15) for _ in range(20)}
_MATRIX = [[Fraction(_rng.randrange(-9, 10)) for _ in range(8)] for _ in range(8)]
_DOC = {"rows": [[_rng.randrange(-99, 100) for _ in range(12)] for _ in range(12)],
        "names": {f"k{i}": [i, str(i), i / 7] for i in range(40)}}


def _poly_power():
    acc = {(0, 0, 0): 1}
    for _ in range(3):
        out = {}
        for (a, b, c), x in acc.items():
            for (d, e, f), y in _POLY.items():
                key = (a + d, b + e, c + f)
                out[key] = out.get(key, 0) + x * y
        acc = out
    return len(acc)


def _eliminate():
    rows = [row[:] for row in _MATRIX]
    n = len(rows)
    for col in range(n):
        pivot = next(r for r in range(col, n) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for r in range(col + 1, n):
            factor = rows[r][col] / rows[col][col]
            rows[r] = [x - factor * y for x, y in zip(rows[r], rows[col])]
    return rows[-1][-1]


def _round_trip():
    return len(json.loads(json.dumps(_DOC, sort_keys=True)))


def sample():
    """Seconds one gauge run takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _poly_power()
        _eliminate()
        _round_trip()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
