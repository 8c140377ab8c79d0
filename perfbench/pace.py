"""Machine-speed reference for the end-to-end timings.

The benchmark's box is shared, and its speed swings by up to 2x within
minutes as other tenants come and go.  Every run therefore interleaves a
fixed pure-Python computation with the workload's operations and scales each
timing by how long that computation took nearby.  A timing is reported in
reference seconds: measured seconds x REFERENCE_S / measured reference time,
which is what the timing would read on a machine where the reference takes
exactly REFERENCE_S.  The reference never calls dinrep, so a change to
dinrep cannot move it.  See "Steadiness record" in NOTES.md.
"""

from __future__ import annotations

import json
from time import perf_counter

# About the time ``reference()`` takes on the 2-CPU box where the benchmark
# was defined, in a quiet spell (Python 3.11).  It only sets the scale of the
# reported numbers.
REFERENCE_S = 0.004
# Sample the reference at least this often during a pass.
INTERVAL_S = 0.05


def _walk(depth: int, mask: int) -> int:
    if depth == 0:
        return mask.bit_count()
    total = 0
    for bit in (1, 2, 4):
        total += _walk(depth - 1, ((mask << 2) | bit) & 0xFFFF)
    return total


def reference() -> int:
    """A fixed mix of what dinrep spends its time on: recursion over small
    bit masks, frozenset intersections and JSON text."""
    acc = _walk(6, 1)
    sets = [frozenset(range(i, i + 60)) for i in range(0, 600, 11)]
    for a in sets:
        for b in sets:
            if a & b and len(a) <= len(b):
                acc += 1
    acc += len(json.dumps({str(i): list(range(i % 17)) for i in range(400)}))
    return acc


def sample() -> float:
    """Seconds the reference takes now."""
    start = perf_counter()
    reference()
    return perf_counter() - start
