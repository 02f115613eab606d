"""Summary statistics and operation accounting for the campaign benchmark.

Pure functions with no dependency on the program under test, so the
benchmark's own arithmetic can be tested on its own.
"""

from __future__ import annotations

import math
from collections import Counter

# percentiles tried for the latency tail, highest first
TAIL_LADDER = (99, 95, 90, 75)
TAIL_MIN_BEYOND = 10


def nearest_rank(values, p: float) -> float:
    """Nearest-rank percentile: the value at 1-based rank ceil(p/100 * n)."""
    vals = sorted(values)
    if not vals:
        raise ValueError("percentile of an empty sample")
    if not 0 < p <= 100:
        raise ValueError(f"percentile {p} outside (0, 100]")
    rank = max(1, math.ceil(p / 100.0 * len(vals)))
    return vals[rank - 1]


def tail_level(n: int):
    """Highest ladder percentile leaving at least ten samples beyond its
    nearest rank, or None below forty samples (no tail to speak of)."""
    for p in TAIL_LADDER:
        beyond = n - math.ceil(p / 100.0 * n)
        if beyond >= TAIL_MIN_BEYOND:
            return p
    return None


class OpLedger:
    """Attempted and failed operations, with a tally of failure reasons.

    An operation fails when it raises, is truncated, or fails an output
    check; ``record`` takes the list of problems found (empty means passed).
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = Counter()

    def record(self, problems) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            for p in problems:
                self.reasons[p] += 1

    def record_many(self, count: int, problems) -> None:
        """``count`` operations that share one outcome (a batch call)."""
        for _ in range(count):
            self.record(problems)
