"""Small statistics and I/O helpers shared by the benchmark files."""

from __future__ import annotations

import math
import os
import select
import statistics
import time
from typing import List, Optional, Sequence, Tuple

#: Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0)


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile of ``values`` (0 <= pct <= 100)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = (len(ordered) - 1) * pct / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def tail(values: Sequence[float]) -> Optional[Tuple[float, float, int]]:
    """``(pct, value, n)`` at the highest percentile with at least ten
    samples beyond it, or ``None`` when there are too few samples."""
    n = len(values)
    for pct in TAIL_PERCENTILES:
        if n * (100.0 - pct) / 100.0 >= 10.0:
            return pct, percentile(values, pct), n
    return None


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def median_or_zero(values: Sequence[float]) -> float:
    """The median, or 0 for a run that ended before its first block."""
    return statistics.median(values) if values else 0.0


def quartiles(values: Sequence[float]) -> List[float]:
    """First, second and third quartile as ``statistics.quantiles``
    gives them (one value repeats three times)."""
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def readline_within(pipe, seconds: float) -> str:
    """One line from a child's pipe, or ``TimeoutError``."""
    deadline = time.monotonic() + seconds
    buffered = b""
    fd = pipe.fileno()
    while not buffered.endswith(b"\n"):
        left = deadline - time.monotonic()
        if left <= 0 or not select.select([fd], [], [], left)[0]:
            raise TimeoutError(f"no line within {seconds:.0f} s")
        byte = os.read(fd, 1)
        if not byte:
            raise EOFError("pipe closed before a full line")
        buffered += byte
    return buffered.decode()
