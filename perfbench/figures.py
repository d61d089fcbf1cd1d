"""Summary statistics over raw samples (never histogram buckets)."""

from __future__ import annotations

import math
import resource
import statistics
from typing import List, Sequence, Tuple

#: A tail percentile must leave at least this many samples beyond it.
TAIL_BEYOND = 10


def tail(values: Sequence[float], windows: int = 1) -> Tuple[float, float]:
    """The highest percentile with ``TAIL_BEYOND`` samples beyond it.

    Returns ``(value, percentile)``: the value is the
    ``TAIL_BEYOND + 1``-th largest sample, so exactly ``TAIL_BEYOND``
    samples lie above it.  With ``windows`` above 1 the samples, in time
    order, are cut into that many consecutive windows of equal count and
    the median of the windows' tails is returned, so a burst of host
    contention inside one window does not move it; the percentile is
    then that of one window.  Each window needs more than
    ``TAIL_BEYOND`` samples.
    """
    size = len(values) // windows
    if size <= TAIL_BEYOND:
        raise ValueError(
            f"a tail needs more than {TAIL_BEYOND} samples per window, "
            f"got {len(values)} in {windows}"
        )
    index = size - TAIL_BEYOND - 1
    tails = [
        sorted(values[start : start + size])[index]
        for start in range(0, size * windows, size)
    ]
    return statistics.median(tails), 100.0 * (index + 1) / size


def peak_rss_mb() -> float:
    """Peak resident memory of this process in MiB (Linux: KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def relative_error(value: float, reference: float) -> float:
    if not (math.isfinite(value) and math.isfinite(reference)):
        return math.inf
    return abs(value - reference) / max(abs(reference), 1e-300)


def period_error_pct(pairs: List[Tuple[float, float]]) -> float:
    """Table 1's measure: mean |estimate - simulated| / simulated, in %."""
    return 100.0 * sum(abs(e - s) / s for e, s in pairs) / len(pairs)
