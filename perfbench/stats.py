"""Order statistics shared by the runner and the workloads."""

from __future__ import annotations

import math


def percentile(values, p: float) -> float:
    """Nearest-rank percentile (0 for no values)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]
