"""Classification of value trends over doubling truncation schedules."""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class TrendThresholds:
    """Config for the doubling-trend classifier.

    vanishing: the last two doubling ratios are both <= vanish_ratio.
    bounded_below: the last value is >= floor and the last doubling
    changed it by at most stable_rel relatively.
    Anything else is inconclusive.
    """

    vanish_ratio: float = 0.7
    stable_rel: float = 0.05
    floor: float = 1e-6

    def __post_init__(self):
        # a nan threshold turns its channel off silently: every comparison
        # with nan is False
        for name in ("vanish_ratio", "stable_rel", "floor"):
            value = getattr(self, name)
            if not 0 <= value < math.inf:
                raise ValueError(f"trend threshold {name} must be finite and >= 0, got {value}")
        if self.vanish_ratio == 0:
            raise ValueError("trend threshold vanish_ratio must be > 0")


VANISHING = "vanishing"
BOUNDED_BELOW = "bounded_below"
INCONCLUSIVE = "inconclusive"


def classify_trend(values, thresholds: TrendThresholds | None = None) -> str:
    t = thresholds or TrendThresholds()
    vals = [float(v) for v in values]
    if len(vals) < 3:
        return INCONCLUSIVE
    v2, v1, v0 = vals[-3], vals[-2], vals[-1]
    if v2 > 0 and v1 > 0 and v0 / v1 <= t.vanish_ratio and v1 / v2 <= t.vanish_ratio:
        return VANISHING
    if v0 >= t.floor and abs(v0 - v1) <= t.stable_rel * abs(v1):
        return BOUNDED_BELOW
    return INCONCLUSIVE
