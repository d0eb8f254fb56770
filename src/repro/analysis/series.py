"""Time-series helpers for experiment output."""

from __future__ import annotations

from typing import Sequence

_SPARK_LEVELS = " .:-=+*#%@"


def downsample(series: Sequence[float], max_points: int) -> list[float]:
    """Reduce a series to at most ``max_points`` by bucket-averaging."""
    if max_points <= 0:
        raise ValueError("max_points must be positive")
    n = len(series)
    if n <= max_points:
        return list(series)
    result = []
    for bucket in range(max_points):
        start = bucket * n // max_points
        end = max(start + 1, (bucket + 1) * n // max_points)
        chunk = series[start:end]
        result.append(sum(chunk) / len(chunk))
    return result


def ascii_sparkline(series: Sequence[float], width: int = 60) -> str:
    """A one-line ASCII rendering of a series (for benchmark logs)."""
    if not series:
        return ""
    values = downsample(list(series), width)
    low = min(values)
    high = max(values)
    span = high - low
    if span == 0:
        return _SPARK_LEVELS[0] * len(values)
    chars = []
    for value in values:
        level = int((value - low) / span * (len(_SPARK_LEVELS) - 1))
        chars.append(_SPARK_LEVELS[level])
    return "".join(chars)
