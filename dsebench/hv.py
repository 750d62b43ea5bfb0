"""Exact Pareto dominance and hypervolume for small minimisation fronts.

Independent of ``repro.moo``: the benchmark checks the program's fronts
with this code, so it must not share the program's implementation.  All
objectives are minimised.  Fronts hold at most a few dozen points, so the
recursive slicing sweep (exact, O(n^d log n)) is cheap for d <= 3.
"""

from __future__ import annotations

from typing import Sequence

Point = Sequence[float]


def dominates(a: Point, b: Point) -> bool:
    """True when ``a`` is no worse than ``b`` everywhere and better somewhere."""
    return all(x <= y for x, y in zip(a, b)) and any(x < y for x, y in zip(a, b))


def dominated_pairs(points: Sequence[Point]) -> list[tuple[int, int]]:
    """Every (i, j) such that point i dominates point j."""
    return [
        (i, j)
        for i, a in enumerate(points)
        for j, b in enumerate(points)
        if i != j and dominates(a, b)
    ]


def _volume(points: list[tuple[float, ...]], ref: tuple[float, ...]) -> float:
    """Volume dominated by ``points`` and bounded above by ``ref``.

    Every point must be strictly below ``ref`` in every coordinate.
    Slices along the last objective: between consecutive distinct values
    of it, the dominated region is the (d-1)-dimensional region of the
    points already swept, extruded by the slice thickness.
    """
    if not points:
        return 0.0
    if len(ref) == 1:
        return ref[0] - min(p[0] for p in points)
    ordered = sorted(points, key=lambda p: p[-1])
    total = 0.0
    for k, point in enumerate(ordered):
        upper = ordered[k + 1][-1] if k + 1 < len(ordered) else ref[-1]
        if upper > point[-1]:
            swept = [p[:-1] for p in ordered[: k + 1]]
            total += _volume(swept, ref[:-1]) * (upper - point[-1])
    return total


def hypervolume_ratio(
    points: Sequence[Point], lower: Point, upper: Point
) -> float:
    """Share of the box [lower, upper] that the front dominates.

    Points are clipped to the box from below; a point not strictly below
    ``upper`` in every coordinate dominates no part of the box.  The box
    must have positive extent in every coordinate.
    """
    if len(lower) != len(upper) or any(lo >= hi for lo, hi in zip(lower, upper)):
        raise ValueError(f"bad reference box {lower!r} .. {upper!r}")
    inside = [
        tuple(max(float(x), lo) for x, lo in zip(p, lower))
        for p in points
        if all(float(x) < hi for x, hi in zip(p, upper))
    ]
    box = 1.0
    for lo, hi in zip(lower, upper):
        box *= hi - lo
    return _volume(inside, tuple(float(u) for u in upper)) / box
