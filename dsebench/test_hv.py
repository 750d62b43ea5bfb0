"""Hand-computed boxes for the benchmark's exact hypervolume code.

Run with ``python3 -m pytest dsebench/test_hv.py`` (or
``python3 dsebench/test_hv.py``).
"""

from __future__ import annotations

import itertools
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from hv import dominated_pairs, dominates, hypervolume_ratio  # noqa: E402


def close(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-12 * max(1.0, abs(a), abs(b))


def test_single_point_is_a_box():
    # 2-D: the point (1, 2) in [0,4]x[0,5] dominates [1,4]x[2,5] = 3*3.
    assert close(hypervolume_ratio([(1, 2)], (0, 0), (4, 5)), 9 / 20)
    # 3-D: (1, 1, 1) in the unit-2 cube dominates a 1x1x1 box of 8.
    assert close(hypervolume_ratio([(1, 1, 1)], (0, 0, 0), (2, 2, 2)), 1 / 8)


def test_two_overlapping_boxes_2d():
    # (1, 3) -> [1,4]x[3,4] = 3; (2, 1) -> [2,4]x[1,4] = 6; overlap
    # [2,4]x[3,4] = 2; union = 7 of a 4x4 box.
    assert close(hypervolume_ratio([(1, 3), (2, 1)], (0, 0), (4, 4)), 7 / 16)


def test_staircase_3d():
    # Unit cube reference 3; points on a staircase:
    # a=(0,2,2) -> 3x1x1 = 3, b=(2,0,2) -> 1x3x1 = 3, c=(2,2,0) -> 1x1x3 = 3;
    # pairwise overlaps are the single cell [2,3]^3 = 1, triple overlap 1.
    # Union = 9 - 3 + 1 = 7 of 27.
    front = [(0, 2, 2), (2, 0, 2), (2, 2, 0)]
    assert close(hypervolume_ratio(front, (0, 0, 0), (3, 3, 3)), 7 / 27)


def test_dominated_and_outside_points_add_nothing():
    base = hypervolume_ratio([(1, 1, 1)], (0, 0, 0), (2, 2, 2))
    with_extra = hypervolume_ratio(
        [(1, 1, 1), (1.5, 1.5, 1.5), (0, 0, 3), (-1, 5, 0)],
        (0, 0, 0),
        (2, 2, 2),
    )
    assert close(base, with_extra)


def test_points_below_the_box_are_clipped():
    # (-5, -5) clips to the lower corner: the whole box is dominated.
    assert close(hypervolume_ratio([(-5, -5)], (0, 0), (1, 1)), 1.0)
    assert hypervolume_ratio([], (0, 0), (1, 1)) == 0.0


def test_matches_grid_count_on_integer_fronts():
    # On integer coordinates the dominated volume is the number of unit
    # cells [c, c+1) whose lower corner some point weakly dominates.
    rng = random.Random(7)
    for _ in range(40):
        front = [tuple(rng.randrange(0, 5) for _ in range(3)) for _ in range(6)]
        cells = sum(
            1
            for c in itertools.product(range(5), repeat=3)
            if any(all(p[k] <= c[k] for k in range(3)) for p in front)
        )
        assert close(hypervolume_ratio(front, (0, 0, 0), (5, 5, 5)), cells / 125)


def test_dominance():
    assert dominates((1, 2), (1, 3))
    assert not dominates((1, 3), (1, 3))
    assert not dominates((0, 4), (1, 3))
    assert dominated_pairs([(1, 2), (2, 1), (2, 2)]) == [(0, 2), (1, 2)]


if __name__ == "__main__":
    for name, fn in sorted(globals().items()):
        if name.startswith("test_") and callable(fn):
            fn()
    print("ok")
