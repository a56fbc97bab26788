"""Seeded inputs of the benchmark workloads, written as the CSV files the CLI reads.

Every workload uses d = 2 and the `product` target x1 * x2.  Coordinates are
50-bit dyadic rationals (as `ksnet bench` draws them) unless stated
otherwise; cells are written in the exact p/q syntax the CLI parses.
"""

from __future__ import annotations

import csv
import itertools
import random
from fractions import Fraction

D = 2
GAMMA = 6

# fit_scatter: 24 of the 1200 points are near-twins of another point.  They
# differ by 6**-40 in one coordinate, so the first 30 base-6 digits of every
# branch value agree (a collision at depth 30) and the depth-60 retry
# separates them: exactly one retry.
SCATTER_N = 1200
SCATTER_TWINS = 24
TWIN_OFFSET = Fraction(1, GAMMA**40)

GRID_LEVEL = 2


def _dyadic(rng: random.Random) -> Fraction:
    return Fraction(rng.getrandbits(50), 2**50)


def _distinct_points(rng: random.Random, n: int, taken=frozenset()) -> list[tuple[Fraction, ...]]:
    points: list[tuple[Fraction, ...]] = []
    seen = set(taken)
    while len(points) < n:
        p = tuple(_dyadic(rng) for _ in range(D))
        if p not in seen:
            seen.add(p)
            points.append(p)
    return points


def target(point) -> Fraction:
    return point[0] * point[1]


def scatter_points(rng: random.Random) -> list[tuple[Fraction, ...]]:
    base = _distinct_points(rng, SCATTER_N - SCATTER_TWINS)
    twins = []
    for p in rng.sample(base, SCATTER_TWINS):
        c = rng.randrange(D)
        moved = p[c] + TWIN_OFFSET if p[c] + TWIN_OFFSET <= 1 else p[c] - TWIN_OFFSET
        twins.append(p[:c] + (moved,) + p[c + 1:])
    points = base + twins
    rng.shuffle(points)
    return points


def grid_points(rng: random.Random) -> list[tuple[Fraction, ...]]:
    """The full level-2 grid; the seed only fixes the row order."""
    scale = GAMMA**GRID_LEVEL
    axis = [Fraction(j, scale) for j in range(scale + 1)]
    points = list(itertools.product(axis, repeat=D))
    rng.shuffle(points)
    return points


def queries(rng: random.Random, samples, fresh: int, hits: int):
    """`fresh` new random points plus `hits` fitted sample points, shuffled.

    Returns the query points and {row index: exact target} for the rows that
    are fitted sample points, where exact evaluation must return the target.
    """
    chosen = set(rng.sample(range(len(samples)), hits))
    rows = [(p, None) for p in _distinct_points(rng, fresh, taken=frozenset(samples))]
    rows += [(samples[j], target(samples[j])) for j in sorted(chosen)]
    rng.shuffle(rows)
    points = [p for p, _ in rows]
    expected = {i: t for i, (_, t) in enumerate(rows) if t is not None}
    return points, expected


def write_samples(path, points) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{p + 1}" for p in range(D)] + ["f"])
        for point in points:
            writer.writerow([str(c) for c in point] + [str(target(point))])


def write_points(path, points) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{p + 1}" for p in range(D)])
        for point in points:
            writer.writerow([str(c) for c in point])
