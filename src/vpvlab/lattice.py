"""Visible lattice points and the multiplier decomposition, in any
dimension n >= 2.

A lattice point is visible from the origin exactly when its coordinates
are coprime; every positive lattice point is a unique positive integer
multiple of a visible point. The streaming enumerator below defines
the point set that the product kernel walks inline (the tests compare
its term counts with it) and is deterministic: ascending coordinate
sum, then ascending earlier coordinates.
"""
from __future__ import annotations

import math
from functools import partial
from typing import Iterator

from .errors import DomainError


def visible_points(n: int, degree_cap: int) -> Iterator[tuple[int, ...]]:
    """Yield all visible (a_1, ..., a_n) with a_1 + ... + a_n <= degree_cap.

    Order: ascending coordinate sum, then ascending a_1, then ascending
    a_2, and so on. Streaming; nothing is materialized.
    """
    if not isinstance(n, int) or isinstance(n, bool) or n < 2:
        raise DomainError(f"dimension must be an integer >= 2, got {n!r}")
    if not isinstance(degree_cap, int) or isinstance(degree_cap, bool):
        raise DomainError("degree_cap must be an integer")
    gcd = math.gcd

    def points(k, g, r, head):
        # head holds the leading coordinates and g their gcd; k coordinates
        # are left to place, summing to r, each at least 1
        if k == 1:
            if gcd(g, r) == 1:
                yield head + (r,)
            return
        for a in range(1, r - k + 2):
            yield from points(k - 1, gcd(g, a), r - a, head + (a,))

    for d in range(n, degree_cap + 1):
        yield from points(n, 0, d, ())


# bench/run.py enumerates and counts points through these two names;
# ROADMAP item 1 frees them.
visible_points_2d = partial(visible_points, 2)
visible_points_3d = partial(visible_points, 3)


def decompose(*point: int) -> tuple[int, tuple[int, ...]]:
    """Factor a positive lattice point as (multiplier, visible point).

    The factorization is unique: the multiplier is the gcd of the
    coordinates.
    """
    if len(point) < 2:
        raise DomainError(f"a lattice point needs at least 2 coordinates, got {point!r}")
    for v in point:
        if not isinstance(v, int) or isinstance(v, bool) or v < 1:
            raise DomainError(f"coordinates must be positive integers, got {point!r}")
    g = math.gcd(*point)
    return g, tuple(v // g for v in point)
