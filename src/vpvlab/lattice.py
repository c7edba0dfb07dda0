"""Visible lattice points and the multiplier decomposition, in any
dimension n >= 2.

A lattice point is visible from the origin exactly when its coordinates
are coprime; every positive lattice point is a unique positive integer
multiple of a visible point. The streaming enumerator below yields the
diagonal region a_1 + ... + a_n <= degree_cap, which is the product
kernel's point set only at equal moduli (the kernel truncates on
decay-weighted coordinates; see products.product_log_sum). Its order is
deterministic: ascending coordinate sum, then ascending earlier
coordinates.

The enumerator walks the heads a_1, ..., a_(n-2) in Python and produces
the last two coordinates of each head's row with C-level iterators: for a
head with gcd g and remaining sum r, the row is the pairs (a, r - a) for
a = 1, ..., r - 1, and the point is visible exactly when
gcd(gcd(g, r), a) = 1, since gcd(a, r - a) = gcd(a, r). A row with
gcd(g, r) = 1 keeps every pair; any other is filtered by one compress.
"""
from __future__ import annotations

import math
from functools import partial
from itertools import chain, compress, repeat
from operator import eq
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

    def rows(k, g, r, head):
        # head holds the leading coordinates and g their gcd; k >= 2
        # coordinates are left to place, summing to r, each at least 1
        if k == 2:
            yield gcd(g, r), r, head
            return
        for a in range(1, r - k + 2):
            yield from rows(k - 1, gcd(g, a), r - a, head + (a,))

    def row(h, r, head):
        pairs = zip(range(1, r), range(r - 1, 0, -1))
        if h != 1:
            pairs = compress(pairs, map(eq, map(gcd, repeat(h), range(1, r)), repeat(1)))
        return map(head.__add__, pairs) if head else pairs

    return chain.from_iterable(row(h, r, head) for d in range(n, degree_cap + 1)
                               for h, r, head in rows(n, 0, d, ()))


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
