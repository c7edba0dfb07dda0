"""Visible lattice points and the multiplier decomposition.

A lattice point is visible from the origin exactly when its coordinates
are coprime; every positive lattice point is a unique positive integer
multiple of a visible point. The streaming enumerators below define
the point set that the product kernel walks inline (the tests compare
its term counts with them) and are deterministic: ascending coordinate
sum, then ascending earlier coordinates.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Union

from .errors import DomainError


@dataclass(frozen=True)
class VisiblePoint2:
    a: int
    b: int

    def __post_init__(self) -> None:
        if self.a < 1 or self.b < 1:
            raise DomainError(f"coordinates must be positive, got ({self.a}, {self.b})")
        if math.gcd(self.a, self.b) != 1:
            raise DomainError(f"({self.a}, {self.b}) is not visible: gcd > 1")


@dataclass(frozen=True)
class VisiblePoint3:
    a: int
    b: int
    c: int

    def __post_init__(self) -> None:
        if self.a < 1 or self.b < 1 or self.c < 1:
            raise DomainError(
                f"coordinates must be positive, got ({self.a}, {self.b}, {self.c})"
            )
        if math.gcd(math.gcd(self.a, self.b), self.c) != 1:
            raise DomainError(f"({self.a}, {self.b}, {self.c}) is not visible: gcd > 1")


@dataclass(frozen=True)
class Decomposition:
    """point = multiplier * visible, with gcd(visible) = 1."""

    multiplier: int
    visible: Union[VisiblePoint2, VisiblePoint3]


def visible_points_2d(degree_cap: int) -> Iterator[VisiblePoint2]:
    """Yield all visible (a, b) with a + b <= degree_cap.

    Order: ascending a + b, then ascending a. Streaming; nothing is
    materialized.
    """
    if not isinstance(degree_cap, int) or isinstance(degree_cap, bool):
        raise DomainError("degree_cap must be an integer")
    for d in range(2, degree_cap + 1):
        for a in range(1, d):
            b = d - a
            if math.gcd(a, b) == 1:
                yield VisiblePoint2(a, b)


def visible_points_3d(degree_cap: int) -> Iterator[VisiblePoint3]:
    """Yield all visible (a, b, c) with a + b + c <= degree_cap.

    Order: ascending a + b + c, then ascending a, then ascending b.
    """
    if not isinstance(degree_cap, int) or isinstance(degree_cap, bool):
        raise DomainError("degree_cap must be an integer")
    for d in range(3, degree_cap + 1):
        for a in range(1, d - 1):
            for b in range(1, d - a):
                c = d - a - b
                if math.gcd(math.gcd(a, b), c) == 1:
                    yield VisiblePoint3(a, b, c)


def decompose(m: int, n: int) -> Decomposition:
    """Factor a positive lattice point as multiplier x visible point.

    The factorization is unique: the multiplier is gcd(m, n).
    """
    _require_positive_int(m, "m")
    _require_positive_int(n, "n")
    g = math.gcd(m, n)
    return Decomposition(g, VisiblePoint2(m // g, n // g))


def decompose3(m: int, n: int, p: int) -> Decomposition:
    """3D analog of decompose: multiplier is gcd(m, n, p)."""
    _require_positive_int(m, "m")
    _require_positive_int(n, "n")
    _require_positive_int(p, "p")
    g = math.gcd(math.gcd(m, n), p)
    return Decomposition(g, VisiblePoint3(m // g, n // g, p // g))


def _require_positive_int(v: int, name: str) -> None:
    if not isinstance(v, int) or isinstance(v, bool) or v < 1:
        raise DomainError(f"{name} must be a positive integer, got {v!r}")
