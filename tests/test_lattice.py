"""Visible-point enumeration and multiplier decomposition tests."""

import itertools
import math

import pytest

from vpvlab import DomainError, decompose, visible_points


def test_smallest_caps():
    assert list(visible_points(2, 2)) == [(1, 1)]
    assert list(visible_points(2, 4)) == [
        (1, 1),
        (1, 2),
        (2, 1),
        (1, 3),
        (3, 1),
    ]
    assert list(visible_points(3, 3)) == [(1, 1, 1)]
    assert list(visible_points(3, 4)) == [
        (1, 1, 1),
        (1, 1, 2),
        (1, 2, 1),
        (2, 1, 1),
    ]
    assert list(visible_points(4, 4)) == [(1, 1, 1, 1)]
    for n in (0, 1, True, 2.0):
        with pytest.raises(DomainError):
            list(visible_points(n, 5))


def test_enumeration_order_and_determinism():
    first = list(visible_points(2, 40))
    second = list(visible_points(2, 40))
    assert first == second
    sums = [a + b for a, b in first]
    assert sums == sorted(sums)
    # Within a fixed diagonal, ascending a.
    for d in range(2, 41):
        diag = [a for a, b in first if a + b == d]
        assert diag == sorted(diag)


def test_count_matches_brute_force_filter():
    cap = 1000
    want = sum(
        1
        for a in range(1, cap)
        for b in range(1, cap + 1 - a)
        if math.gcd(a, b) == 1
    )
    got = sum(1 for _ in visible_points(2, cap))
    assert got == want
    cap = 12
    quads = itertools.product(range(1, cap), repeat=4)
    want = sum(1 for p in quads if sum(p) <= cap and math.gcd(*p) == 1)
    assert sum(1 for _ in visible_points(4, cap)) == want


def test_never_yields_hidden_points():
    for a, b in visible_points(2, 60):
        assert math.gcd(a, b) == 1
        assert a + b <= 60
    for a, b, c in visible_points(3, 20):
        assert math.gcd(math.gcd(a, b), c) == 1
        assert a + b + c <= 20
        assert (a, b, c) != (2, 2, 2)


def test_decompose_examples():
    assert decompose(6, 4) == (2, (3, 2))
    assert decompose(7, 7) == (7, (1, 1))
    for k in (1, 5, 12):
        assert decompose(1, k) == (1, (1, k))
    assert decompose(4, 8, 12, 16) == (4, (1, 2, 3, 4))
    for point in ((0, 3), (6,), (2, 2, 0), (True, 2), (2.0, 4)):
        with pytest.raises(DomainError):
            decompose(*point)


def test_partition_property_2d():
    # Forward: every box point factors through a visible point.
    box = 120
    seen = set()
    for m in range(1, box + 1):
        for n in range(1, box + 1):
            g, (a, b) = decompose(m, n)
            assert math.gcd(a, b) == 1
            assert g * a == m
            assert g * b == n
            seen.add((m, n))
    # Reverse: multiples of visible points tile the box exactly once.
    hits = {}
    for a in range(1, box + 1):
        for b in range(1, box + 1):
            if math.gcd(a, b) != 1:
                continue
            k = 1
            while k * a <= box and k * b <= box:
                pt = (k * a, k * b)
                hits[pt] = hits.get(pt, 0) + 1
                k += 1
    assert set(hits) == seen
    assert all(c == 1 for c in hits.values())


def test_partition_property_3d():
    box = 24
    for m in range(1, box + 1):
        for n in range(1, box + 1):
            for p in range(1, box + 1):
                g, (a, b, c) = decompose(m, n, p)
                assert math.gcd(math.gcd(a, b), c) == 1
                assert (g * a, g * b, g * c) == (m, n, p)


def test_visible_density_tends_to_six_over_pi_squared():
    n = 600
    count = sum(
        1 for a in range(1, n + 1) for b in range(1, n + 1) if math.gcd(a, b) == 1
    )
    ratio = count / n**2
    assert abs(ratio - 6 / math.pi**2) <= 0.02
