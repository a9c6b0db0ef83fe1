"""Shared quiver builders and independent brute-force oracles.

The oracles deliberately avoid the library's own enumeration code paths:
they walk orbits and groups with plain set closures so that library results
can be checked against a second computation.
"""

from __future__ import annotations

import itertools

import pytest

from quivrep.quiver import Quiver, orientations, unit_vector
from quivrep.weyl import simple_reflection


# -- quiver builders ---------------------------------------------------------

A2_LEFT = Quiver(2, ((2, 1),))  # 1 <- 2, realizes c = s1 s2
A2_RIGHT = Quiver(2, ((1, 2),))  # 1 -> 2
KRONECKER = Quiver(2, ((1, 2), (1, 2)))

A3_123 = Quiver(3, ((1, 2), (2, 3)))  # 1 -> 2 -> 3
A3_MID_SINK = Quiver(3, ((1, 2), (3, 2)))  # 1 -> 2 <- 3
A3_MID_SOURCE = Quiver(3, ((2, 1), (2, 3)))  # 1 <- 2 -> 3
A3_321 = Quiver(3, ((2, 1), (3, 2)))  # 1 <- 2 <- 3


def path_orientations(n: int) -> list[Quiver]:
    """All 2^(n-1) orientations of the path 1 - 2 - ... - n, all arrows
    k -> k+1 first."""
    return orientations(n, tuple((k, k + 1) for k in range(1, n)))


def d4_orientations() -> list[Quiver]:
    """All 8 orientations of the 3-legged star on 4 vertices (center 4),
    all arrows out of the center first."""
    return orientations(4, ((4, 1), (4, 2), (4, 3)))


# -- independent oracles -----------------------------------------------------


def orbit_positive_roots(q: Quiver, height_bound: int) -> set[tuple[int, ...]]:
    """Positive-root orbit by repeated full sweeps until nothing changes."""
    roots = {unit_vector(q.n, i) for i in range(1, q.n + 1)}
    while True:
        fresh = set()
        for r in roots:
            for i in range(1, q.n + 1):
                img = simple_reflection(q, i, r)
                if min(img) >= 0 and sum(img) <= height_bound and img not in roots:
                    fresh.add(img)
        if not fresh:
            return roots
        roots |= fresh


def group_elements_by_matrix(q: Quiver, max_length: int | None = None):
    """All group elements as {matrix: shortest word}, by breadth-first search
    over right multiplication by generators."""
    from quivrep.weyl import _identity_matrix, _mat_mul, simple_reflection_matrix

    gens = [simple_reflection_matrix(q, i) for i in range(1, q.n + 1)]
    start = _identity_matrix(q.n)
    elements = {start: ()}
    frontier = [start]
    depth = 0
    while frontier and (max_length is None or depth < max_length):
        depth += 1
        nxt = []
        for m in frontier:
            word = elements[m]
            for i, g in enumerate(gens, start=1):
                prod = _mat_mul(m, g)
                if prod not in elements:
                    elements[prod] = word + (i,)
                    nxt.append(prod)
        frontier = nxt
    return elements


def all_words(n: int, max_length: int):
    for length in range(max_length + 1):
        yield from itertools.product(range(1, n + 1), repeat=length)


@pytest.fixture
def rng():
    import random

    return random.Random(20240811)
