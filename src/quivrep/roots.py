"""Positive real roots, the fundamental imaginary cone, and classification
of integer vectors as roots."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import InconclusiveError, InvalidParameterError, ResourceGuardError
from .quiver import (
    IntVector,
    Quiver,
    _graph_components,
    check_int,
    check_vector,
    euler_form,
    unit_vector,
)
from .weyl import POSITIVE_ROOT_GUARD, RootTuple, simple_pairing, simple_reflection


class RootClass(Enum):
    REAL_POSITIVE = "RealPositive"
    REAL_NEGATIVE = "RealNegative"
    IMAGINARY = "Imaginary"
    NOT_A_ROOT = "NotARoot"


@dataclass(frozen=True)
class RootListing(RootTuple):
    """Positive real roots found up to a height bound, lexicographically
    sorted.  ``complete`` records whether the reflection orbit closed below
    the bound, i.e. whether this is the whole of the positive real roots."""

    complete: bool


# positive_real_roots stops listing once it holds more roots than this.
# Only an off-Dynkin quiver with a large height bound gets there: on K4
# (all six edges) the default bound 50 lists 2,074 roots in 0.03 s, and the
# guard is passed near height 115, after 0.06-0.16 s on a 2-core Xeon;
# height 160 would list 20,272 roots, and the count keeps growing with it.
ROOT_LISTING_GUARD = 10**4


def positive_real_roots(q: Quiver, height_bound: int | None = None) -> RootListing:
    """Orbit of the simple roots under simple reflections, kept while all
    coordinates stay nonnegative and the coordinate sum stays within the
    bound.  On a Dynkin quiver the orbit closes on its own and the listing
    comes back complete.  A Dynkin quiver with more than
    POSITIVE_ROOT_GUARD roots, counted from its type, is refused before any
    reflection; any listing is refused as soon as it would hold more than
    ROOT_LISTING_GUARD roots."""
    if q.is_dynkin and (count := q.dynkin.positive_root_count) > POSITIVE_ROOT_GUARD:
        raise ResourceGuardError(f"{count} positive roots exceed the guard {POSITIVE_ROOT_GUARD}")
    if height_bound is None:
        height_bound = 10 * q.n + 10
    height_bound = check_int(height_bound, "height bound")
    if height_bound < 1:
        raise InvalidParameterError("height bound must be at least 1")
    # The simple roots have height 1, within every admitted bound.
    found: set[IntVector] = {unit_vector(q.n, i) for i in range(1, q.n + 1)}
    frontier = set(found)
    complete = True
    while frontier:
        new: set[IntVector] = set()
        for root in frontier:
            for i in range(1, q.n + 1):
                image = simple_reflection(q, i, root)
                if any(x < 0 for x in image):
                    continue
                if image in found or image in new:
                    continue
                if sum(image) > height_bound:
                    complete = False
                    continue
                new.add(image)
                if len(found) + len(new) > ROOT_LISTING_GUARD:
                    raise ResourceGuardError(
                        f"more than {ROOT_LISTING_GUARD} positive roots up to height {height_bound}"
                    )
        found |= new
        frontier = new
    return RootListing(tuple(sorted(found)), complete)


def _support_connected(q: Quiver, v: IntVector) -> bool:
    support = [i for i in range(1, q.n + 1) if v[i - 1] != 0]
    return len(_graph_components(q, support)) == 1


def in_fundamental_cone(q: Quiver, alpha: IntVector) -> bool:
    """Membership in the fundamental cone of imaginary roots: nonnegative,
    connected support, and (alpha, e_i) <= 0 for every vertex i."""
    check_vector(q, alpha)
    if all(x == 0 for x in alpha):
        raise InvalidParameterError("zero vector has no cone membership")
    if any(x < 0 for x in alpha):
        return False
    if not _support_connected(q, alpha):
        return False
    return all(simple_pairing(q, i, alpha) <= 0 for i in range(1, q.n + 1))


# classify_vector's default and largest step budget.  A step updates the
# pairings at one vertex and its neighbours and takes the least vertex with
# a positive one: about 1.2 us on the Kronecker quiver, so about 0.06 s for
# the budget, and 2 us at 1,000 vertices, after a 0.6 ms first pass over
# them (2-core Xeon).
CLASSIFY_STEP_GUARD = 5 * 10**4


def classify_vector(q: Quiver, alpha: IntVector, search_bound: int | None = None) -> RootClass:
    """Classify an integer vector as a positive/negative real root, an
    imaginary root, or neither.

    Works by height-decreasing minimization: repeatedly reflect at a vertex
    where the pairing with the simple root is positive.  A real root walks
    down to a simple root; an imaginary root bottoms out in the fundamental
    cone; anything that leaves the sign-coherent cones on the way is not a
    root.  Each step lowers the height.  Raises InconclusiveError rather
    than guessing if the step budget, by default CLASSIFY_STEP_GUARD, runs
    out, and ResourceGuardError before any step for a larger one."""
    check_vector(q, alpha)
    if search_bound is None:
        search_bound = CLASSIFY_STEP_GUARD
    search_bound = check_int(search_bound, "search bound")
    if search_bound < 0:
        raise InvalidParameterError("search bound must be nonnegative")
    if search_bound > CLASSIFY_STEP_GUARD:
        raise ResourceGuardError(f"search bound {search_bound} exceeds the guard {CLASSIFY_STEP_GUARD} steps")
    if all(x == 0 for x in alpha):
        return RootClass.NOT_A_ROOT
    if all(x <= 0 for x in alpha):
        # the roots are the positive ones and their negatives, imaginary too
        flipped = classify_vector(q, tuple(-x for x in alpha), search_bound)
        return RootClass.REAL_NEGATIVE if flipped is RootClass.REAL_POSITIVE else flipped
    if any(x < 0 for x in alpha):
        # roots are sign-coherent
        return RootClass.NOT_A_ROOT
    # The pairings (e_i, v), the vertices where they are positive and the
    # height are kept: s_i at d = (e_i, v) > 0 lowers v_i and the height by
    # d, turns (e_i, v) into -d and raises (e_j, v) by a_ij d at each
    # neighbour j, so a step costs the degree of i.
    v, height = list(alpha), sum(alpha)
    pairing = [simple_pairing(q, i, alpha) for i in range(1, q.n + 1)]
    positive = {i for i, c in enumerate(pairing, 1) if c > 0}
    for _ in range(search_bound + 1):
        if height == 1:
            return RootClass.REAL_POSITIVE
        if not positive:
            return RootClass.IMAGINARY if _support_connected(q, v) else RootClass.NOT_A_ROOT
        i = min(positive)  # the first vertex with a positive pairing
        d = pairing[i - 1]
        v[i - 1] -= d
        if v[i - 1] < 0:
            return RootClass.NOT_A_ROOT
        height -= d
        pairing[i - 1] = -d
        positive.remove(i)
        for j, a in q.adjacency[i - 1]:
            pairing[j - 1] += a * d
            if pairing[j - 1] > 0:
                positive.add(j)
    raise InconclusiveError(f"height minimization did not settle within {search_bound} steps")


def is_positive_real_root(q: Quiver, alpha: IntVector) -> bool:
    """Whether alpha is a positive real root.  On a Dynkin quiver these are
    the nonnegative vectors with Tits form <alpha, alpha> = 1 (Gabriel), so
    no root is listed or reflected; elsewhere this asks classify_vector."""
    if not q.is_dynkin:
        return classify_vector(q, alpha) is RootClass.REAL_POSITIVE
    return euler_form(q, alpha, alpha) == 1 and min(alpha) >= 0
