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
    check_vector,
    euler_form,
    sym_form,
    unit_vector,
)
from .weyl import RootTuple, simple_pairing, simple_reflection


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


# positive_real_roots and linrep.DynkinCategory refuse Dynkin quivers with
# more roots than this.  The listing reflects every root at every vertex,
# about n^4 steps on linear A_n: the guard admits E8 (120 roots), linear A44
# (990 roots, 0.12 s on a 2-core Xeon) and every quiver without arrows.
POSITIVE_ROOT_GUARD = 1000

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
    if q.is_dynkin and q.dynkin.positive_root_count > POSITIVE_ROOT_GUARD:
        raise ResourceGuardError(
            f"{q.dynkin.positive_root_count} positive roots exceed the guard {POSITIVE_ROOT_GUARD}"
        )
    if height_bound is None:
        height_bound = 10 * q.n + 10
    if height_bound < 1:
        raise InvalidParameterError("height bound must be at least 1")
    found: set[IntVector] = set()
    frontier: set[IntVector] = set()
    complete = True
    for i in range(1, q.n + 1):
        e = unit_vector(q.n, i)
        if sum(e) <= height_bound:
            found.add(e)
            frontier.add(e)
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
    return all(sym_form(q, alpha, unit_vector(q.n, i)) <= 0 for i in range(1, q.n + 1))


# classify_vector's default and largest step budget.  A step scans the
# vertices for a positive pairing: 4-6 us on the Kronecker quiver, so about
# 0.3 s for the budget, and 0.4 ms at 1,000 vertices (2-core Xeon).
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
    v = alpha
    for _ in range(search_bound + 1):
        if sum(v) == 1:
            return RootClass.REAL_POSITIVE
        drop = next((i for i in range(1, q.n + 1) if simple_pairing(q, i, v) > 0), None)
        if drop is None:
            return RootClass.IMAGINARY if _support_connected(q, v) else RootClass.NOT_A_ROOT
        v = simple_reflection(q, drop, v)
        if any(x < 0 for x in v):
            return RootClass.NOT_A_ROOT
    raise InconclusiveError(f"height minimization did not settle within {search_bound} steps")


def is_positive_real_root(q: Quiver, alpha: IntVector) -> bool:
    """Whether alpha is a positive real root.  On a Dynkin quiver these are
    the nonnegative vectors with Tits form <alpha, alpha> = 1 (Gabriel), so
    no root is listed or reflected; elsewhere this asks classify_vector."""
    if not q.is_dynkin:
        return classify_vector(q, alpha) is RootClass.REAL_POSITIVE
    return euler_form(q, alpha, alpha) == 1 and min(alpha) >= 0
