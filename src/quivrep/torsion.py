"""Finite torsion-free classes and their correspondence with c-sortable
elements.

A torsion-free class is stored extensionally, as the set of dimension
vectors (positive real roots) of its indecomposable members; on a Dynkin
quiver this determines the subcategory.  The membership oracle checks both
closure conditions by brute force: every subrepresentation of every member
indecomposable, and every middle term of every ordered pair of members,
must decompose back into members.  Closure under subobjects of direct sums
follows from these two legs by the usual image/kernel filtration argument,
which the test suite exercises by sampling.

Enumeration is a breadth-first search over closures from the empty class,
adding one root per step.  It reaches every class U: adding U's members one
at a time, each closure stays inside the closed set U and the last is U.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from functools import cached_property

from .errors import (
    InternalInvariantError,
    NotSortableError,
    NotTorsionFreeError,
    QuiverMismatchError,
    ResourceGuardError,
    UnsupportedScopeError,
)
from .linrep import F2, DynkinCategory, FieldSpec, dynkin_category
from .quiver import (
    IntVector,
    Quiver,
    delete_vertex,
    drop_coordinate,
    mutate_at,
    unit_vector,
)
from .roots import RootClass, classify_vector
from .weyl import (
    WeylElement,
    coxeter_of_quiver,
    enumerate_c_sortable,
    identity_element,
    inversion_set,
    is_c_sortable,
    simple_reflection,
    weyl_element,
)


@dataclass(frozen=True)
class TorsionFreeClass:
    """A finite set of positive real roots naming the indecomposables of a
    torsion-free subcategory."""

    quiver: Quiver
    field: FieldSpec
    indec_roots: frozenset[IntVector]

    def __post_init__(self) -> None:
        object.__setattr__(self, "indec_roots", frozenset(tuple(int(x) for x in r) for r in self.indec_roots))
        for root in self.indec_roots:
            if classify_vector(self.quiver, root) is not RootClass.REAL_POSITIVE:
                raise NotTorsionFreeError(f"{root} is not a positive real root")

    @cached_property
    def sorted_roots(self) -> tuple[IntVector, ...]:
        return tuple(sorted(self.indec_roots))

    def __len__(self) -> int:
        return len(self.indec_roots)

    def __contains__(self, root: IntVector) -> bool:
        return root in self.indec_roots


def tfc_of_sortable(q: Quiver, w: WeylElement, field: FieldSpec = F2) -> TorsionFreeClass:
    """The torsion-free class of a c-sortable element: the indecomposables
    whose dimension vectors are the inversions of w."""
    if not is_c_sortable(q, w):
        raise NotSortableError("element is not sortable for this quiver's Coxeter element")
    roots = frozenset(inversion_set(q, w.word).roots)
    return TorsionFreeClass(q, field, roots)


def sortable_of_tfc(q: Quiver, tfc: TorsionFreeClass, check: bool = False) -> WeylElement:
    """The c-sortable element whose inversion set is the class.

    Mirrors the inductive structure of torsion-free classes: at the first
    sink i of the Coxeter order, either the simple root e_i is absent and
    the class lives on the vertex-deleted quiver, or it is present and the
    reflected class (drop e_i, apply s_i) recurses on the mutated quiver
    with s_i prepended.
    """
    if tfc.quiver != q:
        raise QuiverMismatchError("class does not live on the given quiver")
    if check and not is_torsion_free_class(q, tfc):
        raise NotTorsionFreeError("root set fails the closure oracle")
    return _sortable_from_roots(q, tfc.indec_roots)


def _sortable_from_roots(q: Quiver, roots: frozenset[IntVector]) -> WeylElement:
    if not roots:
        return identity_element(q)
    i = coxeter_of_quiver(q)[0]
    e_i = unit_vector(q.n, i)
    if e_i not in roots:
        if any(r[i - 1] != 0 for r in roots):
            raise InternalInvariantError(
                f"simple root e_{i} missing but the class touches vertex {i}"
            )
        q2 = delete_vertex(q, i)
        w2 = _sortable_from_roots(q2, frozenset(drop_coordinate(r, i) for r in roots))
        word = tuple(j if j < i else j + 1 for j in w2.word)
        return weyl_element(q, word)
    reflected = set()
    for r in roots:
        if r == e_i:
            continue
        img = simple_reflection(q, i, r)
        if any(x < 0 for x in img):
            raise InternalInvariantError(f"member {r} reflected negative at the sink {i}")
        reflected.add(img)
    if len(reflected) != len(roots) - 1:
        raise InternalInvariantError("reflection at the sink collapsed two members")
    w2 = _sortable_from_roots(mutate_at(q, i), frozenset(reflected))
    w = weyl_element(q, (i,) + w2.word)
    if w.length != w2.length + 1:
        raise InternalInvariantError("prepending the sink reflection failed to lengthen")
    return w


# -- the brute-force oracle ----------------------------------------------------

# enumerate_tfc refuses quivers with more positive roots than this (D5 has
# 20), because the requirement tables of E6 (36 roots) take minutes to build.
TFC_ROOT_GUARD = 20


def is_torsion_free_class(q: Quiver, tfc: TorsionFreeClass) -> bool:
    """Brute-force closure oracle.

    Subrepresentation leg: every subrepresentation of a member
    indecomposable decomposes into members.  Extension leg: every middle
    term over every ordered member pair (self-pairs included) decomposes
    into members.
    """
    if tfc.quiver != q:
        raise QuiverMismatchError("class does not live on the given quiver")
    cat = dynkin_category(q, tfc.field)
    roots = tfc.indec_roots
    return all(cat.subrep_requirements(r) <= roots for r in roots) and all(
        cat.extension_requirements(x, z) <= roots for x, z in itertools.product(roots, repeat=2)
    )


def _closure(cat: DynkinCategory, closed: frozenset[IntVector], root: IntVector) -> frozenset:
    """Smallest closed root set containing ``closed`` (already closed) and
    ``root``: each added root brings in its requirements against every member."""
    members = set(closed) | {root}
    work = [root]
    while work:
        r = work.pop()
        need = set(cat.subrep_requirements(r))
        for s in members:
            need |= cat.extension_requirements(r, s) | cat.extension_requirements(s, r)
        need -= members
        members |= need
        work.extend(need)
    return frozenset(members)


def enumerate_tfc(q: Quiver, field: FieldSpec = F2) -> list[TorsionFreeClass]:
    """All torsion-free classes, by breadth-first search from the empty
    class; each step closes a class with one more root added.  Every class
    U = {u_1..u_k} is reached: T_j = close(T_{j-1} + u_j) stays inside U,
    which is closed and contains T_{j-1} + u_j, and T_k contains all of U."""
    cat = dynkin_category(q, field)
    if len(cat.roots) > TFC_ROOT_GUARD:
        raise ResourceGuardError(
            f"{len(cat.roots)} indecomposables exceed the guard {TFC_ROOT_GUARD}"
        )
    seen = {frozenset()}
    queue = deque(seen)
    while queue:
        closed = queue.popleft()
        grown = {_closure(cat, closed, r) for r in cat.roots if r not in closed} - seen
        seen |= grown
        queue.extend(grown)
    out = [TorsionFreeClass(q, field, roots) for roots in seen]
    out.sort(key=lambda c: (len(c), c.sorted_roots))
    return out


# -- bijection verification -----------------------------------------------------


@dataclass(frozen=True)
class BijectionReport:
    """Outcome of checking the sortable <-> torsion-free correspondence on
    one quiver: counts on both sides, injectivity and image checks for the
    inversion-set map, and the round trip through the inverse map."""

    quiver: Quiver
    field: FieldSpec
    sortable_count: int
    tfc_count: int
    counts_equal: bool
    image_in_classes: bool
    injective: bool
    round_trip: bool
    rows: tuple[tuple[tuple[int, ...], tuple[IntVector, ...]], ...]
    gaps: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return (
            not self.gaps
            and self.counts_equal
            and self.image_in_classes
            and self.injective
            and self.round_trip
        )

    def to_json(self) -> dict:
        return {
            "quiver": {"n": self.quiver.n, "arrows": [[s, t] for s, t in self.quiver.arrows]},
            "field": self.field.p,
            "sortable_count": self.sortable_count,
            "tfc_count": self.tfc_count,
            "counts_equal": self.counts_equal,
            "image_in_classes": self.image_in_classes,
            "injective": self.injective,
            "round_trip": self.round_trip,
            "pass": self.passed,
            "rows": [
                {"word": list(word), "roots": [list(r) for r in roots]}
                for word, roots in self.rows
            ],
            "gaps": list(self.gaps),
        }


def verify_bijection(q: Quiver, field: FieldSpec = F2) -> BijectionReport:
    """Check the sortable/torsion-free bijection on one quiver.

    Verifies that the inversion-set map is injective on sortables, lands in
    the enumerated classes, inverts through sortable_of_tfc, and that both
    enumerations have the same size.  Scope and guard failures become
    entries in ``gaps`` instead of exceptions, leaving a partial report.
    """
    gaps: list[str] = []
    sortables: list[WeylElement] = []
    classes: list[TorsionFreeClass] = []
    try:
        sortables = enumerate_c_sortable(q)
    except (UnsupportedScopeError, ResourceGuardError) as exc:
        gaps.append(f"sortable enumeration unavailable: {exc}")
    try:
        classes = enumerate_tfc(q, field)
    except (UnsupportedScopeError, ResourceGuardError) as exc:
        gaps.append(f"torsion-free enumeration unavailable: {exc}")

    rows = []
    image_in_classes = injective = round_trip = bool(not gaps)
    if not gaps:
        class_sets = {c.indec_roots for c in classes}
        seen: dict[frozenset[IntVector], WeylElement] = {}
        for w in sortables:
            tfc = tfc_of_sortable(q, w, field)
            rows.append((w.word, tfc.sorted_roots))
            if tfc.indec_roots not in class_sets:
                image_in_classes = False
            if tfc.indec_roots in seen:
                injective = False
            seen[tfc.indec_roots] = w
            if sortable_of_tfc(q, tfc) != w:
                round_trip = False
    return BijectionReport(
        quiver=q,
        field=field,
        sortable_count=len(sortables),
        tfc_count=len(classes),
        counts_equal=not gaps and len(sortables) == len(classes),
        image_in_classes=image_in_classes,
        injective=injective,
        round_trip=round_trip,
        rows=tuple(rows),
        gaps=tuple(gaps),
    )


def tfc_to_json(tfc: TorsionFreeClass) -> dict:
    return {
        "quiver": {"n": tfc.quiver.n, "arrows": [[s, t] for s, t in tfc.quiver.arrows]},
        "roots": [list(r) for r in tfc.sorted_roots],
    }


def tfc_from_json(data: object, field: FieldSpec = F2) -> TorsionFreeClass:
    from .errors import InputFormatError
    from .quiver import quiver_from_json

    if not isinstance(data, dict) or "quiver" not in data or "roots" not in data:
        raise InputFormatError('class JSON must be {"quiver": ..., "roots": [[...], ...]}')
    q = quiver_from_json(data["quiver"])
    try:
        roots = frozenset(tuple(int(x) for x in r) for r in data["roots"])
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputFormatError(f"malformed class JSON: {exc}") from exc
    return TorsionFreeClass(q, field, roots)
