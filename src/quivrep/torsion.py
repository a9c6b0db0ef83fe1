"""Finite torsion-free classes and their correspondence with c-sortable
elements.

A torsion-free class is stored extensionally, as the set of dimension
vectors (positive real roots) of its indecomposable members; on a Dynkin
quiver this determines the subcategory.  The membership oracle checks on
tables, not by brute force, both closure conditions: every subrepresentation
of every member indecomposable, and every middle term of every ordered pair
of members, must decompose back into members.  Closure under subobjects of
direct sums follows from these two legs by the usual image/kernel
filtration argument, which the test suite exercises by sampling.

The legs are tables of the DynkinCategory (see quivrep.linrep), filled
once per category.  The subrepresentation leg of a member M is the set of
indecomposables with an injective map into M, which are exactly the
summands of its subrepresentations.  The extension leg of a pair always
holds the pair itself, the summands of the split middle term, which
enumerate_extensions yields first; only the other classes are walked,
and only where the Euler form leaves Ext^1 nonzero.  No middle term is
built: each summand count comes from the connecting map of the long exact
sequence of Hom(I_b, -) (DynkinCategory.extension_masks).

Enumeration reads neither leg: it is a breadth-first search over the
torsion classes T = ⊥F of the torsion pairs (⊥F, F), with F = T^⊥, on the
Hom table's support (_class_masks, which pins why it reaches every class).
The legs then check every class found (_closed, is_torsion_free_class's
mask test), so the oracle stays independent of the search; a class one
root larger than a class already checked is checked on its new root only.
Both work on int masks over the root indices of the quiver's root record
(weyl.dynkin_roots), with the extension requirements of a pair taken both
ways round.  Classes come out as TorsionFreeClass root sets.  The
constructor checks every member and builds no category: on Dynkin type by
a lookup in the record's root index, which by Gabriel's theorem is exactly
the set of nonnegative vectors with Tits form 1, kept as the record's own
tuple, which the Weyl walks and categories on the quiver share; where weyl
lists no roots (off Dynkin type or past its root guard), by
roots.is_positive_real_root.  tfc_of_sortable keeps its walk's roots
unchecked: each is the positive prefix root of a reduced word, and a
listed element's are the record's own tuples.

A c-sortable element maps to the class of its inversions; back, one walk
along c^oo (weyl.sorting_element) spells the c-sorting word of a class.  A
TorsionFreeClass holds the element this walk spells, computed once:
sortable_of_tfc returns it, and tfc_of_sortable stores the one that
weyl.c_sorting_element hands back: for an element that
weyl.enumerate_c_sortable listed on a quiver with a root record, the
element itself, with the roots of the inversion mask its listing kept and
no walk; for any other, the sortability decision, one walk along the
element's word and a test on its letters.
verify_bijection builds no class object and no element and works on int
masks: the sortables come from one tree walk (weyl.sortable_masks), each
leaf its c-sorting word with the mask of its inversions, and
weyl.sorting_words walks every class mask back at once, the group of
masks splitting on one bit test at each letter, so the round trip runs
the inverse walk itself and compares c-sorting words.  It makes no
separate sortability decision: the round trip certifies it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import (
    InputFormatError,
    InternalInvariantError,
    NotSortableError,
    NotTorsionFreeError,
    QuiverMismatchError,
    ResourceGuardError,
    UnsupportedScopeError,
)
from .linalg import bits, selected
from .linrep import F2, DynkinCategory, FieldSpec, dynkin_category
from .quiver import IntVector, Quiver, json_int, quiver_from_json, quiver_to_json
from .roots import is_positive_real_root
from .weyl import (
    SORTABLE_GUARD,
    Word,
    WeylElement,
    c_sorting_element,
    dynkin_roots,
    root_record,
    sortable_masks,
    sorting_element,
    sorting_words,
)


@dataclass(frozen=True)
class TorsionFreeClass:
    """A finite set of positive real roots naming the indecomposables of a
    torsion-free subcategory, each checked unless a walk proved it (module
    docstring)."""

    quiver: Quiver
    field: FieldSpec
    indec_roots: frozenset[IntVector]

    def __post_init__(self) -> None:
        record = root_record(self.quiver)  # its index: by Gabriel, the vectors >= 0 with Tits form 1
        shared, listed = (record.roots, record.index) if record is not None else ((), {})
        members = []
        for r in self.indec_roots:
            if (k := listed.get(r)) is not None:  # one tuple per root, shared by every class
                members.append(shared[k])
            elif is_positive_real_root(self.quiver, root := tuple(map(int, r))):
                members.append(root)
            else:
                raise NotTorsionFreeError(f"{root} is not a positive real root")
        object.__setattr__(self, "indec_roots", frozenset(members))

    @cached_property
    def sorted_roots(self) -> tuple[IntVector, ...]:
        return tuple(sorted(self.indec_roots))

    @cached_property
    def sorting_element(self) -> WeylElement:
        """The element spelled by the c-sorting walk over the members,
        stopped at len(self) letters; shorter than that exactly when the
        roots are not a class.  Walked once per class object."""
        return sorting_element(self.quiver, self.indec_roots)

    def __len__(self) -> int:
        return len(self.indec_roots)

    def __contains__(self, root: IntVector) -> bool:
        return root in self.indec_roots


def tfc_of_sortable(q: Quiver, w: WeylElement, field: FieldSpec = F2) -> TorsionFreeClass:
    """The torsion-free class of a c-sortable element: the indecomposables
    whose dimension vectors are the inversions of w.  Sortability, the
    inversions and the class's sorting element all come from
    weyl.c_sorting_element; NotSortableError when w is not c-sortable.  The
    inversions, the positive prefix roots of a reduced word, go unchecked."""
    decided = c_sorting_element(q, w)
    if decided is None:
        raise NotSortableError("element is not sortable for this quiver's Coxeter element")
    element, roots = decided
    tfc = object.__new__(TorsionFreeClass)  # no __post_init__: no member is looked up again
    vars(tfc).update(quiver=q, field=field, indec_roots=roots, sorting_element=element)
    return tfc


def sortable_of_tfc(q: Quiver, tfc: TorsionFreeClass) -> WeylElement:
    """The c-sortable element whose inversion set is the class, spelled by
    its c-sorting word, the word enumerate_c_sortable lists it by.

    Torsion-free classes are inductive: at the first sink i of the Coxeter
    order either e_i is absent and the class lives on the quiver without i,
    or the class less e_i, reflected by s_i, lives on the quiver mutated at
    i.  The sorting walk over c^oo makes the same choices: after the
    letters u so far, e_i is in the reflected class exactly when u e_i is in
    the class (s_i is a left descent of u^{-1} w), and a letter skipped once
    is retired for good.  The class holds the walk's element
    (TorsionFreeClass.sorting_element), so a class built by tfc_of_sortable
    is not walked again.  A root set that is not a class stops the walk
    short of its size and raises NotTorsionFreeError, on every call.
    """
    if tfc.quiver != q:
        raise QuiverMismatchError("class does not live on the given quiver")
    w = tfc.sorting_element
    if w.length < len(tfc):
        raise NotTorsionFreeError("the sorting walk stopped short: the roots are not a class")
    return w


# -- the closure oracle and the torsion-pair search -----------------------------

def is_torsion_free_class(q: Quiver, tfc: TorsionFreeClass) -> bool:
    """Closure oracle, on the category's leg tables (_closed): every
    indecomposable with an injective map into a member, which is every
    summand of its subrepresentations, and every summand of every middle
    term over every ordered member pair, self-pairs included, is a member."""
    if tfc.quiver != q:
        raise QuiverMismatchError("class does not live on the given quiver")
    cat = dynkin_category(q, tfc.field)
    return _closed(cat, sum(1 << cat.index[r] for r in tfc.indec_roots))


def _closed(cat: DynkinCategory, mask: int, since: int = 0) -> bool:
    """Whether the roots of mask are closed, given that the roots of since,
    a closed subset, are: no subrepresentation requirement of a root of
    mask outside since, and no extension requirement of such a root with a
    member, reaches a root outside the mask.  The requirements of since
    alone lie in since."""
    members, outside, extension = list(bits(mask)), ~mask, cat.extension_masks
    return not any(
        cat.subrep_masks[k] & outside or any(extension[k][j] & outside for j in members)
        for k in members
        if not since >> k & 1
    )


def _class_masks(q: Quiver, field: FieldSpec) -> set[int]:
    """Every torsion-free class of (q, field) as an int mask over
    dynkin_roots(q).roots, found on the support of the Hom table alone.

    F, closed under sums and summands, is torsion-free exactly when
    F = (⊥F)^⊥, for the torsion class ⊥F = {X : Hom(X, F) = 0} of the
    torsion pair (⊥F, F) (Dickson 1966; Assem-Simson-Skowroński, Elements
    vol. 1, §VI.1).  out[b] masks the roots a with Hom(I_b, I_a) ≠ 0, and
    into[a] the roots b with it.  The search is breadth-first over torsion
    masks T from all roots, deduplicated on T: the class of T is F = T^⊥,
    the roots in no out[b] for b in T, and the roots k outside F with
    Hom(k, F) = 0 are the members of T = ⊥F.  For each, T less into[k] is
    ⊥F ∩ ⊥k, the torsion class of close(F + k): a closure is one AND.

    Every class U is reached.  Take classes F ⊊ U and k0 in U outside F.
    Its torsion part for (⊥F, F) is a nonzero submodule of k0, so it lies
    in U.  Any indecomposable summand k of it lies in U ∩ ⊥F, so k ∉ F,
    Hom(k, F) = 0, and close(F + k) lies strictly between F and U.  So a
    chain of steps from the search's start, F = 0, ends at U.

    The ranks are checked as cat.hom_table is built, and every class found
    on both legs (_closed, which the search never reads); a failure raises
    InternalInvariantError.  Classes are checked by size, each on its new
    root against a class one root smaller, already checked, when the search
    found one, and in full otherwise.  One exists for every nonempty class
    F: less its last root k in word order it is a class, as T[k][a] = 0 for
    every other member a, so Hom(I_k, -) vanishes on the subrepresentations
    and middle terms of the rest, and k is no summand of one.  The class
    count, the type's Coxeter-Catalan number, is checked against
    weyl.SORTABLE_GUARD, the bound on the sortable side of the bijection,
    before w_0 is walked or the category kept on q."""
    if q.is_dynkin and (count := q.dynkin.coxeter_catalan) > SORTABLE_GUARD:
        raise ResourceGuardError(f"{count} torsion-free classes exceed the guard {SORTABLE_GUARD}")
    cat = dynkin_category(q, field)
    table = cat.hom_table
    out = [sum(1 << a for a, t in enumerate(row) if t) for row in table]
    into = [sum(1 << b for b, t in enumerate(col) if t) for col in zip(*table)]
    full = (1 << len(table)) - 1
    seen, queue, classes = {full}, [full], set()
    for torsion in queue:  # grows as it is read
        hit = 0
        for k in bits(torsion):
            hit |= out[k]
            if (smaller := torsion & ~into[k]) not in seen:
                seen.add(smaller)
                queue.append(smaller)
        classes.add(full & ~hit)
    for mask in sorted(classes, key=int.bit_count):
        since = next((less for k in bits(mask) if (less := mask & ~(1 << k)) in classes), 0)
        if not _closed(cat, mask, since):
            raise InternalInvariantError("a class of the torsion-pair search fails the closure oracle")
    return classes


def enumerate_tfc(q: Quiver, field: FieldSpec = F2) -> list[TorsionFreeClass]:
    """All torsion-free classes (_class_masks), by size and then by their
    sorted roots."""
    masks, roots = _class_masks(q, field), dynkin_roots(q).roots
    out = [TorsionFreeClass(q, field, frozenset(selected(roots, mask))) for mask in masks]
    out.sort(key=lambda c: (len(c), c.sorted_roots))
    return out


# -- bijection verification -----------------------------------------------------


@dataclass(frozen=True)
class BijectionReport:
    """Outcome of checking the sortable <-> torsion-free correspondence on
    one quiver: counts on both sides, injectivity and image checks for the
    inversion-set map, and the round trip: every enumerated class walks back
    through the c-sorting walk to the sortable whose image it is.  pairs
    holds (word, mask) by length and then word, one per listed word whose
    inversions are a class, bit k for roots[k]; rows spells them out."""

    quiver: Quiver
    field: FieldSpec
    sortable_count: int
    tfc_count: int
    counts_equal: bool
    image_in_classes: bool
    injective: bool
    round_trip: bool
    pairs: tuple[tuple[Word, int], ...]
    roots: tuple[IntVector, ...]
    gaps: tuple[str, ...] = ()

    @property
    def rows(self) -> tuple[tuple[Word, tuple[IntVector, ...]], ...]:
        """(word, inversions) per pair, the roots in index order, which is sorted order."""
        return tuple((word, tuple(self.roots[k] for k in bits(mask))) for word, mask in self.pairs)

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
            "quiver": quiver_to_json(self.quiver),
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
    """Check the sortable/torsion-free bijection on one quiver, on the
    category's int masks; no TorsionFreeClass or WeylElement is built.

    The sortables are the leaves of one walk (weyl.sortable_masks), each
    its word with the mask of its inversions.  The images must be
    enumerated classes (image_in_classes; a leaf whose mask has fewer bits
    than its word has letters, or is no class, fails it and has no pair) and
    distinct (injective).  Every class mask must walk back, by the c-sorting
    walk over its roots stopped at its size, to the word whose image it is
    (round_trip): weyl.sorting_words walks every class at once and each word
    it yields is compared with that one, so no matrix is read.  Both
    enumerations must have the same size.  Scope and guard failures become
    entries in ``gaps`` instead of exceptions, leaving a partial report.

    No sortability decision is made: a report that passes certifies it.  A
    leaf is reached only through positive prefix roots, so its word w is
    reduced and its mask, a bit per letter, is Inv(w).  With the counts
    equal, the images distinct and each a class, the images are exactly the
    classes.  The round trip then spells w from Inv(w) by the walk of
    weyl.sorting_element, in |Inv(w)| = l(w) letters, so by the fallback
    argument of weyl.c_sorting_element w is c-sortable with c-sorting word w.
    """
    gaps: list[str] = []
    masks: set[int] = set()
    try:
        leaves = sortable_masks(q)  # checked at the call, before any table, so its gap comes first
    except (UnsupportedScopeError, ResourceGuardError) as exc:
        gaps.append(f"sortable enumeration unavailable: {exc}")
    try:
        masks = _class_masks(q, field)
    except (UnsupportedScopeError, ResourceGuardError) as exc:
        gaps.append(f"torsion-free enumeration unavailable: {exc}")

    count = kept = 0
    word_of: dict[int, Word] = {}
    if not gaps:
        try:
            for word, mask in leaves:
                count += 1
                if mask.bit_count() == len(word) and mask in masks:
                    kept += 1
                    word_of[mask] = word
        except ResourceGuardError as exc:  # the walk's own guards
            gaps.append(f"sortable enumeration unavailable: {exc}")
            count, word_of = 0, {}
    round_trip = not gaps and all(word == word_of.get(mask) for mask, word in sorting_words(q, masks))
    tfc_count, distinct, masks = len(masks), len(word_of), None  # freed before the pairs are built,
    pairs, word_of = list(zip(word_of.values(), word_of)), None  # and word_of before they are sorted
    pairs.sort()  # by word, then stably by length
    pairs.sort(key=lambda pair: len(pair[0]))
    return BijectionReport(
        quiver=q,
        field=field,
        sortable_count=count,
        tfc_count=tfc_count,
        counts_equal=not gaps and count == tfc_count,
        image_in_classes=not gaps and kept == count,
        injective=not gaps and distinct == kept,
        round_trip=round_trip,
        pairs=tuple(pairs),
        roots=() if gaps else dynkin_roots(q).roots,
        gaps=tuple(gaps),
    )


def tfc_to_json(tfc: TorsionFreeClass) -> dict:
    return {
        "quiver": quiver_to_json(tfc.quiver),
        "roots": [list(r) for r in tfc.sorted_roots],
    }


def tfc_from_json(data: object, field: FieldSpec = F2) -> TorsionFreeClass:
    if not isinstance(data, dict) or "quiver" not in data or "roots" not in data:
        raise InputFormatError('class JSON must be {"quiver": ..., "roots": [[...], ...]}')
    q = quiver_from_json(data["quiver"])
    try:
        roots = frozenset(tuple(json_int(x) for x in r) for r in data["roots"])
    except TypeError as exc:
        raise InputFormatError(f"malformed class JSON: {exc}") from exc
    return TorsionFreeClass(q, field, roots)
