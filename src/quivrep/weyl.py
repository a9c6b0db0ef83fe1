"""The Weyl group of a quiver acting on Z^n.

A group element is its quiver and a reduced word.  The n x n integer matrix
of its action (column j is the image of e_j) is walked along the word when
first read, and kept on the element.  The action is faithful, so matrix
equality is element equality - a canonical form that works unchanged for
infinite groups - and the same word on equal quivers is the same element
without a walk.  Reducedness is decided by the prefix-root criterion: a
word is reduced iff reflecting the simple roots along its prefixes never
produces a negative vector.  At the first negative one, u e_i after the
reduced prefix u, u^{-1} sends -u e_i > 0 negative, so it is the prefix
root of exactly one letter of u, and deleting that letter and i leaves the
same element (the exchange condition).

Words are walked on packed columns.  A column v is one Python int, its
code sum_j v_j 2^(W j), W bits per entry.  The encoding is linear, so right
multiplication by s_i negates code i and adds it to the code of each
neighbour j once per arrow between i and j: deg(i) + 1 integer additions.
Every column of a group element is a real root w e_j, so sign-coherent:
it is positive exactly when its code is > 0, for any W.  Two sign-coherent
vectors with entries below 2^W in absolute value have equal codes exactly
when they are equal, so equality and membership in a set of roots are int
comparisons.  W is the bit length of a proven bound on the entries, and
at least 3, that of 6, the largest coefficient of a highest root (E8),
which bounds every root on Dynkin type.  Off it, a walk along a given word
is bounded by the largest height (sum of entries) of a column on the way,
which a walk on the heights alone, the codes at width 0, finds first;
sorting_element's walk, which chooses its letters as it goes, by
(1 + m)^L over L letters, m the largest edge multiplicity, since a letter
adds at most m times one column to another.  A vector passed in with an
entry of 2^W or more is no column, and is dropped.  A code is decoded to a
tuple, its digits read by shift and mask, only where a vector is asked
for, once per distinct code: on Dynkin type in a memo kept on the quiver
object (Quiver.derived), which every column being a real root bounds, so
its walks share one tuple per root; off it in one made for the call and
dropped with it, since each walk there has its own width.  The prefix root before letter
i is column i of the product so far.

The c-sortable elements are the leaves of one tree walk along c^oo
(_sortable_walk), which tests signs only.  sortable_masks runs it on a
Dynkin quiver's kept packing, ORing in each kept letter's inversion bit.
On Dynkin type its first leaf is w_0, whose inversions, the positive
roots, dynkin_roots lists once per quiver object for every field, class
and verifier walk.  enumerate_c_sortable runs sortable_masks' walk where
that record exists, and each element it lists keeps its leaf's inversion
mask; elsewhere it walks the heights, the codes at width 0, with nothing
decoded.  The elements of enumerate_c_sortable, c_sorting_element,
sorting_element and weyl_element are words whose matrices nobody has read
yet.

c_sorting_element answers for a listed element from its mask, with no
walk; any other it decides on the word's letters (_nested), walking the
word once, for its inversions.  sorting_words spells the c-sorting words
of many root sets in one walk along c^oo (_sorting_walk), and
sorting_element is that walk over a group of one.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property
from operator import index, mul, neg
from typing import ClassVar, NamedTuple

from .errors import (
    InternalInvariantError,
    InputFormatError,
    InvalidParameterError,
    NonReducedWordError,
    QuiverMismatchError,
    ResourceGuardError,
    SingularRootError,
    IntegralityError,
    UnsupportedScopeError,
)
from .linalg import selected
from .quiver import (
    IntVector,
    Matrix,
    Quiver,
    check_vector,
    check_vertex,
    json_int,
    sym_form,
    unit_vector,
)

Word = tuple[int, ...]


def _check_word(q: Quiver, word) -> Word:
    word = tuple(int(l) for l in word)
    for l in word:
        check_vertex(q, l)
    return word


def simple_pairing(q: Quiver, i: int, v: IntVector) -> int:
    """The symmetric form (e_i, v) = 2 v_i - sum over arrows at i of the
    other end's coordinate; unchecked, for callers that validated i and v."""
    c = 2 * v[i - 1]
    for j, a in q.adjacency[i - 1]:
        c -= a * v[j - 1]
    return c


def simple_reflection(q: Quiver, i: int, v: IntVector) -> IntVector:
    """Apply s_i = t_{e_i}: subtract (e_i, v) times e_i.  An involution."""
    check_vertex(q, i)
    check_vector(q, v)
    out = list(v)
    out[i - 1] -= simple_pairing(q, i, v)
    return tuple(out)


def reflect_by_root(q: Quiver, beta: IntVector, v: IntVector) -> IntVector:
    """Reflection t_beta(v) = v - 2 (beta,v)/(beta,beta) beta.

    Only defined when (beta, beta) != 0 and the coefficient is integral;
    real roots have (beta, beta) = 2, for which both conditions always hold.
    """
    check_vector(q, beta)
    check_vector(q, v)
    bb = sym_form(q, beta, beta)
    if bb == 0:
        raise SingularRootError("(beta, beta) = 0: reflection undefined")
    num = 2 * sym_form(q, beta, v)
    if num % bb != 0:
        raise IntegralityError("reflection does not preserve the integer lattice here")
    coef = num // bb
    return tuple(x - coef * b for x, b in zip(v, beta))


# Every positive root of a Dynkin diagram has coefficients at most 6, the
# largest coefficient of a highest root (E8), so this bounds the columns of
# a walk of any length on Dynkin type.
DYNKIN_ROOT_BOUND = 6


def _height_bound(q: Quiver, word: Word) -> int:
    """The largest |height|, the sum of the entries, of a column on the walk
    along ``word`` up to the first letter whose prefix root is negative,
    where every walk along a word stops.  Every column is a real root, so
    sign-coherent: no entry passes its height in absolute value, and the
    column is negative exactly when its height is.  Heights are the codes
    at width 0, so they follow the walk as the codes do (_reflect), on small
    ints; a step changes the heights at i and at its neighbours."""
    pack, top = _Packing(q, 0), 1
    heights, links = pack.units.copy(), pack.links
    for i in word:
        if (root := heights[i]) < 0:
            break
        _reflect(heights, links, i, root)
        top = max(top, root, *(abs(heights[j]) for j in links[i]))
    return top


class _Packing(dict):
    """The packed columns of one quiver at one width: the codes of e_1..e_n
    and each vertex's neighbours, listed once per arrow, both indexed by
    vertex (index 0 unused); as a dict, code -> vector, decoding each code
    once by shift and mask, and ``codes`` the other way round for every
    decoded code."""

    __slots__ = ("n", "width", "units", "links", "codes")

    def __init__(self, q: Quiver, width: int):
        self.n, self.width = q.n, width
        self.units = [0] + [1 << (width * j) for j in range(q.n)]
        self.links = [()] + [tuple(j for j, a in adj for _ in range(a)) for adj in q.adjacency]
        self.codes: dict[IntVector, int] = {}

    def __missing__(self, code: int) -> IntVector:
        # a sign-coherent code: the digits of |code|, negated when code < 0
        width, low, magnitude = self.width, (1 << self.width) - 1, abs(code)
        digits = tuple(magnitude >> (width * j) & low for j in range(self.n))
        v = self[code] = digits if code >= 0 else tuple(map(neg, digits))
        self.codes[v] = code
        return v

    def encode(self, v: IntVector) -> int:
        return sum(map(mul, v, self.units[1:]))

    def matrix(self, cols: list[int]) -> Matrix:
        return tuple(zip(*map(self.__getitem__, cols[1:])))


def _packing(q: Quiver, length: int, word: Word | None = None) -> _Packing:
    """The packing for a walk of ``length`` letters, at the bits per entry
    that keep its codes exact (module docstring): the bit length of the
    larger of 6 and the walk's bound, the heights along ``word`` when given,
    else (1 + m)^length for m the most arrows between two vertices.  On
    Dynkin type it is the quiver's kept packing, at the bit length of 6,
    whose memo holds at most twice the positive root count of vectors; any
    other is new, for the caller's walks alone."""
    if q.is_dynkin:
        if (pack := q.derived.get("packing")) is None:
            pack = q.derived["packing"] = _Packing(q, DYNKIN_ROOT_BOUND.bit_length())
        return pack
    if word is not None:
        bound = _height_bound(q, word)
    else:
        bound = (1 + max(a for adj in q.adjacency for _, a in adj)) ** length
    return _Packing(q, max(bound, DYNKIN_ROOT_BOUND).bit_length())


def _reflect(cols: list[int], links: list[Word], i: int, root: int) -> None:
    """Right-multiply the column codes, or the column heights, by s_i in
    place; ``root`` is entry i."""
    for j in links[i]:
        cols[j] += root
    cols[i] = -root


def _walk(q: Quiver, word: Word, roots: list[int] | None = None) -> tuple[int | None, list[int], _Packing]:
    """Multiply out the letters of ``word`` from the identity.  Stops before
    the first letter whose prefix root is negative and returns its index
    with the column codes so far; returns None with those of the whole
    product when no prefix root goes negative.  Each positive prefix root's
    code is appended to ``roots`` when given.  The packing comes last."""
    pack = _packing(q, len(word), word=word)
    cols, links = pack.units.copy(), pack.links
    for k, i in enumerate(word):
        root = cols[i]
        if root < 0:
            return k, cols, pack
        if roots is not None:
            roots.append(root)
        for j in links[i]:  # _reflect, inline
            cols[j] += root
        cols[i] = -root
    return None, cols, pack


@dataclass(frozen=True, eq=False)
class WeylElement:
    """A group element: its quiver and a reduced word, one reduced
    expression among possibly many.  The matrix is walked along the word,
    its letters checked to be vertices, when first read (module
    docstring); two elements are equal exactly when their matrices agree,
    and the same word on equal quivers is equal without reading them.  An
    element enumerate_c_sortable lists on a quiver with a root record keeps
    its leaf's inversion mask, bit k for dynkin_roots(q).roots[k], for its
    life, outside ==, hash, repr and JSON; any other has None."""

    quiver: Quiver
    word: Word
    inversion_mask: ClassVar[int | None] = None

    @cached_property
    def matrix(self) -> Matrix:
        neg_k, cols, pack = _walk(self.quiver, _check_word(self.quiver, self.word))
        if neg_k is not None:
            raise NonReducedWordError("an element's word is not reduced: a prefix root went negative")
        return pack.matrix(cols)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, WeylElement) and (
            self.word == other.word and self.quiver == other.quiver or self.matrix == other.matrix
        )

    def __hash__(self) -> int:
        return hash(self.matrix)

    @property
    def length(self) -> int:
        return len(self.word)

    def apply(self, v: IntVector) -> IntVector:
        check_vector(self.quiver, v)
        return tuple(sum(row[c] * v[c] for c in range(len(v))) for row in self.matrix)

    def __repr__(self) -> str:
        name = "*".join(f"s{l}" for l in self.word) or "e"
        return f"WeylElement({name})"


def weyl_element(q: Quiver, word) -> WeylElement:
    """Build the element of the given word; the stored word is re-reduced."""
    return WeylElement(q, reduce_word(q, word))


def identity_element(q: Quiver) -> WeylElement:
    return WeylElement(q, ())


def compose(a: WeylElement, b: WeylElement) -> WeylElement:
    """The product a.b (a acting after b)."""
    if a.quiver != b.quiver:
        raise QuiverMismatchError("elements live over different quivers")
    return weyl_element(a.quiver, a.word + b.word)


def invert(a: WeylElement) -> WeylElement:
    return weyl_element(a.quiver, a.word[::-1])


@dataclass(frozen=True)
class RootTuple:
    """Roots in a fixed order, iterated in it and tested as a set."""

    roots: tuple[IntVector, ...]

    @cached_property
    def root_set(self) -> frozenset[IntVector]:
        return frozenset(self.roots)

    def __contains__(self, root: IntVector) -> bool:
        return root in self.root_set

    def __iter__(self):
        return iter(self.roots)

    def __len__(self) -> int:
        return len(self.roots)


class InversionSet(RootTuple):
    """Inversions of a reduced word: prefix-reflected simple roots, in word
    order.  As a set this is {positive roots alpha : w^{-1} alpha < 0} and
    does not depend on the chosen reduced word."""


def is_reduced(q: Quiver, word) -> bool:
    """Whether no prefix root of ``word`` goes negative (module docstring)."""
    return _walk(q, _check_word(q, word))[0] is None


def inversion_set(q: Quiver, word) -> InversionSet:
    codes: list[int] = []
    neg_k, _, pack = _walk(q, _check_word(q, word), roots=codes)
    if neg_k is not None:
        raise NonReducedWordError("word is not reduced: a prefix root went negative")
    roots = tuple(map(pack.__getitem__, codes))
    if len(set(roots)) != len(roots):
        raise InternalInvariantError("positive prefix roots repeated on a non-reduced word")
    return InversionSet(roots)


# reduce_word deletes one letter pair a pass, and each pass walks the word up
# to a negative prefix root and rebuilds it, so it counts the word's length
# and stops once the counts pass this many letters: about 0.3 s on a 2-core
# Xeon for a Kronecker word that cancels to the identity, admitted to about
# 1,400 letters.  A reduced word is walked once, uncounted.
REDUCE_LETTER_GUARD = 5 * 10**5


def reduce_word(q: Quiver, word) -> Word:
    """A reduced word for the same element.

    Repeatedly deletes the letter of the first negative prefix root and the
    earlier letter whose prefix root is its negation, compared as codes on
    one walk; already-reduced input is returned unchanged.  Refused with
    ResourceGuardError past REDUCE_LETTER_GUARD.
    """
    word, walked = _check_word(q, word), 0
    while True:
        roots: list[int] = []
        neg_k, cols, _ = _walk(q, word, roots)
        if neg_k is None:
            return word
        walked += len(word)
        if walked > REDUCE_LETTER_GUARD:
            raise ResourceGuardError(f"reduction walked past the guard {REDUCE_LETTER_GUARD} letters")
        try:  # the exchange condition; the walk's width covers -u e_i
            t = roots.index(-cols[word[neg_k]])
        except ValueError:
            raise InternalInvariantError("deletion condition failed to locate a letter pair") from None
        word = word[:t] + word[t + 1 : neg_k] + word[neg_k + 1 :]


def left_descent(q: Quiver, i: int, w: WeylElement) -> bool:
    """True iff l(s_i w) < l(w), i.e. e_i is an inversion of w."""
    check_vertex(q, i)
    if w.quiver != q:
        raise QuiverMismatchError("element does not live on the given quiver")
    return unit_vector(q.n, i) in inversion_set(q, w.word)


def coxeter_of_quiver(q: Quiver) -> Word:
    """The Coxeter word matching the orientation: s_i precedes s_j whenever
    some arrow j -> i exists, i.e. a topological order of the reversed
    arrows.  Ties break towards smaller vertex indices, so the output is
    deterministic; any other linear extension is the same group element.
    Read from Quiver.coxeter_word, so it is sorted once per quiver object."""
    return q.coxeter_word


def quiver_of_coxeter(graph: Quiver, word) -> Quiver:
    """Orient the underlying graph of ``graph`` by a Coxeter word: each edge
    {i, j} points at whichever of i, j appears earlier in the word.  Inverse
    of coxeter_of_quiver, arrow ids preserved."""
    word = _check_word(graph, word)
    if sorted(word) != list(range(1, graph.n + 1)):
        raise InputFormatError("Coxeter word must contain each generator exactly once")
    pos = {v: k for k, v in enumerate(word)}
    arrows = tuple((s, t) if pos[t] < pos[s] else (t, s) for s, t in graph.arrows)
    return Quiver(graph.n, arrows)


def _nested(c: Word, word: Word) -> bool:
    """Whether ``word`` is a subword of c^oo with nested letter sets, read
    on its letters alone: copy k of c visits, in c order, only the letters
    that copy k-1 took, and takes letter i exactly when i is the next
    letter of ``word``; a letter skipped once is retired for good."""
    copy, at = c, 0
    while at < len(word) and copy:
        still = []
        for i in copy:
            if i == word[at]:
                still.append(i)
                at += 1
                if at == len(word):
                    break
        copy = still
    return at == len(word)


def _sorting_walk(q: Quiver, pack: _Packing, members, bit_of: dict[int, int]) -> Iterator[tuple[int, Word]]:
    """Walk c^oo, c = q.coxeter_word, on the column codes of ``pack``, once
    for a group of members, each an int mask, and yield each member with
    its word as the member stops, so no word outlives its reader.

    Letters are visited and retired as in _nested.  After the letters u so
    far a member keeps letter i when bit_of, from codes to ints with one
    bit set, gives the code of u e_i a bit that the member has.  Members
    that keep the same letters share one walk: at each letter the group
    splits on that one bit test, which a group of one reads off its own
    mask.  The part that keeps the letter walks on in place, and the rest,
    when some are left, later from a copy of the columns taken before it,
    depth first, on one list of letters cut back to the rest's length.  A
    member stops once it has as many letters as it has bits, or when no
    letter is left; a group is kept by decreasing size, so those that stop
    are last.
    """
    links, word = pack.links, []
    stack = [(pack.units.copy(), q.coxeter_word, 0, 0, 0, sorted(members, key=int.bit_count, reverse=True))]
    while stack:
        cols, copy, at, start, depth, walking = stack.pop()  # word[start:]: the letters kept from this copy
        del word[depth:]
        while walking:
            if (need := walking[-1].bit_count()) == depth:
                done = tuple(word)
                while walking and walking[-1].bit_count() == depth:
                    yield walking.pop(), done
                continue
            alone = walking[0] if len(walking) == 1 else 0
            for i in copy[at:]:
                at += 1
                root = cols[i]
                if not (bit := bit_of.get(root)):
                    continue
                if not bit & alone:
                    if not (keeping := [m for m in walking if m & bit]):
                        continue
                    if len(keeping) < len(walking):
                        stack.append((cols.copy(), copy, at, start, depth, [m for m in walking if not m & bit]))
                        walking, need = keeping, depth + 1  # the group is read again after this letter
                for j in links[i]:  # _reflect, inline
                    cols[j] += root
                cols[i] = -root
                word.append(i)
                depth += 1
                if depth == need:
                    break
            else:
                if start == depth:  # no letter left
                    done = tuple(word)
                    yield from ((m, done) for m in walking)
                    break
                copy, at, start = tuple(word[start:]), 0, depth


def _codes(q: Quiver, pack: _Packing, vectors: list[IntVector]) -> list[int | None]:
    """The code of each vector, None for one that is no column of pack's
    walks: not of length n, not sign-coherent, or with an entry of 2^width
    or more in absolute value.  When every vector is a column the packing
    has decoded, the codes are looked up rather than encoded."""
    codes = list(map(pack.codes.get, vectors))
    if None in codes:
        top = 1 << pack.width
        codes = [
            pack.encode(v) if len(v) == q.n and (all(0 <= x < top for x in v) or all(-top < x <= 0 for x in v)) else None
            for v in vectors
        ]
    return codes


def sorting_element(q: Quiver, roots) -> WeylElement:
    """The element spelled by the c-sorting word, c = coxeter_of_quiver(q),
    of the element whose inversions are ``roots``, any iterable of vectors,
    stopped once it has as many letters as there are roots: the leftmost
    subword of c^oo that spells it, with letters retired once skipped.

    After the letters u so far the walk keeps letter i exactly when u e_i is
    in ``roots``, which is s_i being a left descent of u^{-1} w.  A vector
    that is no positive column (_codes) is never a kept u e_i and is left
    out.  A kept root is a new positive root, so the word is reduced with
    distinct inversions.  The walk is _sorting_walk's over a group of one:
    a mask with one bit per distinct code.
    """
    roots = list(roots)
    pack = _packing(q, len(roots))
    codes = {code for code in _codes(q, pack, roots) if code is not None and code > 0}
    [(_, word)] = _sorting_walk(q, pack, [(1 << len(codes)) - 1], {code: 1 << k for k, code in enumerate(codes)})
    return WeylElement(q, word)


def sorting_words(q: Quiver, masks) -> Iterator[tuple[int, Word]]:
    """sorting_element's word for each of a collection of int masks over a
    Dynkin quiver's roots, bit k standing for dynkin_roots(q).roots[k], from
    one _sorting_walk over the group on the kept packing: each mask with its
    word, as the walk reaches it."""
    record = dynkin_roots(q)
    return _sorting_walk(q, _packing(q, len(record.roots)), list(masks), record.bit_of)


# positive_real_roots and dynkin_roots refuse Dynkin quivers with more roots
# than this.  The listing reflects every root at every vertex, about n^4 steps
# on linear A_n: the guard admits E8 (120 roots), linear A44 (990 roots,
# 0.12 s on a 2-core Xeon) and every quiver without arrows.
POSITIVE_ROOT_GUARD = 1000


class DynkinRoots(NamedTuple):
    """A Dynkin quiver's positive roots (dynkin_roots): w_0's c-sorting word,
    the roots sorted, as the kept packing decoded them, root -> k, each
    inversion's k in word order, and each root's code -> 1 << k."""

    word: Word
    roots: tuple[IntVector, ...]
    index: dict[IntVector, int]
    order: tuple[int, ...]
    bit_of: dict[int, int]


def dynkin_roots(q: Quiver) -> DynkinRoots:
    """The root record of a Dynkin quiver within POSITIVE_ROOT_GUARD, both
    read from its type, kept in q.derived.  w_0's word is the first leaf of
    _sortable_walk, which keeps every letter whose prefix root is positive
    until it has all N; one _walk along it lists the inversions in order."""
    if (record := q.derived.get("roots")) is None:
        if not q.is_dynkin:
            raise UnsupportedScopeError("indecomposables and their tables require a Dynkin quiver")
        if (count := q.dynkin.positive_root_count) > POSITIVE_ROOT_GUARD:
            raise ResourceGuardError(f"{count} positive roots exceed the guard {POSITIVE_ROOT_GUARD}")
        pack, codes = _packing(q, count), []
        word, _ = next(_sortable_walk(q, pack, count, {}))
        _walk(q, word, codes)
        if len(codes) < count:
            raise InternalInvariantError("the c-sorting word of w_0 stopped short")
        roots = tuple(sorted(map(pack.__getitem__, codes)))
        index = {root: k for k, root in enumerate(roots)}
        order = tuple(index[pack[code]] for code in codes)
        bit_of = {code: 1 << k for code, k in zip(codes, order)}
        record = q.derived["roots"] = DynkinRoots(word, roots, index, order, bit_of)
    return record


def c_sorting_element(q: Quiver, w: WeylElement) -> tuple[WeylElement, frozenset[IntVector]] | None:
    """The sortability decision for c = coxeter_of_quiver(q): when w is
    c-sortable, the element spelled by its c-sorting word, the leftmost
    subword of c^oo that spells w, together with Inv(w); None otherwise.
    w is c-sortable when that word uses nested letter sets J1 >= J2 >= ...
    in the copies of c.  An element of another quiver raises
    QuiverMismatchError, and a letter that is no vertex VertexRangeError.

    An element that enumerate_c_sortable listed with an inversion mask of
    one bit per letter is returned as it is, its roots decoded from the
    mask by the record of dynkin_roots(q), with no walk: it is a leaf of
    _sortable_walk, whose word is the c-sorting word of a c-sortable
    element, and whose mask, with a bit per letter, is Inv(w).  Every other
    element is decided as follows.

    One walk along w.word (_walk) refuses it with NonReducedWordError when
    it is not reduced; it is reduced, so its prefix roots are Inv(w).  The
    decision reads letters alone (_nested).  Suppose _nested takes all of
    w.word, with u the letters taken so far.  A letter i that it retires
    does not occur in the rest of w.word, which spells u^{-1} w, so u^{-1} w
    lies in the parabolic subgroup without s_i: s_i is no left descent of
    u^{-1} w, and u e_i is not in Inv(w).  A letter i it takes is the next
    of w.word, so u e_i, its prefix root, is in Inv(w).  The walk of
    sorting_element over Inv(w), which keeps i exactly when u e_i is in
    Inv(w), makes _nested's choices and stops at the same leaf: w.word is
    the c-sorting word of w, and w is c-sortable.

    Any other outcome, also for a c-sortable element given by another
    reduced word, falls back to sorting_element over the same Inv(w): w is
    c-sortable exactly when that element has the length of w.
    After the letters u so far, that walk keeps i exactly when s_i is a left
    descent of u^{-1} w, so it keeps what the leftmost subword keeps until
    it meets a retired letter i that the subword would keep.  On a
    c-sortable w none comes, and the walk spells the c-sorting word.
    Otherwise s_i is then a left descent of what is left to spell, which
    the letters still active cannot spell, so the walk stops short.
    """
    if w.quiver != q:
        raise QuiverMismatchError("element does not live on the given quiver")
    if (mask := w.inversion_mask) is not None and mask.bit_count() == len(w.word):
        return w, frozenset(selected(dynkin_roots(q).roots, mask))
    nested = _nested(q.coxeter_word, w.word)
    word = w.word if nested else _check_word(q, w.word)
    codes: list[int] = []
    neg_k, _, pack = _walk(q, word, codes)
    if neg_k is not None:
        raise NonReducedWordError("word is not reduced: a prefix root went negative")
    roots = frozenset(map(pack.__getitem__, codes))
    if nested:
        return WeylElement(q, word), roots
    element = sorting_element(q, roots)
    return (element, roots) if element.length == w.length else None


def is_c_sortable(q: Quiver, w: WeylElement) -> bool:
    """Sortability for c = coxeter_of_quiver(q), as c_sorting_element decides it."""
    return c_sorting_element(q, w) is not None


# The bijection's two sides have one count, the Coxeter-Catalan number, so
# this bounds both: enumerate_c_sortable and torsion.enumerate_tfc refuse a
# Dynkin type past it from the type, before any walk or table.  It admits
# E8 (25,080), D10 (136,136), A11 (208,012) and products such as A9+A3
# (235,144); D11 (520,676) and A12 (742,900) are refused.
SORTABLE_GUARD = 250_000

# The leaves of the sortable walk spell at most this many letters, on every
# type: enumerate_c_sortable keeps them as elements, verify_bijection as its
# report's words.  In Dynkin type SORTABLE_GUARD refuses first, and the
# types it admits spell less (D10's 136,136 sortables spell 4.24 million
# letters), but D11's walk would trip this guard too.  Off Dynkin type a
# component's group is infinite and each prefix of its c^oo is reduced and
# c-sortable (Speyer), so a bound L lists L(L+1)/2 letters at least, which
# is checked before the walk.  This admits Kronecker to length 4,471
# (0.17 s, 94 MB peak RSS on a 2-core Xeon) and T_{2,3,7} to length 12
# (139,572 letters).
SORTABLE_LETTER_GUARD = 10**7


def _sortable_bound(q: Quiver, length_bound) -> int:
    """enumerate_c_sortable's length bound, checked before any walk: None
    stands for the number of positive roots, on Dynkin type within
    SORTABLE_GUARD; off it the bound's listing must fit SORTABLE_LETTER_GUARD."""
    if length_bound is None:
        if not q.is_dynkin:
            raise UnsupportedScopeError("an explicit length bound is required off Dynkin type")
        if q.dynkin.coxeter_catalan > SORTABLE_GUARD:
            raise ResourceGuardError(
                f"{q.dynkin.coxeter_catalan} c-sortable elements exceed the guard {SORTABLE_GUARD}"
            )
        length_bound = q.dynkin.positive_root_count
    try:
        length_bound = index(length_bound)
    except TypeError:
        raise InvalidParameterError("length bound must be an integer") from None
    if length_bound < 0:
        raise InvalidParameterError("length bound must be nonnegative")
    if not q.is_dynkin and length_bound * (length_bound + 1) // 2 > SORTABLE_LETTER_GUARD:
        raise ResourceGuardError(f"length {length_bound} lists past the guard {SORTABLE_LETTER_GUARD} letters")
    return length_bound


def _sortable_walk(q: Quiver, pack: _Packing, length_bound: int, bit_of: dict[int, int]) -> Iterator[tuple[Word, int]]:
    """The c-sortable elements of length at most ``length_bound``, each as
    its c-sorting word and its inversion mask, as the walk reaches them.

    The leaves of a tree walk along c^oo on the column codes of ``pack``,
    with letters retired once skipped as in _nested, that branches at every
    letter whose prefix root is positive, keeping it on one branch and
    retiring it on the other, and retires every other letter; a leaf has
    ``length_bound`` letters or no letter left.  Only signs are tested, so
    any width serves.  Each reduced subword of c^oo with nested letter sets
    is one leaf, and it is the c-sorting word of its element, so no element
    comes twice.  A kept letter ORs in the bit that bit_of gives its prefix
    root's code, none for a code it lacks; every prefix root is positive, so
    the word is reduced, and the mask is its inversion set when it has a bit
    per letter.  ResourceGuardError is raised as soon as the leaves read pass
    SORTABLE_GUARD elements or SORTABLE_LETTER_GUARD letters.
    """
    count = held = 0
    links, stack = pack.links, [((), 0, pack.units.copy(), q.coxeter_word, ())]
    while stack:
        word, mask, cols, todo, still = stack.pop()
        if not todo:
            todo, still = still, ()
        if len(word) == length_bound or not todo:
            if count == SORTABLE_GUARD:
                raise ResourceGuardError(f"c-sortable elements exceed the guard {SORTABLE_GUARD}")
            count, held = count + 1, held + len(word)
            if held > SORTABLE_LETTER_GUARD:
                raise ResourceGuardError(f"c-sortable elements exceed the guard {SORTABLE_LETTER_GUARD} letters")
            yield word, mask
            continue
        i, todo = todo[0], todo[1:]
        stack.append((word, mask, cols, todo, still))  # i retired
        root = cols[i]
        if root > 0:  # i kept
            cols = cols.copy()
            _reflect(cols, links, i, root)
            stack.append((word + (i,), mask | bit_of.get(root, 0), cols, todo, still + (i,)))


def enumerate_c_sortable(q: Quiver, length_bound: int | None = None) -> list[WeylElement]:
    """All c-sortable elements of length at most ``length_bound`` (None: the
    number of positive roots, on Dynkin type), sorted by length and then by
    word: the leaves of _sortable_walk, each by its c-sorting word.  Where
    dynkin_roots lists the roots (Dynkin type within POSITIVE_ROOT_GUARD)
    the walk is sortable_masks', on the kept packing, and each element keeps
    its leaf's inversion mask (WeylElement.inversion_mask), which
    c_sorting_element reads in place of a decision; elsewhere it runs on the
    column heights, the codes at width 0, whose signs are the columns', and
    keeps no mask.  The guards are checked before the walk (_sortable_bound)
    and in it."""
    length_bound = _sortable_bound(q, length_bound)
    if q.is_dynkin and q.dynkin.positive_root_count <= POSITIVE_ROOT_GUARD:
        out = []
        for word, mask in _sortable_walk(q, _packing(q, length_bound), length_bound, dynkin_roots(q).bit_of):
            w = WeylElement(q, word)
            object.__setattr__(w, "inversion_mask", mask)  # set as the fields are, so no dict is built per element
            out.append(w)
    else:
        out = [WeylElement(q, word) for word, _ in _sortable_walk(q, _Packing(q, 0), length_bound, {})]
    out.sort(key=lambda w: (w.length, w.word))
    return out


def sortable_masks(q: Quiver) -> Iterator[tuple[Word, int]]:
    """The leaves of enumerate_c_sortable's walk on a Dynkin quiver, walked
    on its kept packing as they are read: each c-sorting word with its
    inversion mask, bit k for dynkin_roots(q).roots[k], none for a code
    bit_of lacks.  The scope and SORTABLE_GUARD are checked at the call."""
    length_bound = _sortable_bound(q, None)
    return _sortable_walk(q, _packing(q, length_bound), length_bound, dynkin_roots(q).bit_of)


def element_to_json(w: WeylElement) -> dict:
    return {"word": list(w.word), "matrix": [list(row) for row in w.matrix]}


def element_from_json(q: Quiver, data: object) -> WeylElement:
    if not isinstance(data, dict) or "word" not in data:
        raise InputFormatError('element JSON must be {"word": [...], "matrix": [[...], ...]}')
    try:
        elem = weyl_element(q, tuple(json_int(l) for l in data["word"]))
        given = tuple(tuple(json_int(x) for x in row) for row in data.get("matrix", ()))
    except TypeError as exc:
        raise InputFormatError(f"malformed element JSON: {exc}") from exc
    if "matrix" in data and given != elem.matrix:
        raise InputFormatError("element JSON matrix disagrees with its word")
    return elem
