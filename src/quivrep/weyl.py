"""The Weyl group of a quiver acting on Z^n.

Group elements are stored as a reduced word together with the n x n integer
matrix of their action (column j is the image of e_j).  The action is
faithful, so matrix equality is element equality - a canonical form that
works unchanged for infinite groups.  Reducedness is decided by the
prefix-root criterion: a word is reduced iff reflecting the simple roots
along its prefixes never produces a negative vector.  At the first negative
one, u e_i after the reduced prefix u, u^{-1} sends -u e_i > 0 negative, so
it is the prefix root of exactly one letter of u, and deleting that letter
and i leaves the same element (the exchange condition).

Words are walked on packed columns.  A column v is one Python int, its
code sum_j v_j 2^(W j), W bits per entry.  The encoding is linear, so right
multiplication by s_i negates code i and adds it to the code of each
neighbour j once per arrow between i and j: deg(i) + 1 integer additions.
Every column of a group element is a real root w e_j, so sign-coherent:
it is positive exactly when its code is > 0, for any W.  Two sign-coherent
vectors with entries below 2^W in absolute value have equal codes exactly
when they are equal, so equality and membership in a set of roots are int
comparisons.  W is the bit length of a proven bound on the entries.  On
Dynkin type the bound is 6, the largest coefficient of a highest root
(E8), which bounds every root.  Off it, a walk along a given word is
bounded by the largest height (sum of entries) of a column on the way,
which a walk on the heights alone, the codes at width 0, finds first; the
walks that choose their letters as they go, enumerate_c_sortable's tree
and sorting_element's, by (1 + m)^L over L letters, m the largest edge
multiplicity, since a letter adds at most m times one column to another.
A root set passed in raises the bound to its largest entry.  Past 6, W is
rounded up to 8, 16, 32 or 64 where that fits, and such codes decode as
an array of machine integers.  A code is decoded to a tuple only at a
leaf, once per distinct code: on Dynkin type in a memo kept on the quiver
object (Quiver.derived), which every column being a real root bounds, so
its walks share one tuple per root; off it in one made for the call and
dropped with it, since each walk there has its own width.  The prefix
root before letter i is column i of the product so far.
"""

from __future__ import annotations

import struct
import sys
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from operator import mul, neg

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

# Entry widths whose codes decode as an array of unsigned machine integers,
# by bit width: the memoryview formats of this platform.
_CAST_FORMATS = {8 * struct.calcsize(f): f for f in "BHIQ"} if sys.byteorder == "little" else {}


def _width(q: Quiver, length: int, top: int = 0, word: Word | None = None) -> int:
    """Bits per entry that keep the codes of a walk of ``length`` letters
    exact (see the module docstring), and cover entries up to ``top``.  Off
    Dynkin type a walk along a prefix of ``word`` with positive prefix
    roots is bounded by the heights along it instead."""
    if q.is_dynkin:
        bound = DYNKIN_ROOT_BOUND
    elif word is not None:
        bound = _height_bound(q, word)
    else:
        bound = (1 + max(a for adj in q.adjacency for _, a in adj)) ** length
    top = max(bound, top)
    if top <= DYNKIN_ROOT_BOUND:
        return DYNKIN_ROOT_BOUND.bit_length()
    # wider entries take a whole machine integer each where one fits, so
    # that _Packing decodes them with one cast
    bits = top.bit_length()
    return min((w for w in _CAST_FORMATS if w >= bits), default=bits)


def _height_bound(q: Quiver, word: Word) -> int:
    """The largest |height|, the sum of the entries, of a column on the walk
    along ``word`` up to the first letter whose prefix root is negative,
    where every walk along a word stops.  Every column is a real root, so
    sign-coherent: no entry passes its height in absolute value, and the
    column is negative exactly when its height is.  Heights are the columns
    summed, so they follow the walk as the codes do, on small ints."""
    heights, top = [1] * q.n, 1
    for i in word:
        root = heights[i - 1]
        if root < 0:
            break
        for j, a in q.adjacency[i - 1]:
            heights[j - 1] += a * root
            top = max(top, abs(heights[j - 1]))
        heights[i - 1] = -root
    return top


class _Packing(dict):
    """The packed columns of one quiver at one width: the codes of e_1..e_n
    and each vertex's neighbours, listed once per arrow, both indexed by
    vertex (index 0 unused); as a dict, code -> vector, decoding each code
    once, and ``codes`` the other way round for every decoded code."""

    __slots__ = ("n", "width", "units", "links", "codes", "cast")

    def __init__(self, q: Quiver, width: int):
        self.n, self.width = q.n, width
        self.units = [0] + [1 << (width * j) for j in range(q.n)]
        self.links = [()] + [tuple(j for j, a in adj for _ in range(a)) for adj in q.adjacency]
        self.codes: dict[IntVector, int] = {}
        self.cast = _CAST_FORMATS.get(width)

    def __missing__(self, code: int) -> IntVector:
        # a sign-coherent code: the digits of |code|, negated when code < 0
        width, n = self.width, self.n
        if self.cast:
            digits = tuple(memoryview(abs(code).to_bytes(width * n // 8, "little")).cast(self.cast))
        else:
            low = (1 << width) - 1
            digits = tuple(abs(code) >> (width * j) & low for j in range(n))
        v = self[code] = digits if code >= 0 else tuple(map(neg, digits))
        self.codes[v] = code
        return v

    def encode(self, v: IntVector) -> int:
        return sum(map(mul, v, self.units[1:]))

    def matrix(self, cols: list[int]) -> Matrix:
        return tuple(zip(*map(self.__getitem__, cols[1:])))


def _packing(q: Quiver, length: int, top: int = 0, word: Word | None = None) -> _Packing:
    """The packing for walks as _width bounds them: the quiver's kept one
    when its width is the Dynkin one, whose memo holds at most twice the
    positive root count of vectors, else a new one for the caller's walks
    alone, since off Dynkin type every walk has its own width."""
    if not q.is_dynkin or top > DYNKIN_ROOT_BOUND:
        return _Packing(q, _width(q, length, top, word))
    if (pack := q.derived.get("packing")) is None:
        pack = q.derived["packing"] = _Packing(q, _width(q, length))
    return pack


def _reflect(cols: list[int], links: list[Word], i: int, root: int) -> None:
    """Right-multiply the column codes by s_i in place; ``root`` is code i."""
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
        _reflect(cols, links, i, root)
    return None, cols, pack


@dataclass(frozen=True, eq=False)
class WeylElement:
    """A group element: reduced word plus integer action matrix.

    Two elements are equal exactly when their matrices agree; the stored
    word is one reduced expression among possibly many.
    """

    quiver: Quiver
    word: Word
    matrix: Matrix

    def __eq__(self, other: object) -> bool:
        return isinstance(other, WeylElement) and self.matrix == other.matrix

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
    reduced, matrix = _reduce(q, word)
    return WeylElement(q, reduced, matrix)


def identity_element(q: Quiver) -> WeylElement:
    return WeylElement(q, (), tuple(unit_vector(q.n, i) for i in range(1, q.n + 1)))


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


def _prefix_roots(q: Quiver, word: Word) -> tuple[IntVector, ...] | None:
    """Roots e_{i1}, s_{i1} e_{i2}, ... or None if one goes negative."""
    roots: list[int] = []
    neg_k, _, pack = _walk(q, word, roots=roots)
    return None if neg_k is not None else tuple(map(pack.__getitem__, roots))


def is_reduced(q: Quiver, word) -> bool:
    word = _check_word(q, word)
    roots = _prefix_roots(q, word)
    return roots is not None and len(set(roots)) == len(roots)


def inversion_set(q: Quiver, word) -> InversionSet:
    word = _check_word(q, word)
    roots = _prefix_roots(q, word)
    if roots is None:
        raise NonReducedWordError("word is not reduced: a prefix root went negative")
    if len(set(roots)) != len(roots):
        raise InternalInvariantError("positive prefix roots repeated on a non-reduced word")
    return InversionSet(roots)


# _reduce deletes one letter pair a pass, and each pass walks the word up
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
    return _reduce(q, word)[0]


def _reduce(q: Quiver, word) -> tuple[Word, Matrix]:
    """reduce_word's reduced word with the matrix of the element, read off
    the last, complete walk."""
    word, walked = _check_word(q, word), 0
    while True:
        roots: list[int] = []
        neg_k, cols, pack = _walk(q, word, roots)
        if neg_k is None:
            return word, pack.matrix(cols)
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


def _sorting_walk(q: Quiver, length: int, pack: _Packing, roots=None, follow: Word | None = None):
    """Walk c^oo, c = q.coxeter_word (sorted once per quiver object), along
    one path, on the column codes of ``pack``.

    Copy k of c visits, in c order, only the letters that copy k-1 kept; a
    letter skipped once is retired for good, so the letter sets of the
    copies are nested.  After the letters u so far the walk keeps letter i
    when the code of u e_i is in ``roots`` (when None: when u e_i is
    positive) and, when ``follow`` is given, i is its next letter.  It stops
    once it has ``length`` letters or no letter is left, and returns the
    word, the column codes of its product, and the codes of the kept and of
    the retired roots.  A kept positive root makes the word longer, so a
    word whose kept roots are all positive is reduced and its columns are
    the element's matrix.
    """
    cols, links = pack.units.copy(), pack.links
    word: list[int] = []
    kept: list[int] = []
    retired: list[int] = []
    active, k = q.coxeter_word, 0
    while active and k < length:
        still = []
        for i in active:
            root = cols[i]
            if (root > 0 if roots is None else root in roots) and (follow is None or follow[k] == i):
                kept.append(root)
                still.append(i)
                _reflect(cols, links, i, root)
                k += 1
                if k == length:
                    break
            else:
                retired.append(root)
        word += still
        active = still
    return tuple(word), cols, kept, retired


def sorting_element(q: Quiver, roots, length: int) -> WeylElement:
    """The element spelled by the c-sorting word, c = coxeter_of_quiver(q),
    of the element whose inversions are ``roots``, any iterable of vectors,
    stopped after ``length`` letters: the leftmost subword of c^oo that
    spells it, with letters retired once skipped.

    After the letters u so far the walk keeps letter i exactly when u e_i is
    in ``roots``, which is s_i being a left descent of u^{-1} w.  A vector
    that is not sign-coherent is never u e_i and is left out.  A kept root
    is a new positive root, so the word is reduced with distinct inversions,
    and the walk's columns are the element's matrix.  When every vector is
    a column that the quiver's kept Dynkin packing has decoded, the codes
    are looked up rather than encoded.
    """
    roots = list(roots)
    pack = q.derived.get("packing")
    codes = {None} if pack is None else set(map(pack.codes.get, roots))
    if None in codes:
        vectors = [r for r in roots if len(r) == q.n and (min(r, default=0) >= 0 or max(r) <= 0)]
        pack = _packing(q, length, max(map(abs, chain.from_iterable(vectors)), default=0))
        codes = set(map(pack.encode, vectors))
    word, cols, _, _ = _sorting_walk(q, length, pack, codes)
    return WeylElement(q, word, pack.matrix(cols))


def longest_element(q: Quiver) -> tuple[Word, tuple[IntVector, ...]]:
    """The c-sorting word of w_0 on a Dynkin quiver, c = coxeter_of_quiver(q),
    and its inversions in word order, every positive root once: the walk of
    sorting_element over Inv(w_0), all positive roots, keeps i exactly when
    u e_i is positive.  A word short of the type's root count is an error."""
    n = q.dynkin.positive_root_count
    pack = _packing(q, n)
    word, _, kept, _ = _sorting_walk(q, n, pack)
    if len(word) < n:
        raise InternalInvariantError("the c-sorting word of w_0 stopped short")
    return word, tuple(map(pack.__getitem__, kept))


def c_sorting_element(q: Quiver, w: WeylElement) -> tuple[WeylElement, frozenset[IntVector]] | None:
    """The sortability decision for c = coxeter_of_quiver(q): when w is
    c-sortable, the element spelled by its c-sorting word, the leftmost
    subword of c^oo that spells w, together with Inv(w); None otherwise.
    w is c-sortable when that word uses nested letter sets J1 >= J2 >= ...
    in the copies of c.  An element of another quiver raises
    QuiverMismatchError.

    First one walk along c^oo follows w.word: after the letters u so far it
    keeps letter i exactly when i is the next letter of w.word and u e_i is
    positive, and notes the root u e_i of every letter it retires.  Suppose
    it spells all of w.word, and no retired root is among the kept ones,
    which are distinct.  The kept roots are the prefix roots of w.word, all
    positive, so w.word is reduced and they are Inv(w).  At every letter
    the walk of sorting_element over Inv(w) then chooses as this walk did:
    it keeps i when u e_i is in Inv(w), which every kept root is and no
    retired root is.  Both walks stop at the same leaf, so w.word is the
    c-sorting word of w, w is c-sortable, and the leaf is
    sorting_element(q, Inv(w), w.length).  The last two conditions follow
    from the first: a retired letter i never comes back, and u e_i in
    Inv(w) would make s_i a left descent of u^{-1} w, which the rest of
    w.word spells without i.  They are checked all the same, on the codes,
    at no measurable cost.

    Any other outcome, also for a c-sortable element given by another
    reduced word, falls back to sorting_element over inversion_set(q,
    w.word): w is c-sortable exactly when that element has the length of w.
    After the letters u so far, that walk keeps i exactly when s_i is a left
    descent of u^{-1} w, so it keeps what the leftmost subword keeps until
    it meets a retired letter i that the subword would keep.  On a
    c-sortable w none comes, and the walk spells the c-sorting word.
    Otherwise s_i is then a left descent of what is left to spell, which
    the letters still active cannot spell, so the walk stops short.
    """
    if w.quiver != q:
        raise QuiverMismatchError("element does not live on the given quiver")
    word = w.word
    pack = _packing(q, len(word), word=word)
    leaf, cols, kept, retired = _sorting_walk(q, len(word), pack, None, word)
    codes = set(kept)
    if len(leaf) == len(word) and len(codes) == len(kept) and codes.isdisjoint(retired):
        return WeylElement(q, leaf, pack.matrix(cols)), frozenset(map(pack.__getitem__, kept))
    roots = inversion_set(q, word).root_set
    element = sorting_element(q, roots, w.length)
    return (element, roots) if element.length == w.length else None


def is_c_sortable(q: Quiver, w: WeylElement) -> bool:
    """Sortability for c = coxeter_of_quiver(q), as c_sorting_element decides it."""
    return c_sorting_element(q, w) is not None


# The bijection's two sides have one count, the Coxeter-Catalan number, so
# this bounds both: enumerate_c_sortable and torsion.enumerate_tfc refuse a
# Dynkin type past it from the type, before any walk or table.  It admits
# E8 (25,080), D9 (35,750) and linear A10 (58,786); linear A11 (208,012) and
# D10 (136,136) are refused.
SORTABLE_GUARD = 10**5

# enumerate_c_sortable holds at most this many letters.  Off Dynkin type a
# component's group is infinite and each prefix of its c^oo is reduced and
# c-sortable (Speyer), so a bound L lists L(L+1)/2 letters at least.  This
# admits Kronecker to length 4,471 (0.3 s, 108 MB peak RSS on a 2-core Xeon)
# and T_{2,3,7} to length 12 (139,572 letters).
SORTABLE_LETTER_GUARD = 10**7


def enumerate_c_sortable(q: Quiver, length_bound: int | None = None) -> list[WeylElement]:
    """All c-sortable elements of length at most ``length_bound``.

    The leaves of a tree walk along c^oo, with letters retired once skipped
    as in _sorting_walk, that branches at every letter whose prefix root is
    positive, keeping it on one branch and retiring it on the other, and
    retires every other letter; a leaf has ``length_bound`` letters or no
    letter left, and only there are its codes decoded.  Each reduced
    subword of c^oo with nested letter sets is one leaf, and it is the
    c-sorting word of its element, so no element comes twice.  With
    ``length_bound=None`` the quiver must be Dynkin, the bound is its number
    of positive roots, and a type whose Coxeter-Catalan count passes
    SORTABLE_GUARD is refused before the walk, as is off it a bound whose
    listing must pass SORTABLE_LETTER_GUARD; otherwise ResourceGuardError is
    raised as soon as the listing would pass either guard.
    """
    if length_bound is None:
        if not q.is_dynkin:
            raise UnsupportedScopeError("an explicit length bound is required off Dynkin type")
        if q.dynkin.coxeter_catalan > SORTABLE_GUARD:
            raise ResourceGuardError(
                f"{q.dynkin.coxeter_catalan} c-sortable elements exceed the guard {SORTABLE_GUARD}"
            )
        length_bound = q.dynkin.positive_root_count
    if length_bound < 0:
        raise InvalidParameterError("length bound must be nonnegative")
    if not q.is_dynkin and length_bound * (length_bound + 1) // 2 > SORTABLE_LETTER_GUARD:
        raise ResourceGuardError(f"length {length_bound} lists past the guard {SORTABLE_LETTER_GUARD} letters")

    pack = _packing(q, length_bound)
    links, out, held = pack.links, [], 0
    stack = [((), pack.units, q.coxeter_word, ())]
    while stack:
        word, cols, todo, still = stack.pop()
        if not todo:
            todo, still = still, ()
        if len(word) == length_bound or not todo:
            if len(out) == SORTABLE_GUARD:
                raise ResourceGuardError(f"c-sortable elements exceed the guard {SORTABLE_GUARD}")
            held += len(word)
            if held > SORTABLE_LETTER_GUARD:
                raise ResourceGuardError(f"c-sortable elements exceed the guard {SORTABLE_LETTER_GUARD} letters")
            out.append(WeylElement(q, word, pack.matrix(cols)))
            continue
        i, todo = todo[0], todo[1:]
        stack.append((word, cols, todo, still))  # i retired
        root = cols[i]
        if root > 0:  # i kept
            cols = cols.copy()
            _reflect(cols, links, i, root)
            stack.append((word + (i,), cols, todo, still + (i,)))
    out.sort(key=lambda w: (w.length, w.word))
    return out


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
