"""The Weyl group of a quiver acting on Z^n.

Group elements are stored as a reduced word together with the n x n integer
matrix of their action (column j is the image of e_j).  The action is
faithful, so matrix equality is element equality - a canonical form that
works unchanged for infinite groups.  Reducedness is decided by the
prefix-root criterion: a word is reduced iff reflecting the simple roots
along its prefixes never produces a negative vector, and the first negative
prefix root pinpoints a deletable letter pair.

Words are walked on a list of columns: right multiplication by s_i negates
column i and adds a_ij times the old column i to each neighbour j, so a step
costs O(n (deg i + 1)) instead of an n x n product.  The prefix root before
letter i is column i of the product so far.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import add, neg

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


Columns = list[IntVector]


def _identity_columns(n: int) -> Columns:
    zero = (0,) * n
    return [zero[:j] + (1,) + zero[j + 1 :] for j in range(n)]


def _rows(cols: Columns) -> Matrix:
    return tuple(zip(*cols))


def _reflect_columns(q: Quiver, cols: Columns, i: int) -> None:
    """Right-multiply the column list by s_i in place."""
    ci = cols[i - 1]
    for j, a in q.adjacency[i - 1]:
        cols[j - 1] = tuple(map(add, cols[j - 1], ci if a == 1 else [a * y for y in ci]))
    cols[i - 1] = tuple(map(neg, ci))


def _walk(q: Quiver, word: Word, roots: list[IntVector] | None = None) -> tuple[int | None, Columns]:
    """Multiply out the letters of ``word`` from the identity.  Stops before
    the first letter whose prefix root has a negative entry and returns its
    index with the product so far; returns None with the whole product when
    no prefix root goes negative.  Each nonnegative prefix root is appended
    to ``roots`` when given."""
    cols = _identity_columns(q.n)
    for k, letter in enumerate(word):
        root = cols[letter - 1]
        if min(root) < 0:
            return k, cols
        if roots is not None:
            roots.append(root)
        _reflect_columns(q, cols, letter)
    return None, cols


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
    return WeylElement(q, (), _rows(_identity_columns(q.n)))


def compose(a: WeylElement, b: WeylElement) -> WeylElement:
    """The product a.b (a acting after b)."""
    if a.quiver != b.quiver:
        raise QuiverMismatchError("elements live over different quivers")
    return weyl_element(a.quiver, a.word + b.word)


def invert(a: WeylElement) -> WeylElement:
    return weyl_element(a.quiver, a.word[::-1])


@dataclass(frozen=True)
class InversionSet:
    """Inversions of a reduced word: prefix-reflected simple roots, in word
    order.  As a set this is {positive roots alpha : w^{-1} alpha < 0} and
    does not depend on the chosen reduced word."""

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


def _prefix_roots(q: Quiver, word: Word) -> tuple[IntVector, ...] | None:
    """Roots e_{i1}, s_{i1} e_{i2}, ... or None if one goes negative."""
    roots: list[IntVector] = []
    neg_k, _ = _walk(q, word, roots=roots)
    return None if neg_k is not None else tuple(roots)


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


def reduce_word(q: Quiver, word) -> Word:
    """A reduced word for the same element.

    Repeatedly locates the first prefix root that goes negative and deletes
    the two letters the deletion condition pairs up; already-reduced input
    is returned unchanged.
    """
    return _reduce(q, word)[0]


def _reduce(q: Quiver, word) -> tuple[Word, Matrix]:
    """reduce_word's reduced word with the matrix of the element, read off
    the last, complete walk."""
    word = _check_word(q, word)
    while True:
        neg_k, cols = _walk(q, word)
        if neg_k is None:
            return word, _rows(cols)
        # Walk the suffix backwards; the letter whose reflection first sends
        # the accumulated root negative must be that root itself.
        u = unit_vector(q.n, word[neg_k])
        t = neg_k - 1
        while t >= 0:
            nxt = simple_reflection(q, word[t], u)
            if any(x < 0 for x in nxt):
                break
            u = nxt
            t -= 1
        if t < 0 or u != unit_vector(q.n, word[t]):
            raise InternalInvariantError("deletion condition failed to locate a letter pair")
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


def _sorting_walk(q: Quiver, length: int, choices, roots: list[IntVector] | None = None):
    """Walk c^oo, c = q.coxeter_word (sorted once per quiver object), as a
    tree of subwords.

    Copy k of c visits, in c order, only the letters that copy k-1 kept; a
    letter skipped once is retired for good, so the letter sets of the
    copies are nested.  At letter i, after the letters u so far,
    ``choices(i, u e_i)`` lists the branches: True keeps i and appends u e_i
    to ``roots`` when given (meant for one-branch walks), False retires i.
    Yields ``(word, cols)``, the word and the columns of its product, at
    each leaf: once the word has ``length`` letters or no letter is left.
    A kept letter's root is positive, so every leaf word is reduced and
    ``cols`` is already the element's matrix; sorting_element and
    enumerate_c_sortable build their elements from the leaf as it is.
    """
    stack = [((), _identity_columns(q.n), q.coxeter_word, ())]
    while stack:
        word, cols, todo, kept = stack.pop()
        if not todo:
            todo, kept = kept, ()
        if len(word) == length or not todo:
            yield word, cols
            continue
        i, todo = todo[0], todo[1:]
        for keep in choices(i, cols[i - 1]):
            if keep:
                if roots is not None:
                    roots.append(cols[i - 1])
                new_cols = list(cols)
                _reflect_columns(q, new_cols, i)
                stack.append((word + (i,), new_cols, todo, kept + (i,)))
            else:
                stack.append((word, cols, todo, kept))


def sorting_element(q: Quiver, roots: frozenset[IntVector], length: int) -> WeylElement:
    """The element spelled by the c-sorting word, c = coxeter_of_quiver(q),
    of the element whose inversions are ``roots``, stopped after ``length``
    letters: the leftmost subword of c^oo that spells it, with letters
    retired once skipped.

    After the letters u so far the walk keeps letter i exactly when u e_i is
    in ``roots``, which is s_i being a left descent of u^{-1} w.  A kept root
    is a new positive root, so the word is reduced with distinct inversions,
    and the walk's columns are the element's matrix.
    """
    word, cols = next(_sorting_walk(q, length, lambda i, root: (root in roots,)))
    return WeylElement(q, word, _rows(cols))


def longest_element(q: Quiver) -> tuple[Word, tuple[IntVector, ...]]:
    """The c-sorting word of w_0 on a Dynkin quiver, c = coxeter_of_quiver(q),
    and its inversions in word order, every positive root once: the walk of
    sorting_element over Inv(w_0), all positive roots, keeps i exactly when
    u e_i is positive.  A word short of the type's root count is an error."""
    n, kept = q.dynkin.positive_root_count, []
    word, _ = next(_sorting_walk(q, n, lambda i, root: (min(root) >= 0,), kept))
    if len(word) < n:
        raise InternalInvariantError("the c-sorting word of w_0 stopped short")
    return word, tuple(kept)


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
    w.word spells without i.  They are checked all the same, at no
    measurable cost.

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
    kept: list[IntVector] = []
    retired: set[IntVector] = set()

    def follow(i: int, root: IntVector) -> tuple[bool]:
        # the walk stops at len(word) letters, so word[len(kept)] exists
        if word[len(kept)] == i and min(root) >= 0:
            return (True,)
        retired.add(root)
        return (False,)

    leaf, cols = next(_sorting_walk(q, len(word), follow, kept))
    roots = frozenset(kept)
    if len(leaf) == len(word) and len(roots) == len(kept) and retired.isdisjoint(roots):
        return WeylElement(q, leaf, _rows(cols)), roots
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


def enumerate_c_sortable(q: Quiver, length_bound: int | None = None) -> list[WeylElement]:
    """All c-sortable elements of length at most ``length_bound``.

    The leaves of the sorting walk that keeps a letter whenever its prefix
    root is positive: each reduced subword of c^oo with nested letter sets
    is one leaf, and it is the c-sorting word of its element, so no element
    comes twice.  With ``length_bound=None`` the quiver must be Dynkin, the
    bound is its number of positive roots, and a type whose Coxeter-Catalan
    count passes SORTABLE_GUARD is refused before the walk; otherwise
    ResourceGuardError is raised as soon as the listing would pass it.
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

    out: list[WeylElement] = []
    for word, cols in _sorting_walk(
        q, length_bound, lambda i, root: (False, True) if min(root) >= 0 else (False,)
    ):
        if len(out) == SORTABLE_GUARD:
            raise ResourceGuardError(f"c-sortable elements exceed the guard {SORTABLE_GUARD}")
        out.append(WeylElement(q, word, _rows(cols)))
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
