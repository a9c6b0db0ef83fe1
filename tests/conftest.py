"""Shared quiver builders and independent brute-force oracles.

The oracles deliberately avoid the library's own enumeration code paths:
they walk orbits and groups with plain set closures so that library results
can be checked against a second computation.  reference_decompose solves
for multiplicities from every Hom rank, with none skipped;
reference_class_masks finds the torsion-free classes by closing under the
oracle's legs, without the Hom table's support.
"""

from __future__ import annotations

import gc
import itertools

import pytest

from quivrep import weyl
from quivrep.errors import InternalInvariantError
from quivrep.linrep import FieldSpec, Representation, dynkin_category, hom_dim
from quivrep.quiver import Quiver, orientations, unit_vector
from quivrep.weyl import coxeter_of_quiver, simple_reflection


# -- quiver builders ---------------------------------------------------------

A2_LEFT = Quiver(2, ((2, 1),))  # 1 <- 2, realizes c = s1 s2
A2_RIGHT = Quiver(2, ((1, 2),))  # 1 -> 2
KRONECKER = Quiver(2, ((1, 2), (1, 2)))

A3_123 = Quiver(3, ((1, 2), (2, 3)))  # 1 -> 2 -> 3
A3_MID_SINK = Quiver(3, ((1, 2), (3, 2)))  # 1 -> 2 <- 3
A3_MID_SOURCE = Quiver(3, ((2, 1), (2, 3)))  # 1 <- 2 -> 3
A3_321 = Quiver(3, ((2, 1), (3, 2)))  # 1 <- 2 <- 3
A2_PLUS_A1 = Quiver(3, ((2, 1),))  # 1 <- 2, vertex 3 isolated

D5_BIPARTITE = Quiver(5, ((1, 2), (3, 2), (3, 4), (3, 5)))  # sinks 2, 4, 5
E6_BIPARTITE = Quiver(6, ((1, 2), (3, 2), (3, 4), (5, 4), (3, 6)))  # sinks 2, 4, 6
# E7: the path 1 - ... - 6 with vertex 7 hanging off 3, zigzag on the path
E7_ZIGZAG = Quiver(7, ((2, 1), (2, 3), (4, 3), (4, 5), (6, 5), (3, 7)))
# E8: the path 1 - ... - 7 with vertex 8 on 3, the edges oriented alternately
E8_ZIGZAG = Quiver(8, ((2, 1), (2, 3), (4, 3), (4, 5), (6, 5), (6, 7), (8, 3)))


def linear(n: int) -> Quiver:
    """1 -> 2 -> ... -> n, the first of path_orientations(n)."""
    return Quiver(n, tuple((k, k + 1) for k in range(1, n)))


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


def simple_reflection_matrix(q: Quiver, i: int):
    """The dense matrix of s_i: column j is s_i e_j."""
    n = q.n
    cols = [simple_reflection(q, i, unit_vector(n, j)) for j in range(1, n + 1)]
    return tuple(tuple(cols[c][r] for c in range(n)) for r in range(n))


def identity_matrix(n: int):
    return tuple(tuple(1 if r == c else 0 for c in range(n)) for r in range(n))


def mat_mul(a, b):
    n = len(a)
    return tuple(
        tuple(sum(a[r][k] * b[k][c] for k in range(n)) for c in range(n)) for r in range(n)
    )


def matrix_of_word(q: Quiver, word):
    """Matrix of any word, reduced or not: column j is e_j with the letters
    applied right to left, each by the public simple_reflection."""
    cols = []
    for j in range(1, q.n + 1):
        v = unit_vector(q.n, j)
        for letter in reversed(word):
            v = simple_reflection(q, letter, v)
        cols.append(v)
    return tuple(zip(*cols))


def group_elements_by_matrix(q: Quiver, max_length: int | None = None):
    """All group elements as {matrix: shortest word}, by breadth-first search
    over right multiplication by generators."""
    gens = [simple_reflection_matrix(q, i) for i in range(1, q.n + 1)]
    start = identity_matrix(q.n)
    elements = {start: ()}
    frontier = [start]
    depth = 0
    while frontier and (max_length is None or depth < max_length):
        depth += 1
        nxt = []
        for m in frontier:
            word = elements[m]
            for i, g in enumerate(gens, start=1):
                prod = mat_mul(m, g)
                if prod not in elements:
                    elements[prod] = word + (i,)
                    nxt.append(prod)
        frontier = nxt
    return elements


def reference_sorting_word(q: Quiver, target, lengths: dict):
    """The c-sorting word of the element with matrix ``target`` if it is
    c-sortable, else None, from the definition: the greedy leftmost subword
    of c^oo that spells it, then a check that the letter sets of the copies
    of c are nested.  ``lengths`` maps matrices to lengths (from
    group_elements_by_matrix); a letter is taken when it is a left descent
    of what is left to spell, which is dense products and length lookups."""
    gens = {i: simple_reflection_matrix(q, i) for i in range(1, q.n + 1)}
    c = coxeter_of_quiver(q)
    rest, word, copies = target, [], []
    while lengths[rest]:
        taken = []
        for i in c:
            shorter = mat_mul(gens[i], rest)
            if lengths.get(shorter, lengths[rest] + 1) < lengths[rest]:
                rest = shorter
                taken.append(i)
        word += taken
        copies.append(set(taken))
    nested = all(later <= earlier for earlier, later in zip(copies, copies[1:]))
    return tuple(word) if nested else None


def reference_decompose(v):
    """Multiplicities {root: m} of V in root order, from all N Hom ranks
    dim Hom(I_b, V) and a full back-substitution in reverse hom_order over
    the Hom table's support; checked to be nonnegative and to add up to the
    dimension vector."""
    cat = dynkin_category(v.quiver, v.field)
    if not any(v.dims):
        return {}
    homs = [hom_dim(cat.indec(r), v) for r in cat.roots]
    mults = [0] * len(homs)
    for b in reversed(cat.hom_order):
        mults[b] = homs[b] - sum(t * mults[a] for a, t in cat.hom_support[b])
    if any(m < 0 for m in mults):
        raise InternalInvariantError("negative multiplicity")
    out = {root: m for root, m in zip(cat.roots, mults) if m}
    if tuple(sum(m * root[k] for root, m in out.items()) for k in range(v.quiver.n)) != v.dims:
        raise InternalInvariantError("multiplicities do not add up to the dimension vector")
    return out


def reference_class_masks(cat) -> set[int]:
    """Every torsion-free class of a DynkinCategory as an int mask of its
    roots, by the closure search: breadth-first from the empty class, each
    step closes a class F with one more root k whose proper subrepresentation
    requirements already lie in F.  A root brought in adds its subrep mask
    and its extension mask with every member, itself included.  It reaches
    every class U: a root of U outside F of least height is such a k, and
    the closure stays inside U."""
    n = len(cat.roots)

    def close(members: int, k: int) -> int:
        members |= 1 << k
        work = [k]
        while work:
            r = work.pop()
            need = cat.subrep_masks[r]
            for s in range(n):
                if members >> s & 1:
                    need |= cat.extension_masks[r][s]
            need &= ~members
            members |= need
            work.extend(j for j in range(n) if need >> j & 1)
        return members

    full, seen = (1 << n) - 1, {0}
    queue = [0]
    for closed in queue:  # grows as it is read
        outside = full & ~closed
        for k in range(n):
            if cat.subrep_masks[k] & outside == 1 << k:  # k outside, its subreps inside
                grown = close(closed, k)
                if grown not in seen:
                    seen.add(grown)
                    queue.append(grown)
    return seen


def live_packings() -> int:
    """The _Packing objects alive after a collection."""
    gc.collect()
    return sum(isinstance(o, weyl._Packing) for o in gc.get_objects())


def random_rep(q: Quiver, field: FieldSpec, rng, max_dim: int = 3) -> Representation:
    """Uniformly random dims in 0..max_dim and matrix entries; rng is a
    ``random.Random`` so experiments stay reproducible."""
    dims = tuple(rng.randrange(max_dim + 1) for _ in range(q.n))
    mats = tuple(
        tuple(tuple(rng.randrange(field.p) for _ in range(dims[s - 1])) for _ in range(dims[t - 1]))
        for s, t in q.arrows
    )
    return Representation(q, field, dims, mats)


def all_words(n: int, max_length: int):
    for length in range(max_length + 1):
        yield from itertools.product(range(1, n + 1), repeat=length)


@pytest.fixture
def rng():
    import random

    return random.Random(20240811)
