"""Golden numbers and checks that do not use the code under test.

Every count here comes from the Dynkin type alone, which the benchmark
knows because it builds each quiver from its own edge list: Gabriel's count
of indecomposables (the number of positive roots, n*h/2) and the
Coxeter-Catalan number prod (h + e_i + 1) / (e_i + 1) over the exponents
e_i.  The Weyl group action used to compare two words is recomputed here
from the Cartan matrix of the edge list, not taken from ``quivrep.weyl``.
"""

from __future__ import annotations

from fractions import Fraction

# Coxeter number and exponents of each Dynkin type the benchmark uses.
DYNKIN_DATA = {
    "A1": (2, (1,)),
    "A2": (3, (1, 2)),
    "A3": (4, (1, 2, 3)),
    "A4": (5, (1, 2, 3, 4)),
    "D4": (6, (1, 3, 3, 5)),
    "D5": (8, (1, 3, 4, 5, 7)),
    "E6": (12, (1, 4, 5, 7, 8, 11)),
}

# Underlying graphs on vertices 1..n.  D_n and E_6 branch at vertex 3 or 4
# so that every orientation is a bit string over this fixed edge order.
EDGES = {
    "A1": (),
    "A2": ((1, 2),),
    "A3": ((1, 2), (2, 3)),
    "A4": ((1, 2), (2, 3), (3, 4)),
    "D4": ((1, 4), (2, 4), (3, 4)),
    "D5": ((1, 2), (2, 3), (3, 4), (3, 5)),
    "E6": ((1, 2), (2, 3), (3, 4), (4, 5), (3, 6)),
}


def rank_of(dynkin: str) -> int:
    return len(DYNKIN_DATA[dynkin][1])


def gabriel_count(dynkin: str) -> int:
    """Number of indecomposables: the positive roots, n*h/2 of them."""
    h, exps = DYNKIN_DATA[dynkin]
    return len(exps) * h // 2


def coxeter_catalan(dynkin: str) -> int:
    """Number of c-sortable elements, and of torsion-free classes, for any
    orientation: prod (h + e_i + 1) / (e_i + 1)."""
    h, exps = DYNKIN_DATA[dynkin]
    total = Fraction(1)
    for e in exps:
        total *= Fraction(h + e + 1, e + 1)
    if total.denominator != 1:
        raise ValueError(f"Coxeter-Catalan number of {dynkin} is not an integer")
    return int(total)


def orientation(dynkin: str, bits: int) -> tuple[tuple[int, int], ...]:
    """Arrows of the orientation numbered ``bits``: bit k set points edge k
    from its first vertex to its second."""
    return tuple(
        (a, b) if bits >> k & 1 else (b, a) for k, (a, b) in enumerate(EDGES[dynkin])
    )


def orientation_count(dynkin: str) -> int:
    return 2 ** len(EDGES[dynkin])


# -- the Weyl group action, from the Cartan matrix of the edge list ----------


def cartan(dynkin: str) -> list[list[int]]:
    n = rank_of(dynkin)
    c = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for a, b in EDGES[dynkin]:
        c[a - 1][b - 1] = c[b - 1][a - 1] = -1
    return c


def act(cartan_matrix: list[list[int]], word, v: tuple[int, ...]) -> tuple[int, ...]:
    """s_{w_1} ... s_{w_k} applied to v, each s_i subtracting (e_i, v) e_i."""
    out = list(v)
    for letter in reversed(word):
        i = letter - 1
        out[i] -= sum(cartan_matrix[i][j] * out[j] for j in range(len(out)))
    return tuple(out)


def positive_roots(dynkin: str) -> frozenset[tuple[int, ...]]:
    """Positive roots as the orbit of the simple roots, kept while
    nonnegative; independent of ``quivrep.roots``."""
    c = cartan(dynkin)
    n = len(c)
    found = {tuple(1 if k == j else 0 for k in range(n)) for j in range(n)}
    frontier = set(found)
    while frontier:
        fresh = set()
        for root in frontier:
            for i in range(1, n + 1):
                image = act(c, (i,), root)
                if min(image) >= 0 and image not in found:
                    fresh.add(image)
        found |= fresh
        frontier = fresh
    return frozenset(found)


def regular_vector(dynkin: str) -> tuple[int, ...]:
    """2*rho, the sum of the positive roots.  It pairs positively with every
    simple root, so its stabilizer in the Weyl group is trivial: two words
    name one element iff they send it to the same vector."""
    roots = positive_roots(dynkin)
    return tuple(sum(r[k] for r in roots) for k in range(rank_of(dynkin)))


# -- closure search over oracle tables ----------------------------------------


def count_closed_subsets(roots, sub_req, ext_req) -> int:
    """Number of root subsets S closed under the tables: sub_req[r] within S
    for r in S, and ext_req[(x, z)] within S for x, z in S.

    Breadth-first from the empty set, stepping to close(S + {r}).  Every
    closed U is reached, because U is the closure of its members added one
    at a time and each intermediate closure stays inside U.
    """
    index = {r: k for k, r in enumerate(roots)}
    n = len(roots)

    def mask(rs) -> int:
        m = 0
        for r in rs:
            m |= 1 << index[r]
        return m

    sub = [mask(sub_req[r]) for r in roots]
    ext = [[mask(ext_req[(x, z)]) for z in roots] for x in roots]

    def close(m: int) -> int:
        while True:
            members = [k for k in range(n) if m >> k & 1]
            grown = m
            for x in members:
                grown |= sub[x]
                row = ext[x]
                for z in members:
                    grown |= row[z]
            if grown == m:
                return m
            m = grown

    seen = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for m in frontier:
            for k in range(n):
                if not m >> k & 1:
                    c = close(m | 1 << k)
                    if c not in seen:
                        seen.add(c)
                        nxt.append(c)
        frontier = nxt
    return len(seen)
