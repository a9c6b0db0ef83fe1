"""Dense exact linear algebra over F_p for small primes p.

Matrices are :data:`~quivrep.quiver.Matrix` values: tuples of row tuples of
Python ints, with entries reduced into 0..p-1.  A matrix without rows has no
width of its own, so the functions that must know a width take it as an
argument.  Kernels and quotient projections are read off one
reduced-row-echelon form, so every basis handed out is canonical for its
input: rerunning a computation reproduces it bit for bit.  A kernel basis
is the identity at the free columns of its input, so the coordinates of a
kernel vector are its entries there; a quotient projection is the identity
at the non-pivot positions.  Ranks eliminate sparse rows forward (rank):
a sparse row over F_p is p int masks, one bit-plane per entry value
(Boothby-Bradshaw bitslicing), with bit k of mask x set when the entry at
column k is x; mask 0 stays empty.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import combinations, product

from .quiver import Matrix


def zeros(rows: int, cols: int) -> Matrix:
    return ((0,) * cols,) * rows


def eye(n: int) -> Matrix:
    return tuple(tuple(int(r == c) for c in range(n)) for r in range(n))


def transpose(mat: Matrix, cols: int) -> Matrix:
    """The transpose of a matrix with ``cols`` columns."""
    return tuple(tuple(row[c] for row in mat) for c in range(cols))


def mat_mul(a: Matrix, b: Matrix, p: int, cols: int) -> Matrix:
    """The product a b, where b has ``cols`` columns."""
    bt = transpose(b, cols)
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) % p for col in bt) for row in a)


def rref(mat, p: int) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and pivot columns of a nested int sequence."""
    a = [[int(x) % p for x in row] for row in mat]
    rows = len(a)
    pivots: list[int] = []
    r = 0
    for c in range(len(a[0]) if a else 0):
        if r == rows:
            break
        pivot_row = next((k for k in range(r, rows) if a[k][c]), None)
        if pivot_row is None:
            continue
        a[r], a[pivot_row] = a[pivot_row], a[r]
        inv = pow(a[r][c], p - 2, p)
        row = a[r] = [x * inv % p for x in a[r]]
        for k in range(rows):
            f = a[k][c]
            if k != r and f:
                a[k] = [(x - f * y) % p for x, y in zip(a[k], row)]
        pivots.append(c)
        r += 1
    return tuple(map(tuple, a)), pivots


class Planes(tuple):
    """Sparse rows for rank, each a list of p int masks (module docstring)."""


def bits(mask: int):
    """Indices of the set bits of a mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def rank(rows, p: int) -> int:
    """Rank over F_p of sparse rows in a Planes, or of a nested int sequence,
    whose rows are sliced into planes with entries read mod p.

    Rank does not depend on the order of the columns, so a row is reduced
    forward only against pivot rows keyed by their leading column: the top
    bit over F_2 and F_3, the least over F_5, where pivots lead with 1.
    Over F_2 a row is its plane 1, over F_3 its planes 1 and 2, and over
    F_5 a dict {column: entry} read off its planes.
    """
    if not isinstance(rows, Planes):
        rows = [[0] + [sum(1 << k for k, x in enumerate(row) if x % p == e) for e in range(1, p)] for row in rows]
    pivots: dict = {}
    if p == 3:  # a row leads with 1 when plane 1 is the larger
        for _, a, b in rows:
            while n1 := a | b:
                if (lead := n1.bit_length()) not in pivots:
                    pivots[lead] = (a, b, n1) if a > b else (b, a, n1)
                    break
                pa, pb, n2 = pivots[lead]
                if a > b:  # add minus the pivot, so that 1 + 2 = 0 at the lead
                    pa, pb = pb, pa
                a, b = a & ~n2 | pa & ~n1 | b & pb, b & ~n2 | pb & ~n1 | a & pa
        return len(pivots)
    for row in rows:
        r = row[1] if p == 2 else {k: x for x in range(1, p) for k in bits(row[x])}
        while r:
            lead = r.bit_length() if p == 2 else min(r)
            if lead not in pivots:
                pivots[lead] = r if p == 2 else {k: x * pow(r[lead], p - 2, p) % p for k, x in r.items()}
                break
            piv = pivots[lead]  # r less r[lead] times piv, without zero entries
            r = r ^ piv if p == 2 else {
                k: y for k in r | piv if (y := (r.get(k, 0) - r[lead] * piv.get(k, 0)) % p)
            }
    return len(pivots)


def kernel_basis(mat, p: int, cols: int) -> tuple[Matrix, list[int]]:
    """Columns form the canonical echelon basis of the right kernel of a
    matrix with ``cols`` columns; also returns the free columns, the rows at
    which that basis is the identity."""
    r, pivots = rref(mat, p)
    free = [c for c in range(cols) if c not in pivots]
    basis = [[0] * len(free) for _ in range(cols)]
    for j, f in enumerate(free):
        basis[f][j] = 1
        for ri, pc in enumerate(pivots):
            basis[pc][j] = -r[ri][f] % p
    return tuple(map(tuple, basis)), free


def cokernel_images(mat: Matrix, p: int) -> tuple[Iterator[tuple[int, ...]], list[int]]:
    """An iterator over the positions j of F^m, built as it is read, of the
    image of e_j under the canonical projection F^m -> F^m / colspace(mat),
    and the non-pivot positions c of the echelon form of the column space,
    the coordinates of the images: e_j itself when j is not a pivot, else
    e_j less the echelon row with pivot j, which is zero at the other
    pivots."""
    r, pivots = rref(tuple(zip(*mat)), p)
    row_at = dict(zip(pivots, r))
    nonpiv = [j for j in range(len(mat)) if j not in row_at]
    images = (
        tuple(-row_at[j][c] % p for c in nonpiv) if j in row_at else tuple(int(c == j) for c in nonpiv)
        for j in range(len(mat))
    )
    return images, nonpiv


def cokernel_projection(mat: Matrix, p: int) -> tuple[Matrix, list[int]]:
    """Matrix of the canonical projection F^m -> F^m / colspace(mat), and
    the non-pivot positions, where it is the identity (cokernel_images)."""
    images, nonpiv = cokernel_images(mat, p)
    return transpose(tuple(images), len(nonpiv)), nonpiv


def subspaces(dim: int, p: int) -> list[Matrix]:
    """Every subspace of F_p^dim as a canonical RREF row-basis (k x dim).

    Ordered by dimension, then pivot set, then free entries; the zero space
    comes first as the rowless matrix.
    """
    out = [zeros(0, dim)]
    for k in range(1, dim + 1):
        for piv in combinations(range(dim), k):
            pivset = set(piv)
            free_positions = [
                (i, c) for i in range(k) for c in range(piv[i] + 1, dim) if c not in pivset
            ]
            for vals in product(range(p), repeat=len(free_positions)):
                m = [[0] * dim for _ in range(k)]
                for i, c in enumerate(piv):
                    m[i][c] = 1
                for (i, c), v in zip(free_positions, vals):
                    m[i][c] = v
                out.append(tuple(map(tuple, m)))
    return out


def count_subspaces(dim: int, p: int) -> int:
    """Number of subspaces of F_p^dim (sum of Gaussian binomials)."""
    total = 0
    for k in range(dim + 1):
        num = den = 1
        for t in range(k):
            num *= p ** (dim - t) - 1
            den *= p ** (k - t) - 1
        total += num // den
    return total
