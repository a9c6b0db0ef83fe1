"""Exact linear algebra over F_p for small primes p, on sparse rows.

Matrices are :data:`~quivrep.quiver.Matrix` values: tuples of row tuples of
Python ints, with entries reduced into 0..p-1.  A matrix without rows has no
width of its own, so the functions that must know a width take it as an
argument.  Every elimination runs on sparse rows, p int masks each, one
bit-plane per entry value (Boothby-Bradshaw bitslicing), with bit k of mask
x set when the entry at column k is x; mask 0 stays empty.  A Planes holds
such rows, and a nested int sequence is sliced into them.  One pivot table
(_pivots), whose leads are the top columns, serves rank, which counts its
pivots, and rref, which reduces them against one another.  Kernels and
quotient projections hand rref their columns in reverse order, so that the
leads are the least columns, and are read off that reduced row echelon
form, which is unique: every basis handed out is canonical for its input,
and rerunning a computation reproduces it bit for bit.  A kernel basis is
the identity at the free columns of its input, so the coordinates of a
kernel vector are its entries there; a quotient projection is the identity
at the non-pivot positions.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import combinations, compress, product

from .quiver import Matrix


def zeros(rows: int, cols: int) -> Matrix:
    return ((0,) * cols,) * rows


def eye(n: int) -> Matrix:
    return tuple(tuple(int(r == c) for c in range(n)) for r in range(n))


def transpose(mat: Matrix, cols: int) -> Matrix:
    """The transpose of a matrix with ``cols`` columns, which a matrix
    without rows cannot tell."""
    return tuple(zip(*mat)) if mat else ((),) * cols


def mat_mul(a: Matrix, b: Matrix, p: int, cols: int) -> Matrix:
    """The product a b, where b has ``cols`` columns."""
    bt = transpose(b, cols)
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) % p for col in bt) for row in a)


class Planes(tuple):
    """Sparse rows, each a list of p int masks (module docstring)."""


def planes(rows, p: int) -> Planes:
    """A nested int sequence sliced into sparse rows, its entries read mod p."""
    out = []
    for row in rows:
        out.append(masks := [0] * p)
        for k, x in enumerate(row):
            masks[x % p] |= 1 << k
        masks[0] = 0
    return Planes(out)


def combine(coeffs, rows, p: int) -> list[int]:
    """The sparse row sum_k coeffs[k] rows[k] over F_2 or F_3: over F_2 a
    XOR of planes 1, over F_3 a sum of plane pairs as _pivots adds them,
    c r having planes c and 3 - c of r as its planes 1 and 2."""
    a = b = 0
    for c, row in zip(coeffs, rows):
        if c and p == 2:
            a ^= row[1]
        elif c:
            r1, r2 = row[c], row[3 - c]
            a, b = a & ~(r1 | r2) | r1 & ~(a | b) | b & r2, b & ~(r1 | r2) | r2 & ~(a | b) | a & r1
    return [0, a, b][:p]


def bits(mask: int):
    """Indices of the set bits of a mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# b"0", b"1" -> 0, 1: a mask's binary digits as selectors for compress
_DIGITS = bytes.maketrans(b"01", b"\0\1")


def selected(items, mask: int) -> Iterator:
    """The items at the set bits of a mask >= 0, lowest first, as bits
    indexes them: its binary digits, lowest first, select them in one
    compress, with no Python step per bit."""
    return compress(items, bin(mask)[:1:-1].encode().translate(_DIGITS))


def _pivots(rows, p: int) -> dict:
    """The pivot table of sparse rows in a Planes, or of a nested int
    sequence sliced into planes with its entries read mod p: each row is
    reduced forward against the pivot rows keyed by their leads, the top
    column, until it is zero or leads at a new key, where it is kept,
    normalised to lead with 1.  Over F_2 a row is its plane 1 and over F_3
    its planes 1 and 2 with their union, each keyed by its bit length; over
    F_5 it is a dict {column: entry} read off its planes."""
    if not isinstance(rows, Planes):
        rows = planes(rows, p)
    pivots: dict = {}
    if p == 2:
        for _, r in rows:
            while r:
                if (lead := r.bit_length()) not in pivots:
                    pivots[lead] = r
                    break
                r ^= pivots[lead]
    elif p == 3:  # a row leads with 1 when plane 1 is the larger
        for _, a, b in rows:
            while n1 := a | b:
                if (lead := n1.bit_length()) not in pivots:
                    pivots[lead] = (a, b, n1) if a > b else (b, a, n1)
                    break
                pa, pb, n2 = pivots[lead]
                if a > b:  # add minus the pivot, so that 1 + 2 = 0 at the lead
                    pa, pb = pb, pa
                a, b = a & ~n2 | pa & ~n1 | b & pb, b & ~n2 | pb & ~n1 | a & pa
    else:
        for row in rows:
            r = {k: x for x in range(1, p) for k in bits(row[x])}
            while r:
                if (lead := max(r)) not in pivots:
                    pivots[lead] = {k: x * pow(r[lead], p - 2, p) % p for k, x in r.items()}
                    break
                piv = pivots[lead]  # r less r[lead] times piv, without zero entries
                r = {k: y for k in r | piv if (y := (r.get(k, 0) - r[lead] * piv.get(k, 0)) % p)}
    return pivots


def rank(rows, p: int) -> int:
    """Rank over F_p of sparse rows in a Planes or of a nested int sequence.
    It does not depend on the order of the columns, and a Hom system takes
    fewer steps to eliminate from its top column than from its least."""
    return len(_pivots(rows, p))


def rref(rows, p: int) -> dict[int, list[int]]:
    """Reduced row echelon form of sparse rows in a Planes or of a nested
    int sequence, led by the top columns, the usual form of the rows read
    from the right: its nonzero rows as sparse rows, keyed by their leads.
    Each row of the pivot table is reduced at every other lead it holds,
    nearest first, against the row leading there, which holds nothing
    above it."""
    pivots, out = _pivots(rows, p), {}
    held = sum(1 << lead - 1 for lead in pivots) if p < 5 else 0  # over F_2 and F_3, the bits of the leads
    if p == 2:
        for lead, r in pivots.items():
            while hit := r & held ^ 1 << lead - 1:
                r ^= pivots[hit.bit_length()]
            out[lead - 1] = [0, r]
    elif p == 3:
        for lead, (a, b, n1) in pivots.items():
            while hit := n1 & held ^ 1 << lead - 1:
                pa, pb, n2 = pivots[top := hit.bit_length()]
                if a >> top - 1 & 1:
                    pa, pb = pb, pa
                a, b = a & ~n2 | pa & ~n1 | b & pb, b & ~n2 | pb & ~n1 | a & pa
                n1 = a | b
            out[lead - 1] = [0, a, b]
    else:
        for lead, r in pivots.items():
            while hit := [k for k in r if k in pivots and k != lead]:
                piv, f = pivots[k := max(hit)], r[k]
                r = {j: y for j in r | piv if (y := (r.get(j, 0) - f * piv.get(j, 0)) % p)}
            out[lead] = [0] + [sum(1 << k for k, x in r.items() if x == e) for e in range(1, p)]
    return out


def _kernel_rows(flipped, p: int, cols: int) -> tuple[Iterator[tuple[int, ...]], list[int]]:
    """An iterator over the rows, built as they are read, of the canonical
    basis of the right kernel of rows with ``cols`` columns, handed over
    with column k at column cols - 1 - k, and the free columns, where it is
    the identity; at a pivot column it is minus the echelon row there
    (rref of the flipped rows), read at the free columns."""
    reduced = rref(flipped, p)
    free = [c for c in range(cols) if cols - 1 - c not in reduced]

    def negated(row) -> tuple[int, ...]:
        entries = {cols - 1 - k: p - x for x in range(1, p) for k in bits(row[x])}
        return tuple(entries.get(f, 0) for f in free)

    return (
        negated(reduced[k]) if (k := cols - 1 - c) in reduced else tuple(int(f == c) for f in free) for c in range(cols)
    ), free


def kernel_basis(mat, p: int, cols: int) -> tuple[Matrix, list[int]]:
    """Columns form the canonical echelon basis of the right kernel of
    sparse rows or a nested int sequence with ``cols`` columns; also
    returns the free columns, the rows at which that basis is the identity."""
    if isinstance(mat, Planes):  # bit k of each mask to bit cols - 1 - k
        flipped = Planes([0, *(int(bin(m)[:1:-1].ljust(cols, "0"), 2) for m in row[1:])] for row in mat)
    else:
        flipped = [row[::-1] for row in mat]
    basis, free = _kernel_rows(flipped, p, cols)
    return tuple(basis), free


def cokernel_images(mat, p: int) -> tuple[Iterator[tuple[int, ...]], list[int]]:
    """An iterator over the positions j of F^m, built as it is read, of the
    image of e_j under the canonical projection F^m -> F^m / colspace(mat),
    and the non-pivot positions c of the echelon form of the column space,
    the coordinates of the images: e_j itself when j is not a pivot, else
    e_j less the echelon row with pivot j, which is zero at the other
    pivots.  These are the rows of the kernel basis of the columns of mat,
    flipped (_kernel_rows): read bottom up from nested rows, or written
    from a Planes' rows with row i at bit m - 1 - i."""
    m = len(mat)
    if not isinstance(mat, Planes):
        return _kernel_rows(zip(*reversed(mat)), p, m)
    columns: dict = {}
    for i, row in enumerate(mat, 1):
        for x in range(1, p):
            for k in bits(row[x]):
                columns.setdefault(k, [0] * p)[x] |= 1 << m - i
    return _kernel_rows(Planes(columns.values()), p, m)


def cokernel_projection(mat, p: int) -> tuple[Matrix, list[int]]:
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
