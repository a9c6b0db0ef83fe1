"""Quiver representations over a small prime field.

Exact Hom and Ext^1, reflection functors at sinks and sources (on objects
and morphisms), the indecomposable at each positive real root of a Dynkin
quiver, Krull-Schmidt decomposition, and exhaustive enumeration of
subrepresentations and extensions for tiny fields and guarded dimensions:
the tests' brute-force cross-check of the tables below, and what the
oracle_tables benchmark times.

The roots and the indecomposables come from one word, the c-sorting word
of w_0, walked once per quiver (weyl.dynkin_roots) and adapted to it: the
indecomposable at its k-th inversion is the simple at the k-th letter
pulled back through source reflections at the letters before it
(Bernstein-Gelfand-Ponomarev), run on a dimension list and a matrix list
with one Representation built at the end.  In this order (Auslander-Reiten
order) the Hom table is upper unitriangular, which decompose reads.  No
root orbit is listed.  That one step (_reflect_source) is every
reflection here: R+ at a sink is R- on the transposed maps into it, and
takes the cokernel projection of the transposed in-map, whose transpose
is the kernel basis.

The closure oracle's two legs, which check every class of quivrep.torsion's
search, are tables of a DynkinCategory and scale with Hom, not subspaces.
The subrepresentation leg of M lists the indecomposables N with an
injective map N -> M, one map tried per line of Hom(N, M): every summand of
a subrepresentation embeds in M, and every image of an injective map is a
subrepresentation.  No map is tried for an N already known to embed in some
N' that embeds in M, as a composite of injective maps is injective;
enumerate_subreps stays as the cross-check.  The extension leg builds no
middle term.  For one non-split class xi of 0 -> X -> Y -> Z -> 0 per
line of Ext^1(Z, X), where dim Ext^1(Z, X) = dim Hom(Z, X) -
<dim Z, dim X> > 0 (c xi, c != 0, is the pushout of xi
along c 1_X, with xi's middle term), it reads dim Hom(I_b, Y) off the long
exact sequence of Hom(I_b, -): T[b][x] + T[b][z] - rank d_xi, for the
connecting map d_xi : Hom(I_b, Z) -> Ext^1(I_b, X), g |-> the class of
xi's cocycle after g.  One elimination per pair (_ext_classes) gives its
classes and the images of its rows in Ext^1, built as they are read and
kept as plane rows; each leg eliminates, once per build, the Hom bases it
reads (DynkinCategory._hom_basis); decompose and the extension leg share
one multiplicity walk on root indices (DynkinCategory.multiplicities),
which only decompose spells as roots.
decompose splits V into coordinate blocks (_blocks, once per object; a
direct sum records its summands' as it is built), each a summand, and
names with no rank a block whose dimension vector is a root and whose
matrices are those of the indecomposable there: the same representation,
whose ranks the Hom table checked as it was built.  Only the others walk.

Hom and Ext^1 share one linear system of sparse rows (_hom_system), one
int mask per entry value (linalg.Planes), which linalg's one pivot table
eliminates.  A dimension (hom_dim, ext1_dim, the Hom table, decompose) is
a forward-only rank (linalg.rank); hom_basis reads the canonical kernel
basis of the same rows (linalg.kernel_basis), and _hom_elements enumerates
its combinations.

Matrix conventions: every matrix is a :data:`~quivrep.quiver.Matrix`, a
tuple of row tuples with entries in 0..p-1, so representations and
morphisms compare and hash as plain values.  The map of an arrow a: i -> j
has dims[j] rows of dims[i] entries and acts on column vectors; when
dims[j] = 0 it is the empty tuple, and shapes are read from the dimension
vectors, never from the matrices.  Representation(...) validates and
reduces every entry mod p; what the library builds over F_p goes through
_built, which checks shapes only.  Every kernel and cokernel comes from
:mod:`quivrep.linalg`, whose bases are canonical, so all constructions
here are deterministic.
"""

from __future__ import annotations

import itertools
import operator
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property

from . import linalg
from .errors import (
    DimensionMismatchError,
    FieldMismatchError,
    InputFormatError,
    InternalInvariantError,
    InvalidParameterError,
    MutationError,
    NotARealRootError,
    NotAMorphismError,
    QuiverMismatchError,
    ResourceGuardError,
    UnsupportedScopeError,
)
from .quiver import (
    IntVector,
    Matrix,
    Quiver,
    VertexKind,
    check_vertex,
    json_int,
    mutate_at,
    unit_vector,
    vertex_kind,
)
from .weyl import dynkin_roots

SUPPORTED_PRIMES = (2, 3, 5)
ENUMERATION_PRIMES = (2, 3)
DEFAULT_INDEC_GUARD = 12
INDEC_ENUM_GUARD = 200000
DEFAULT_SUBREP_GUARD = 10**6
DEFAULT_EXT_GUARD = 6
HOM_SYSTEM_GUARD = 2000  # unknowns or rows of a Hom system, entries or a vertex dimension of a parsed rep
HOM_KERNEL_GUARD = 200  # the guard of _hom_system for an echelon form; rows or columns of a reflected map


@dataclass(frozen=True)
class FieldSpec:
    """Choice of prime field F_p for all matrices in one computation."""

    p: int

    def __post_init__(self) -> None:
        if self.p not in SUPPORTED_PRIMES:
            raise InvalidParameterError(f"unsupported field characteristic {self.p}")


F2 = FieldSpec(2)
F3 = FieldSpec(3)
F5 = FieldSpec(5)


@dataclass(frozen=True)
class Representation:
    """A vector space dimension per vertex and a matrix per arrow, validated
    by the constructor, not by _built (module docstring).  Its coordinate
    blocks (_blocks) are kept for its life, outside ==, hash and JSON."""

    quiver: Quiver
    field: FieldSpec
    dims: tuple[int, ...]
    mats: tuple[Matrix, ...]

    def __post_init__(self) -> None:
        if len(self.dims) != self.quiver.n:
            raise DimensionMismatchError("dimension vector length differs from vertex count")
        if any(d < 0 for d in self.dims):
            raise InvalidParameterError("negative dimension")
        if len(self.mats) != len(self.quiver.arrows):
            raise DimensionMismatchError("one matrix per arrow required")
        dims = tuple(int(d) for d in self.dims)
        mats = tuple(
            _as_matrix(self.mats[a], dims[t - 1], dims[s - 1], self.field.p, f"arrow {a}")
            for a, (s, t) in enumerate(self.quiver.arrows)
        )
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "mats", mats)

    @property
    def total_dim(self) -> int:
        return sum(self.dims)

    def __repr__(self) -> str:
        return f"Representation(dims={self.dims}, p={self.field.p})"

    @cached_property
    def _coordinate_blocks(self) -> list[tuple[IntVector, tuple[Matrix, ...]]]:
        return _blocks(self)


def _as_matrix(m, rows: int, cols: int, p: int, what: str) -> Matrix:
    """A nested int sequence as a Matrix over F_p, checked to be rows x cols."""
    out = tuple(tuple(int(x) % p for x in row) for row in m)
    if len(out) != rows or any(len(row) != cols for row in out):
        raise DimensionMismatchError(f"{what}: expected a {rows} x {cols} matrix")
    return out


def _built(q: Quiver, field: FieldSpec, dims: tuple[int, ...], mats: tuple[Matrix, ...]) -> Representation:
    """The Representation of dims and mats the library built over F_p: their
    counts and each matrix's rows x cols are checked, no entry is re-read."""
    counted = len(dims) == q.n and len(mats) == len(q.arrows)
    if not counted or any(len(m) != dims[t - 1] or any(len(row) != dims[s - 1] for row in m) for m, (s, t) in zip(mats, q.arrows)):
        raise InternalInvariantError("a built representation does not have the shape of its dimension vector")
    rep = object.__new__(Representation)
    rep.__dict__.update(quiver=q, field=field, dims=dims, mats=mats)
    return rep


def zero_rep(q: Quiver, field: FieldSpec) -> Representation:
    dims = (0,) * q.n
    return Representation(q, field, dims, tuple(linalg.zeros(0, 0) for _ in q.arrows))


def simple_rep(q: Quiver, field: FieldSpec, i: int) -> Representation:
    check_vertex(q, i)
    dims = unit_vector(q.n, i)
    mats = tuple(linalg.zeros(dims[t - 1], dims[s - 1]) for s, t in q.arrows)
    return Representation(q, field, dims, mats)


def direct_sum(v: Representation, w: Representation) -> Representation:
    _check_pair(v, w)
    return _block_triangular(v, w)


def _block_triangular(x: Representation, z: Representation, psi=None) -> Representation:
    """The representation with arrow matrices [[X_a, psi_a], [0, Z_a]].

    ``psi`` yields the entries of the blocks psi_a arrow by arrow, each
    row-major, which is the row order of the Hom system of (Z, X).  Without
    it, X + Z, which records X's and Z's coordinate blocks as its own: the
    same basis vectors in the same order, with the same matrices.
    """
    cells = itertools.repeat(0) if psi is None else iter(psi)
    q = x.quiver
    mats = []
    for a, (s, _) in enumerate(q.arrows):
        width = z.dims[s - 1]
        top = tuple(row + tuple(itertools.islice(cells, width)) for row in x.mats[a])
        pad = (0,) * x.dims[s - 1]
        mats.append(top + tuple(pad + row for row in z.mats[a]))
    dims = tuple(a + b for a, b in zip(x.dims, z.dims))
    rep = _built(q, x.field, dims, tuple(mats))
    if psi is None:
        rep.__dict__["_coordinate_blocks"] = x._coordinate_blocks + z._coordinate_blocks
    return rep


@dataclass(frozen=True)
class Morphism:
    """Vertexwise linear maps commuting with all arrow matrices."""

    source: Representation
    target: Representation
    comps: tuple[Matrix, ...]

    def __post_init__(self) -> None:
        v, w = self.source, self.target
        _check_pair(v, w)
        p = v.field.p
        if len(self.comps) != v.quiver.n:
            raise DimensionMismatchError("one component per vertex required")
        comps = tuple(
            _as_matrix(c, dw, dv, p, f"vertex {i + 1}")
            for i, (c, dv, dw) in enumerate(zip(self.comps, v.dims, w.dims))
        )
        object.__setattr__(self, "comps", comps)
        for a, (s, t) in enumerate(v.quiver.arrows):
            cols = v.dims[s - 1]
            lhs = linalg.mat_mul(w.mats[a], comps[s - 1], p, cols)
            if lhs != linalg.mat_mul(comps[t - 1], v.mats[a], p, cols):
                raise NotAMorphismError(f"square at arrow {a} does not commute")

    def is_zero(self) -> bool:
        return not any(any(row) for c in self.comps for row in c)


def identity_morphism(v: Representation) -> Morphism:
    return Morphism(v, v, tuple(linalg.eye(d) for d in v.dims))


def zero_morphism(v: Representation, w: Representation) -> Morphism:
    return Morphism(v, w, tuple(linalg.zeros(dw, dv) for dv, dw in zip(v.dims, w.dims)))


def compose_morphisms(g: Morphism, f: Morphism) -> Morphism:
    """g after f."""
    if f.target != g.source:
        raise DimensionMismatchError("morphisms are not composable")
    p = f.source.field.p
    comps = tuple(
        linalg.mat_mul(cg, cf, p, d) for cg, cf, d in zip(g.comps, f.comps, f.source.dims)
    )
    return Morphism(f.source, g.target, comps)


@dataclass(frozen=True)
class HomSpace:
    basis: tuple[Morphism, ...]

    @property
    def dimension(self) -> int:
        return len(self.basis)


def _check_pair(v: Representation, w: Representation) -> None:
    if v.quiver != w.quiver:
        raise QuiverMismatchError("representations live over different quivers")
    if v.field != w.field:
        raise FieldMismatchError("representations live over different fields")


def _hom_system(v: Representation, w: Representation, guard: int = HOM_SYSTEM_GUARD) -> linalg.Planes:
    """Sparse rows (linalg.rank) of (f_i) |-> (W_a f_{s(a)} - f_{t(a)} V_a) on
    the unknowns f_i, each flattened row-major, concatenated in vertex order.

    Its kernel is Hom(V, W); its cokernel is Ext^1(V, W), so a zero row is
    kept.  Refused past guard unknowns before any row is built, and past
    guard rows before the block of rows that would pass it: HOM_SYSTEM_GUARD
    for a rank, HOM_KERNEL_GUARD for an echelon form.  It is the two-term
    presentation of the path-algebra Hom/Ext pair; its rows drive extension
    enumeration too.  Row (r, c) of the block of arrow a: s -> t is entry
    (r, c) of W_a f_s - f_t V_a: row r of W_a at the unknowns (k, c) of f_s,
    less column c of V_a at the unknowns (r, k) of f_t.  The two sets of
    unknowns are disjoint, as a quiver has no loops.
    """
    p, dims = v.field.p, v.dims
    offsets = (0, *itertools.accumulate(map(operator.mul, dims, w.dims)))
    if offsets[-1] > guard:
        raise ResourceGuardError(f"{offsets[-1]} Hom-system unknowns exceed the guard {guard}")
    system = []
    for a, (s, t) in enumerate(v.quiver.arrows):
        vs, w_mat = dims[s - 1], w.mats[a]
        if not (vs and w_mat):  # a block without rows
            continue
        if len(system) + len(w_mat) * vs > guard:
            raise ResourceGuardError(f"Hom-system rows exceed the guard {guard}")
        vt, v_mat, at_t = dims[t - 1], v.mats[a], offsets[t - 1]
        for w_row in w_mat:  # row r of W_a: f_t's unknowns (r, k) start at at_t
            for c in range(vs):
                planes, col = [0] * p, offsets[s - 1] + c
                for x in w_row:
                    if x:
                        planes[x] |= 1 << col
                    col += vs
                col = at_t
                for v_row in v_mat:
                    if y := v_row[c]:
                        planes[p - y] |= 1 << col
                    col += 1
                system.append(planes)
            at_t += vt
    return linalg.Planes(system)


def _system_cells(v: Representation, w: Representation) -> list[tuple[int, int, int]]:
    """(a, r, c) for each row of the Hom system of (V, W), in row order:
    entry (r, c) of the block of arrow a, which is W_t x V_s for a: s -> t;
    also the entry of a cocycle, as _block_triangular reads it."""
    return [
        (a, r, c)
        for a, (s, t) in enumerate(v.quiver.arrows)
        for r in range(w.dims[t - 1])
        for c in range(v.dims[s - 1])
    ]


def _unflatten(v: Representation, w: Representation, vec) -> tuple[Matrix, ...]:
    """Components f_i: V_i -> W_i from their row-major concatenation."""
    comps = []
    pos = 0
    for dv, dw in zip(v.dims, w.dims):
        comps.append(tuple(tuple(vec[pos + r * dv : pos + (r + 1) * dv]) for r in range(dw)))
        pos += dw * dv
    return tuple(comps)


def _hom_kernel(v: Representation, w: Representation) -> tuple[Matrix, list[int]]:
    """Columns: the canonical kernel basis of the Hom system, that is a
    basis of Hom(V, W) flattened as in _hom_system; also its free columns."""
    _check_pair(v, w)
    return linalg.kernel_basis(_hom_system(v, w, HOM_KERNEL_GUARD), v.field.p, sum(map(operator.mul, v.dims, w.dims)))


def hom_basis(v: Representation, w: Representation) -> HomSpace:
    """Canonical basis of Hom(V, W): the kernel of all commuting squares."""
    return HomSpace(tuple(Morphism(v, w, _unflatten(v, w, vec)) for vec in zip(*_hom_kernel(v, w)[0])))


def _lines(p: int, d: int) -> Iterator[tuple[int, ...]]:
    """One coefficient tuple over F_p per line of F_p^d, the tuples whose
    first nonzero entry is 1, in itertools.product order: the one line rule
    of _embeds and extension_masks, whose answers a nonzero multiple of a
    map or a class does not change."""
    return (c for c in itertools.product(range(p), repeat=d) if next(filter(None, c), 0) == 1)


def _hom_elements(v: Representation, w: Representation, kernel: tuple[Matrix, list[int]], guard: int, lines=False):
    """Every element of Hom(V, W) as vertex components, one per coefficient
    tuple over the basis kernel = _hom_kernel(v, w) (itertools.product order,
    zero first), or with lines one per line of Hom(V, W) (_lines); the one
    enumerator of Hom, refused past guard elements of Hom(V, W) either way."""
    p, (basis, free) = v.field.p, kernel
    if p ** (d := len(free)) > guard:
        raise ResourceGuardError(f"{p}^{d} maps exceed the guard {guard}")
    for coeffs in _lines(p, d) if lines else itertools.product(range(p), repeat=d):
        yield _unflatten(v, w, [sum(map(operator.mul, coeffs, row)) % p for row in basis])


def hom_dim(v: Representation, w: Representation) -> int:
    """dim Hom(V, W) as the number of unknowns less the rank of the Hom
    system; hom_basis gives the same count with the maps themselves."""
    _check_pair(v, w)
    return _hom_dim(v, w)


def _hom_dim(v: Representation, w: Representation) -> int:
    """hom_dim of a pair already checked to share a quiver and a field."""
    unknowns = sum(map(operator.mul, v.dims, w.dims))
    # Disjoint supports leave no unknowns: Hom is 0 without building the system.
    return unknowns and unknowns - linalg.rank(_hom_system(v, w), v.field.p)


def ext1_dim(v: Representation, w: Representation) -> int:
    """dim Ext^1(V, W) as the corank of the two-term presentation; satisfies
    dim Hom - dim Ext^1 = <dim V, dim W>."""
    _check_pair(v, w)
    system = _hom_system(v, w)
    return len(system) - linalg.rank(system, v.field.p)


# -- reflection functors ------------------------------------------------------


def _require_kind(q: Quiver, i: int, wanted: VertexKind) -> None:
    kind = vertex_kind(q, i)
    if kind not in (wanted, VertexKind.ISOLATED):
        raise MutationError(f"vertex {i} is not a {wanted.value} (found {kind.value})")


def reflect_plus(q: Quiver, i: int, v: Representation) -> Representation:
    """Reflection functor at a sink i: replace the space at i by the kernel
    of the summed in-map and turn the reversed arrows into the components of
    the kernel inclusion.  Result lives on the mutated quiver."""
    if v.quiver != q:
        raise QuiverMismatchError("representation does not live on the given quiver")
    _require_kind(q, i, VertexKind.SINK)
    return _reflect_sink(q, i, v)[0]


def _reflect_sink(q: Quiver, i: int, v: Representation) -> tuple[Representation, Matrix, list[int], list]:
    """R+_i at the sink i as R-_i of the dual: each map into i is transposed
    to leave it, _reflect_source runs, and the new blocks are transposed
    back.  The canonical kernel basis of the summed in-map phi is the
    transpose of the canonical projection of phi^T, free at its non-pivot
    positions.  Returns R+_i V, that projection, those positions, the layout."""
    dims, mats, arms = list(v.dims), list(v.mats), q.in_arrows(i)
    for a, s in arms:
        mats[a] = linalg.transpose(mats[a], dims[s - 1])
    proj, nonpiv, layout = _reflect_source(dims, mats, arms, i, v.field.p)
    for a, s in arms:
        mats[a] = linalg.transpose(mats[a], dims[s - 1])
    return _built(mutate_at(q, i), v.field, tuple(dims), tuple(mats)), proj, nonpiv, layout


def reflect_plus_mor(q: Quiver, i: int, f: Morphism) -> Morphism:
    """Functorial action at a sink: off i the components are reused; at i the
    block-diagonal sum of components restricts between the two kernels, and
    its rows at the free rows of W's kernel basis, where that basis is the
    identity, are its coordinates (Morphism checks every square)."""
    if f.source.quiver != q:
        raise QuiverMismatchError("morphism does not live on the given quiver")
    _require_kind(q, i, VertexKind.SINK)
    p = f.source.field.p
    plus_v, k_v, _, layout = _reflect_sink(q, i, f.source)
    plus_w, _, free_w, _ = _reflect_sink(q, i, f.target)
    # Row r of the sum over arrows s -> i of the f_s, at V's summand offsets
    rows = [(offset, row) for a, s, offset in layout for row in f.comps[s - 1]]
    comps = list(f.comps)
    comps[i - 1] = tuple(
        tuple(sum(map(operator.mul, row, k[offset:])) % p for k in k_v) for offset, row in map(rows.__getitem__, free_w)
    )
    return Morphism(plus_v, plus_w, tuple(comps))


def reflect_minus(q: Quiver, i: int, v: Representation) -> Representation:
    """Reflection functor at a source i: replace the space at i by the
    cokernel of the summed out-map, presented on the canonical echelon
    complement.  Result lives on the mutated quiver."""
    if v.quiver != q:
        raise QuiverMismatchError("representation does not live on the given quiver")
    _require_kind(q, i, VertexKind.SOURCE)
    dims, mats = list(v.dims), list(v.mats)
    _reflect_source(dims, mats, q.out_arrows(i), i, v.field.p)
    return _built(mutate_at(q, i), v.field, tuple(dims), tuple(mats))


def _reflect_source(dims: list[int], mats: list[Matrix], arms, i: int, p: int) -> tuple[Matrix, list[int], list]:
    """R-_i in place on a dimension list and a matrix list by arrow id, for
    arms the (arrow, other end) pairs of the arrows at i in id order, every
    one leaving i: the space at i becomes the cokernel of the summed
    out-map, and each arrow comes back into i as its block of columns of
    the canonical projection (linalg.cokernel_projection).  Returns that
    projection, its non-pivot positions, and the layout: (arrow, other
    end, offset) for each arm, the offset locating the arrow's summand in
    the direct sum over arms (parallel arrows repeat their summand).  The
    projection is square in the map's rows: refused past HOM_KERNEL_GUARD
    rows or columns before the map is eliminated, at i zero or not."""
    layout, offset = [], 0
    for a, t in arms:
        layout.append((a, t, offset))
        offset += dims[t - 1]
    psi = tuple(row for a, _ in arms for row in mats[a])
    if max(len(psi), dims[i - 1]) > HOM_KERNEL_GUARD:
        raise ResourceGuardError(f"a summed map of {len(psi)} x {dims[i - 1]} exceeds the guard {HOM_KERNEL_GUARD}")
    # Zero at i, psi has no columns and its cokernel is the whole sum.
    proj, nonpiv = linalg.cokernel_projection(psi, p) if dims[i - 1] else (linalg.eye(offset), [*range(offset)])
    dims[i - 1] = len(proj)
    for a, t, offset in layout:
        mats[a] = tuple(row[offset : offset + dims[t - 1]] for row in proj)
    return proj, nonpiv, layout


def strip_simple_summands(q: Quiver, i: int, v: Representation) -> Representation:
    """Drop every summand isomorphic to the simple at the sink i by passing
    through both reflection functors; dimensions are checked against the
    corank of the in-map."""
    plus = reflect_plus(q, i, v)
    back = reflect_minus(plus.quiver, i, plus)
    phi = tuple(sum((v.mats[a][r] for a, _ in q.in_arrows(i)), ()) for r in range(v.dims[i - 1]))
    multiplicity = v.dims[i - 1] - linalg.rank(phi, v.field.p)
    expected = list(v.dims)
    expected[i - 1] -= multiplicity
    if back.dims != tuple(expected):
        raise InternalInvariantError("reflection round trip produced unexpected dimensions")
    return back


# -- indecomposables on Dynkin quivers ----------------------------------------


class DynkinCategory:
    """Data derived once per (Dynkin quiver, field) and built on first use:
    roots and their indices, the adapted word, indecomposables, the Hom
    and Euler tables and the word order in which the ranks are checked,
    and the requirement tables of the torsion-free closure oracle, each
    from Hom bases that only its build keeps.  A requirement is an int
    mask of roots, bit k standing for roots[k].  Kept on the quiver
    object by dynkin_category.  Its word i_1 ... i_N, roots, index and
    hom_order are those of the quiver's root record (weyl.dynkin_roots),
    shared by every field: the inversion s_{i_1} ... s_{i_{k-1}} e_{i_k}
    is roots[hom_order[k - 1]]."""

    def __init__(self, q: Quiver, field: FieldSpec) -> None:
        record = dynkin_roots(q)
        self.quiver, self.field = q, field
        self.word, self.roots, self.index, self.hom_order = record.word, record.roots, record.index, record.order
        self._indecs: dict[IntVector, Representation] = {}

    @cached_property
    def _arms(self) -> list[list[tuple[int, int]]]:
        """Entry i - 1: (arrow, other end) for each arrow at vertex i, by id.
        The word is checked to be adapted on the arrows' heads as q is
        mutated at i_1, i_2, ...: i_k is a sink of Q_{k-1}, a source of Q_k."""
        q = self.quiver
        arms, heads = [sorted(q.in_arrows(i) + q.out_arrows(i)) for i in range(1, q.n + 1)], [t for _, t in q.arrows]
        for i in self.word:
            for a, u in arms[i - 1]:
                if heads[a] != i:
                    raise InternalInvariantError(f"the c-sorting word of w_0 reflects at a non-sink {i}")
                heads[a] = u
        return arms

    def indec(self, root: IntVector) -> Representation:
        """The indecomposable at a positive real root, built on first request
        by Bernstein-Gelfand-Ponomarev: at beta_k, R-_{i_1} ... R-_{i_{k-1}}
        of the simple at i_k on Q_{k-1}.  R-_i is full and faithful off S_i,
        so the result is indecomposable; its dimension vector is checked.
        The chain runs on a dimension list and a matrix list
        (_reflect_source), every arrow at i_j leaving it in Q_j (_arms), and
        builds one Representation, on q, at the end, kept once per root,
        where decompose's lookup reads it by its dimension vector."""
        if root not in self._indecs:
            word, arms, k = self.word, self._arms, self.hom_order.index(self.index[root])
            dims, mats = [0] * self.quiver.n, [()] * len(self.quiver.arrows)
            dims[word[k] - 1] = 1
            for a, _ in arms[word[k] - 1]:  # into the sink i_k: one row, no column
                mats[a] = ((),)
            for j in reversed(range(k)):
                _reflect_source(dims, mats, arms[word[j] - 1], word[j], self.field.p)
            rep = _built(self.quiver, self.field, tuple(dims), tuple(mats))
            if rep.dims != root:
                raise InternalInvariantError("constructed indecomposable has the wrong dimensions")
            self._indecs[root] = rep
        return self._indecs[root]

    @cached_property
    def hom_table(self) -> Matrix:
        """T[b][a] = dim Hom(I_b, I_a), a rank (_hom_dim, as the category's
        indecomposables share its quiver and field); no basis is built.
        Every rank is checked before the table is kept, in word order
        (hom_order, Auslander-Reiten order): T[b][a] is the Euler form
        <beta_b, beta_a> (_euler) for b at or before a and 0 for b after a,
        so T is upper unitriangular.  By induction on the word: I_{beta_1} =
        S_{i_1} is simple projective, i_1 being a sink; R+_{i_1} is full and
        faithful off S_{i_1} and carries the other beta_k, in order, to the
        inversions of i_2 ... i_N, a word adapted to Q_1.  For b at or
        before a, Ext^1(I_b, I_a) = D Hom(I_a, tau I_b) = 0.  The ranks stay
        the source, as the formula would tie the table to the Weyl walk."""
        indecs, euler, order = [self.indec(r) for r in self.roots], self._euler, self.hom_order
        table = tuple(tuple(_hom_dim(b, a) for a in indecs) for b in indecs)
        for k, b in enumerate(order):
            if any(table[b][a] for a in order[:k]) or any(table[b][a] != euler[b][a] for a in order[k:]):
                raise InternalInvariantError("Hom table disagrees with the Euler form in word order")
        return table

    @cached_property
    def _euler(self) -> Matrix:
        """E[b][a] = <roots[b], roots[a]>, the Euler form, as the dot product
        of roots[a] with the vector of the <roots[b], e_i>: roots[b] less, at
        each vertex, its entries at the sources of the arrows into it."""
        rows = []
        for root in self.roots:
            vec = list(root)
            for s, t in self.quiver.arrows:
                vec[t - 1] -= root[s - 1]
            rows.append(tuple(sum(map(operator.mul, vec, other)) for other in self.roots))
        return tuple(rows)

    def _hom_basis(self, b: int, a: int) -> tuple[Matrix, list[int]]:
        """The canonical kernel basis of Hom(I_b, I_a) and its free columns
        (_hom_kernel), eliminated on every call and kept by the leg that
        reads it; raises InternalInvariantError unless it has T[b][a] columns."""
        kernel = _hom_kernel(self.indec(self.roots[b]), self.indec(self.roots[a]))
        if len(kernel[1]) != self.hom_table[b][a]:
            raise InternalInvariantError("a Hom basis disagrees with the Hom table's rank")
        return kernel

    @cached_property
    def subrep_masks(self) -> tuple[int, ...]:
        """Entry k: the roots of every summand of every subrepresentation of
        the indecomposable M at roots[k], that is the roots j with an
        injective map I_j -> M.  A summand N of a subrepresentation U embeds
        N -> U -> M, and the image of an injective map is a subrepresentation
        isomorphic to N.

        The roots are visited by height, the sum of their entries.  Bit k
        comes from the identity map.  Any other j embeds only if T[j][k] > 0
        and roots[j] is no larger than roots[k] at any vertex, so of smaller
        height: entry j is final before entry k reads it.  These candidates
        j are tried from the highest down, each only if not yet in the mask.
        When I_j embeds, entry j is ORed in: each root i in it has an
        injective map I_i -> I_j, and a composite of injective maps
        I_i -> I_j -> M is injective.  So every bit set embeds, and a
        candidate skipped already has its bit, so every root that embeds is
        set.  The Hom basis of each pair tried is eliminated once, where it
        is read, and checked against T (_hom_basis)."""
        table, roots = self.hom_table, self.roots
        by_height, masks = sorted(range(len(roots)), key=lambda k: sum(roots[k])), [0] * len(roots)
        for at, k in enumerate(by_height):
            top, mask = roots[k], 1 << k
            for j in reversed(by_height[:at]):
                if (
                    not mask >> j & 1
                    and table[j][k]
                    and not any(map(operator.gt, roots[j], top))
                    and _embeds(self.indec(roots[j]), self.indec(top), self._hom_basis(j, k))
                ):
                    mask |= masks[j]
            masks[k] = mask
        return tuple(masks)

    def multiplicities(self, dims: IntVector, hom_of) -> dict[int, int]:
        """Multiplicities {a: m}, by root index, of the representation V with
        dimension vector dims, given hom_of(b) = dim Hom(I_b, V).

        V = sum_a m_a I_a gives hom_of(b) = sum_a T[b][a] m_a, upper
        unitriangular in hom_order, as hom_table checks.  The walk solves it
        in reverse hom_order, m_b = hom_of(b) less T[b][a] m_a over the
        summands a found so far, keeping left = dims less their m_a root_a,
        and asks hom_of(b) only when root_b fits in left at every vertex; it
        stops once left is zero.
        Skipping is sound: by induction, left is the dimension vector of the
        summands at b and before it, so a root that does not fit has
        multiplicity 0, and the roots asked for index a principal submatrix of
        T, still unitriangular, on which the system and its solution restrict.
        A negative multiplicity, or a left that does not end at zero (it cannot
        come back once negative), raises InternalInvariantError.  A wrong rank
        at a root that fits can pass both checks (bipartite D5 over F_3: one
        too many at (0, 0, 1, 0, 0) is absorbed); the full-solve parity,
        TestOracleLegs.test_decompose_matches_the_full_solve, catches it.
        """
        roots, table, found, left = self.roots, self.hom_table, {}, dims
        for b in reversed(self.hom_order):  # T[b][a] = 0 for a before b, T[b][b] = 1
            root = roots[b]
            if any(map(operator.gt, root, left)):
                continue
            m = hom_of(b) - sum(table[b][a] * m_a for a, m_a in found.items())
            if m < 0:
                raise InternalInvariantError("negative multiplicity")
            if m:
                found[b] = m
                left = tuple(l - m * r for l, r in zip(left, root))
                if not any(left):
                    break
        if any(left):
            raise InternalInvariantError("multiplicities do not add up to the dimension vector")
        return found

    @cached_property
    def extension_masks(self) -> tuple[tuple[int, ...], ...]:
        """Entry [j][k] = [k][j]: the roots of every summand of every middle
        term of an extension, of either one by the other, between the
        indecomposables at roots[j] and roots[k].  The split term has
        summands roots[j] and roots[k] (Krull-Schmidt), so only the other
        classes xi are walked, one per line of Ext^1 (_lines): for c != 0,
        c xi is the pushout of xi along the automorphism c 1_X, so its
        middle term is xi's up to isomorphism.  They are walked only for Z,
        X with dim Ext^1(Z, X) = T[z][x] - <root_z, root_x> (_euler)
        nonzero, and a presentation with another number of classes raises
        InternalInvariantError.  No middle term Y is built: multiplicities
        reads dim Hom(I_b, Y) = T[b][x] + T[b][z] - rank d_xi (module
        docstring), and its root indices are the mask bits.  d_xi is zero
        when T[b][z] = 0 or Ext^1(I_b, X) = 0; otherwise it is bilinear in
        (xi, g).  So, once per pair, the class of each unit cocycle e of
        (Z, X) after each map g of the basis of Hom(I_b, Z) (_hom_basis) is
        summed from the images in Ext^1 of the (I_b, X) rows, kept as plane
        rows (linalg.planes, linalg.combine); the rows of d_xi are their sums
        by the coordinates of xi.  The pairs are walked by column x, so a
        presentation lives for its column, the pullbacks for their pair and
        the Hom bases, read again in other columns, for the build; an entry
        is an OR over its pair's middle terms, mirrored to [x][z], which no
        order of the walk changes."""
        table, roots, n, p = self.hom_table, self.roots, len(self.roots), self.field.p
        arrows, indecs = self.quiver.arrows, [self.indec(r) for r in self.roots]
        ext = [[t - e for t, e in zip(row, euler)] for row, euler in zip(table, self._euler)]
        masks, bases = [[1 << j | 1 << k for k in range(n)] for j in range(n)], {}
        for x in range(n):
            # Per j with Ext^1(I_j, X) nonzero, from one elimination: the unit cocycles and the
            # images in Ext^1 of the rows of each arrow a's block at row r; read as (z, x) and (b, x).
            presented = {}
            for j in range(n):
                if ext[j][x]:
                    images, free = _ext_classes(indecs[j], indecs[x])
                    if len(free) != ext[j][x]:
                        raise InternalInvariantError("an Ext^1 presentation disagrees with the Hom table")
                    cells, rows_of = _system_cells(indecs[j], indecs[x]), {}
                    for (a, r, _), image in zip(cells, linalg.planes(images, p)):
                        rows_of.setdefault((a, r), []).append(image)
                    presented[j] = [cells[k] for k in free], rows_of
            for z, (units, _) in presented.items():  # elsewhere the split term is the only one
                dims, pulled = tuple(map(operator.add, roots[x], roots[z])), {}

                def hom_of(b: int) -> int:
                    split = table[b][x] + table[b][z]
                    if not (table[b][z] and ext[b][x]):
                        return split
                    if b not in pulled:  # each unit cocycle's pullbacks, for this pair only
                        # The unit at entry (r, c) of arrow a: s -> t after g is row c of g_s in row
                        # r of a's block of the (I_b, X) system, a block without rows where I_b is
                        # zero at s; its class sums the images of that row by the entries of row c
                        # of g_s, which g, flattened as _hom_system's unknowns, holds from at[s] + c dim[s].
                        if (b, z) not in bases:
                            bases[b, z] = self._hom_basis(b, z)[0]
                        rows_of, basis, dim = presented[b][1], bases[b, z], roots[b]
                        at, cuts = (0, *itertools.accumulate(map(operator.mul, dim, roots[z]))), []
                        for a, r, c in units:
                            s = arrows[a][0] - 1
                            cuts.append((at[s] + c * dim[s], at[s] + (c + 1) * dim[s], rows_of.get((a, r), ())))
                        pulled[b] = [
                            [linalg.combine(g[start:stop], rows, p) for start, stop, rows in cuts]
                            for g in zip(*basis)
                        ]
                    rows = linalg.Planes(linalg.combine(xi, by_unit, p) for by_unit in pulled[b])
                    return split - linalg.rank(rows, p)

                for xi in _lines(p, len(units)):  # c xi has xi's middle term for c != 0
                    for a in self.multiplicities(dims, hom_of):
                        masks[z][x] |= 1 << a
                masks[x][z] = masks[z][x]
        return tuple(map(tuple, masks))


def dynkin_category(q: Quiver, field: FieldSpec) -> DynkinCategory:
    """The category of (q, field), created on first request and kept in
    q.derived for the quiver object's life; an equal object gets its own."""
    if (cat := q.derived.get(field)) is None:
        cat = q.derived[field] = DynkinCategory(q, field)
    return cat


def indec_of_real_root(q: Quiver, alpha: IntVector, field: FieldSpec = F2) -> Representation:
    """The unique indecomposable with dimension vector a given positive real
    root of a Dynkin quiver."""
    cat = dynkin_category(q, field)
    alpha = tuple(int(x) for x in alpha)
    if alpha not in cat.index:
        raise NotARealRootError(f"{alpha} is not a positive real root of this quiver")
    return cat.indec(alpha)


def all_indecomposables(q: Quiver, field: FieldSpec = F2) -> dict[IntVector, Representation]:
    """One indecomposable per positive real root, keyed and ordered by root."""
    cat = dynkin_category(q, field)
    return {root: cat.indec(root) for root in cat.roots}


def is_indecomposable(v: Representation) -> bool:
    """True iff the endomorphism algebra has no idempotents besides 0 and 1.

    Enumerates End(V) (_hom_elements, guarded by INDEC_ENUM_GUARD) after a
    guard on the total dimension, unless V has two coordinate blocks
    (_blocks); the zero representation counts as decomposable.
    """
    if v.total_dim == 0:
        return False
    if v.total_dim > DEFAULT_INDEC_GUARD:
        raise ResourceGuardError(f"total dimension {v.total_dim} exceeds guard {DEFAULT_INDEC_GUARD}")
    if len(v._coordinate_blocks) > 1:
        return False
    p = v.field.p
    trivial = (tuple(linalg.zeros(d, d) for d in v.dims), tuple(linalg.eye(d) for d in v.dims))
    return not any(
        comps not in trivial and all(linalg.mat_mul(c, c, p, len(c)) == c for c in comps)
        for comps in _hom_elements(v, v, _hom_kernel(v, v), INDEC_ENUM_GUARD)
    )


def _blocks(v: Representation) -> list[tuple[IntVector, tuple[Matrix, ...]]]:
    """The coordinate blocks of V as (dims, mats), by least basis vector: the
    connected components of the graph on V's basis vectors (vertex, index),
    two joined where an arrow matrix has a nonzero entry between them.  At
    each arrow the entries off a block's rows and columns are zero, so each
    block, on its basis vectors in V's order, is a subrepresentation, and V
    is their direct sum."""
    start, pairs = (0, *itertools.accumulate(v.dims)), tuple(zip(v.quiver.arrows, v.mats))
    block = [[g] for g in range(start[-1])]  # entry g: the members of g's block, one list per block
    for (s, t), mat in pairs:
        for r, row in enumerate(mat, start[t - 1]):
            for c, x in enumerate(row, start[s - 1]):
                if x and (merged := block[r]) is not (old := block[c]):
                    merged += old
                    for g in old:
                        block[g] = merged
    groups: dict[int, list[list[int]]] = {}  # per block, its indices at each vertex
    for i, d in enumerate(v.dims):
        for k in range(d):
            groups.setdefault(block[start[i] + k][0], [[] for _ in v.dims])[i].append(k)
    if len(groups) == 1:
        return [(v.dims, v.mats)]
    return [
        (tuple(map(len, at)), tuple([tuple([tuple([m[r][c] for c in at[s - 1]]) for r in at[t - 1]]) for (s, t), m in pairs]))
        for at in groups.values()
    ]


def decompose(v: Representation) -> dict[IntVector, int]:
    """Multiplicities of each indecomposable in V, as {root: multiplicity}
    in root order, summed by root index over V's coordinate blocks (_blocks).

    A block with a root's dims and the mats indec built there (it checks
    their dims) is that root once (module docstring).  Any other takes the
    multiplicity walk (DynkinCategory.multiplicities) on its Hom ranks
    (hom_dim), each computed only for a root that fits in what the summands
    found so far leave; the multiplicities are checked to be nonnegative
    and to add up to the block's dimension vector.
    """
    cat = dynkin_category(v.quiver, v.field)
    cat.hom_table  # builds and checks every rank, once per category
    blocks, found = v._coordinate_blocks, {}
    for dims, mats in blocks:
        if (a := cat.index.get(dims)) is not None and cat.indec(dims).mats == mats:
            found[a] = found.get(a, 0) + 1
            continue
        block = v if len(blocks) == 1 else _built(v.quiver, v.field, dims, mats)
        for a, m in cat.multiplicities(dims, lambda b: _hom_dim(cat.indec(cat.roots[b]), block)).items():
            found[a] = found.get(a, 0) + m
    return {cat.roots[a]: m for a, m in sorted(found.items())}


# -- exhaustive enumeration (oracle legs) -------------------------------------


def enumerate_subreps(v: Representation):
    """Every subrepresentation with its inclusion, canonically ordered.

    Iterates all tuples of vertexwise subspaces (canonical echelon bases)
    and keeps those carried into one another by every arrow.
    """
    p = v.field.p
    if p not in ENUMERATION_PRIMES:
        raise UnsupportedScopeError("subrepresentation enumeration supports p in {2, 3}")
    total = 1
    for d in v.dims:
        total *= linalg.count_subspaces(d, p)
    if total > DEFAULT_SUBREP_GUARD:
        raise ResourceGuardError(f"{total} subspace tuples exceed the guard {DEFAULT_SUBREP_GUARD}")
    per_vertex = [linalg.subspaces(d, p) for d in v.dims]
    q = v.quiver
    for combo in itertools.product(*per_vertex):
        images = []
        for a, (s, t) in enumerate(q.arrows):
            u_s, u_t = combo[s - 1], combo[t - 1]
            # rows: V_a u for the basis rows u of U_s
            image = tuple(
                tuple(sum(x * y for x, y in zip(row, u)) % p for row in v.mats[a]) for u in u_s
            )
            if u_s and linalg.rank(u_t + image, p) != len(u_t):
                break
            images.append(image)
        else:
            # U_t is in RREF, so a vector of its row space has its
            # coordinates at the pivots of U_t.
            mats = []
            for (_, t), image in zip(q.arrows, images):
                pivots = [row.index(1) for row in combo[t - 1]]
                mats.append(tuple(tuple(row[c] for row in image) for c in pivots))
            sub = _built(q, v.field, tuple(map(len, combo)), tuple(mats))
            comps = tuple(linalg.transpose(u, d) for u, d in zip(combo, v.dims))
            yield sub, Morphism(sub, v, comps)


def _embeds(v: Representation, w: Representation, kernel: tuple[Matrix, list[int]]) -> bool:
    """Whether some map in Hom(V, W) is injective at every vertex, trying one
    map per line of Hom(V, W) (_hom_elements on kernel, refused past
    DEFAULT_SUBREP_GUARD maps in all): a nonzero multiple of a map is
    injective where it is, and zero is not, so with dim Hom = 1 the basis
    map alone decides.  is_indecomposable enumerates every map, as an
    idempotent's multiples are not idempotent."""
    p = v.field.p
    if p not in ENUMERATION_PRIMES:
        raise UnsupportedScopeError("injective-map enumeration supports p in {2, 3}")
    return any(
        all(linalg.rank(c, p) == d for c, d in zip(comps, v.dims) if d)
        for comps in _hom_elements(v, w, kernel, DEFAULT_SUBREP_GUARD, lines=True)
    )


def enumerate_extensions(z: Representation, x: Representation):
    """Every middle term Y of an extension 0 -> X -> Y -> Z -> 0, one per
    Ext^1 class, split extension first.

    Classes are enumerated as the canonical complement of the coboundary
    image inside the cocycle space of the two-term presentation, after one
    rank: at full row rank Ext^1 = 0 and the split term is the only one.
    A rank one too large where dim Ext^1 = 1 reads full and is not caught
    here; the extension tables do not take this path, and TestOracleLegs,
    where a lost class is a lost summand, checks them against it.
    """
    system = _ext_system(z, x)
    p, rows = z.field.p, len(system)
    free = []
    if (rank := linalg.rank(system, p)) < rows:
        free = _ext_projection(system, p)[1]  # the images in Ext^1 are never built
        if len(free) != rows - rank:
            raise InternalInvariantError("the Ext^1 classes disagree with the rank of the Hom system")
    for coeffs in itertools.product(range(p), repeat=len(free)):
        psi = [0] * rows
        for c, j in zip(coeffs, free):
            psi[j] = c
        yield _block_triangular(x, z, psi if any(coeffs) else None)


def _ext_system(z: Representation, x: Representation) -> linalg.Planes:
    """The Hom system of (Z, X) under HOM_KERNEL_GUARD; for p in
    ENUMERATION_PRIMES only."""
    _check_pair(z, x)
    if z.field.p not in ENUMERATION_PRIMES:
        raise UnsupportedScopeError("extension enumeration supports p in {2, 3}")
    return _hom_system(z, x, HOM_KERNEL_GUARD)


def _ext_projection(system: linalg.Planes, p: int) -> tuple[Iterator[tuple[int, ...]], list[int]]:
    """The images of the rows of a Hom system in Ext^1, built as they are
    read (linalg.cokernel_images), and its rows off the echelon pivots of
    the coboundary image, where the projection is the identity: the unit
    cocycles there are a basis of a complement, so their combinations
    (itertools.product order, zero first) are one cocycle per class.
    Refused beyond DEFAULT_EXT_GUARD dimensions."""
    images, free = linalg.cokernel_images(system, p)
    if len(free) > DEFAULT_EXT_GUARD:
        raise ResourceGuardError(f"Ext^1 dimension {len(free)} exceeds the guard {DEFAULT_EXT_GUARD}")
    return images, free


def _ext_classes(z: Representation, x: Representation) -> tuple[Iterator[tuple[int, ...]], list[int]]:
    """_ext_projection of the Hom system of (Z, X): one elimination."""
    return _ext_projection(_ext_system(z, x), z.field.p)


# -- serialization -------------------------------------------------------------


def rep_to_json(v: Representation) -> dict:
    mats = {str(a): [list(row) for row in m] if m and m[0] else [] for a, m in enumerate(v.mats)}
    return {"field": v.field.p, "dims": list(v.dims), "mats": mats}


def rep_from_json(q: Quiver, data: object) -> Representation:
    if not isinstance(data, dict) or "field" not in data or "dims" not in data:
        raise InputFormatError('representation JSON must carry "field", "dims", "mats"')
    try:
        field = FieldSpec(json_int(data["field"]))
        dims = tuple(json_int(d) for d in data["dims"])
    except TypeError as exc:
        raise InputFormatError(f"malformed representation JSON: {exc}") from exc
    raw = data.get("mats", {})
    if not isinstance(raw, dict) or len(dims) != q.n or min(dims, default=0) < 0:
        raise InputFormatError(f'need {q.n} nonnegative "dims" and a "mats" object by arrow id')
    if unknown := sorted(raw.keys() - map(str, range(len(q.arrows)))):
        raise InputFormatError(f'"mats" keys {unknown} are not arrow ids of a quiver with {len(q.arrows)} arrows')
    if (d := max(dims, default=0)) > HOM_SYSTEM_GUARD:
        raise ResourceGuardError(f"vertex dimension {d} exceeds the guard {HOM_SYSTEM_GUARD}")
    if (entries := sum(dims[t - 1] * dims[s - 1] for s, t in q.arrows)) > HOM_SYSTEM_GUARD:
        raise ResourceGuardError(f"{entries} matrix entries exceed the guard {HOM_SYSTEM_GUARD}")
    mats = []
    for a, (s, t) in enumerate(q.arrows):
        rows, cols = dims[t - 1], dims[s - 1]
        entry = raw.get(str(a))
        if entry in (None, []):
            mats.append(linalg.zeros(rows, cols))
            continue
        if not isinstance(entry, list) or not all(isinstance(row, list) for row in entry):
            raise InputFormatError(f"arrow {a}: a matrix must be a list of rows")
        try:
            m = tuple(tuple(json_int(x) for x in row) for row in entry)
        except InputFormatError as exc:
            raise InputFormatError(f"arrow {a}: malformed matrix: {exc}") from exc
        if any(not -(2**63) <= x < 2**63 for row in m for x in row):
            raise InputFormatError(f"arrow {a}: matrix entries must be 64-bit integers")
        if len(m) != rows or any(len(row) != cols for row in m):
            raise InputFormatError(f"arrow {a}: expected a {rows} x {cols} matrix")
        mats.append(m)
    return Representation(q, field, dims, tuple(mats))
