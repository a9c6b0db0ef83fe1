"""Quiver representations over a small prime field.

Exact Hom and Ext^1 computation, reflection functors at sinks and sources
(on objects and morphisms), construction of the indecomposable for each
positive real root of a Dynkin quiver, Krull-Schmidt decomposition, and
exhaustive enumeration of subrepresentations and extensions, written for
tiny fields and guarded dimensions rather than speed: the tests' brute-force
cross-check of the tables below, and what the oracle_tables benchmark times.

The roots and the indecomposables come from one word, the c-sorting word of
w_0, walked once (weyl.longest_element) and adapted to the quiver: the
indecomposable at its k-th inversion is the simple at the k-th letter pulled
back through source reflections at the letters before it (Bernstein-Gelfand-
Ponomarev).  In this order (Auslander-Reiten order) the Hom table is upper
unitriangular, which decompose reads.  No root orbit is listed.

The closure oracle's two legs, which check every class of quivrep.torsion's
search, are tables of a DynkinCategory and scale with Hom, not subspaces.
The subrepresentation leg of an indecomposable M lists the indecomposables
N with an injective map N -> M, found among the p^(dim Hom) elements of
Hom(N, M): every summand of a subrepresentation embeds in M, and every
image of an injective map is a subrepresentation.  enumerate_subreps, which
walks all subspace tuples, stays as the cross-check.  The extension leg
builds no middle term.  For each non-split class xi of
0 -> X -> Y -> Z -> 0, taken only where the Hom table and the Euler form
give dim Ext^1(Z, X) = dim Hom(Z, X) - <dim Z, dim X> > 0 and enumerated
as enumerate_extensions does, it reads dim Hom(I_b, Y) off the long exact
sequence of Hom(I_b, -): it is T[b][x] + T[b][z] - rank d_xi, for the
connecting map d_xi : Hom(I_b, Z) -> Ext^1(I_b, X) that sends g to the
class of the cocycle of xi composed with g.  decompose and the extension
leg share one multiplicity walk (DynkinCategory.multiplicities), which asks
for dim Hom(I_b, -) only at roots that can still be summands.

Hom and Ext^1 share one linear system of sparse rows (_hom_system), one
int mask per entry value (linalg.Planes) for every p.  A
dimension (hom_dim, ext1_dim, and through hom_dim the Hom table and
decompose) is a forward-only rank (linalg.rank); hom_basis builds the
morphisms of the canonical kernel basis of the rows written out in full,
and _hom_elements enumerates every combination of them.

Matrix conventions: every matrix is a :data:`~quivrep.quiver.Matrix`, a
tuple of row tuples with entries in 0..p-1, so representations and
morphisms compare and hash as plain values.  The map of an arrow a: i -> j
has dims[j] rows of dims[i] entries and acts on column vectors; when
dims[j] = 0 it is the empty tuple, and shapes are read from the dimension
vectors, never from the matrices.  Every kernel and cokernel comes from
:mod:`quivrep.linalg`, whose bases are canonical, so all constructions
here are deterministic.
"""

from __future__ import annotations

import itertools
import operator
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
    euler_form,
    json_int,
    mutate_at,
    unit_vector,
    vertex_kind,
)
from .roots import POSITIVE_ROOT_GUARD
from .weyl import longest_element

SUPPORTED_PRIMES = (2, 3, 5)
ENUMERATION_PRIMES = (2, 3)
DEFAULT_INDEC_GUARD = 12
INDEC_ENUM_GUARD = 200000
DEFAULT_SUBREP_GUARD = 10**6
DEFAULT_EXT_GUARD = 6
HOM_SYSTEM_GUARD = 2000  # unknowns or rows of a Hom system, entries or a vertex dimension of a parsed rep
HOM_KERNEL_GUARD = 200  # unknowns or rows of a dense Hom system, rows or columns of a reflected map (rref)


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
    """A vector space dimension per vertex and a matrix per arrow."""

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


def _as_matrix(m, rows: int, cols: int, p: int, what: str) -> Matrix:
    """A nested int sequence as a Matrix over F_p, checked to be rows x cols."""
    out = tuple(tuple(int(x) % p for x in row) for row in m)
    if len(out) != rows or any(len(row) != cols for row in out):
        raise DimensionMismatchError(f"{what}: expected a {rows} x {cols} matrix")
    return out


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
    return _block_triangular(v, w, itertools.repeat(0))


def _block_triangular(x: Representation, z: Representation, psi) -> Representation:
    """The representation with arrow matrices [[X_a, psi_a], [0, Z_a]].

    ``psi`` yields the entries of the blocks psi_a arrow by arrow, each
    row-major, which is the row order of the Hom system of (Z, X); all
    zeros give the direct sum of X and Z.
    """
    psi = iter(psi)
    q = x.quiver
    mats = []
    for a, (s, _) in enumerate(q.arrows):
        width = z.dims[s - 1]
        top = tuple(row + tuple(itertools.islice(psi, width)) for row in x.mats[a])
        pad = (0,) * x.dims[s - 1]
        mats.append(top + tuple(pad + row for row in z.mats[a]))
    dims = tuple(a + b for a, b in zip(x.dims, z.dims))
    return Representation(q, x.field, dims, tuple(mats))


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


def _hom_system(v: Representation, w: Representation) -> linalg.Planes:
    """Sparse rows (linalg.rank) of (f_i) |-> (W_a f_{s(a)} - f_{t(a)} V_a) on
    the unknowns f_i, each flattened row-major, concatenated in vertex order.

    Its kernel is Hom(V, W); its cokernel is Ext^1(V, W), so a zero row is
    kept; refused past HOM_SYSTEM_GUARD unknowns or rows.  It is the two-term
    presentation of the path-algebra Hom/Ext pair; its rows drive extension
    enumeration too.  Row (r, c) of the block of arrow a: s -> t is entry
    (r, c) of W_a f_s - f_t V_a: row r of W_a at the unknowns (k, c) of f_s,
    less column c of V_a at the unknowns (r, k) of f_t.  The two sets of
    unknowns are disjoint, as a quiver has no loops.
    """
    p, dims = v.field.p, v.dims
    offsets = (0, *itertools.accumulate(map(operator.mul, dims, w.dims)))
    if offsets[-1] > HOM_SYSTEM_GUARD:
        raise ResourceGuardError(f"{offsets[-1]} Hom-system unknowns exceed the guard {HOM_SYSTEM_GUARD}")
    system = []
    for a, (s, t) in enumerate(v.quiver.arrows):
        vs, w_mat = dims[s - 1], w.mats[a]
        if not (vs and w_mat):  # a block without rows
            continue
        if len(system) + len(w_mat) * vs > HOM_SYSTEM_GUARD:
            raise ResourceGuardError(f"Hom-system rows exceed the guard {HOM_SYSTEM_GUARD}")
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


def _dense_hom_system(v: Representation, w: Representation) -> Matrix:
    """The Hom-system rows written out in full, for the echelon forms of rref;
    refused past HOM_KERNEL_GUARD unknowns or rows."""
    unknowns = sum(map(operator.mul, v.dims, w.dims))
    rows = sum(v.dims[s - 1] * w.dims[t - 1] for s, t in v.quiver.arrows)
    if max(unknowns, rows) > HOM_KERNEL_GUARD:
        raise ResourceGuardError(f"a dense Hom system of {rows} x {unknowns} exceeds the guard {HOM_KERNEL_GUARD}")
    zeros = dict.fromkeys(range(unknowns), 0)  # entry k of a row: the x whose plane holds bit k
    return tuple(
        tuple((zeros | {k: x for x, plane in enumerate(row) for k in linalg.bits(plane)}).values())
        for row in _hom_system(v, w)
    )


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


def _combination(coeffs, vectors, p: int) -> tuple[int, ...]:
    """sum_k coeffs[k] vectors[k] over F_p, for nonempty equal-length vectors."""
    return tuple(sum(c * x for c, x in zip(coeffs, col)) % p for col in zip(*vectors))


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
    return linalg.kernel_basis(_dense_hom_system(v, w), v.field.p, sum(map(operator.mul, v.dims, w.dims)))


def hom_basis(v: Representation, w: Representation) -> HomSpace:
    """Canonical basis of Hom(V, W): the kernel of all commuting squares."""
    return HomSpace(tuple(Morphism(v, w, _unflatten(v, w, vec)) for vec in zip(*_hom_kernel(v, w)[0])))


def _hom_elements(v: Representation, w: Representation, guard: int):
    """Every element of Hom(V, W) as vertex components, one per coefficient
    tuple over the canonical basis (itertools.product order, zero first);
    the one enumerator of Hom, refused when its p^dim elements pass guard."""
    p = v.field.p
    kernel, free = _hom_kernel(v, w)
    if p ** (d := len(free)) > guard:
        raise ResourceGuardError(f"{p}^{d} maps exceed the guard {guard}")
    for coeffs in itertools.product(range(p), repeat=d):
        yield _unflatten(v, w, [sum(c * x for c, x in zip(coeffs, row)) % p for row in kernel])


def hom_dim(v: Representation, w: Representation) -> int:
    """dim Hom(V, W) as the number of unknowns less the rank of the Hom
    system; hom_basis gives the same count with the maps themselves."""
    _check_pair(v, w)
    return _hom_dim(v, w)


def _hom_dim(v: Representation, w: Representation) -> int:
    """hom_dim of a pair already checked to share a quiver and a field."""
    unknowns = sum(dv * dw for dv, dw in zip(v.dims, w.dims))
    # Disjoint supports leave no unknowns: Hom is 0 without building the system.
    return unknowns and unknowns - linalg.rank(_hom_system(v, w), v.field.p)


def ext1_dim(v: Representation, w: Representation) -> int:
    """dim Ext^1(V, W) as the corank of the two-term presentation; satisfies
    dim Hom - dim Ext^1 = <dim V, dim W>."""
    _check_pair(v, w)
    system = _hom_system(v, w)
    return len(system) - linalg.rank(system, v.field.p)


# -- reflection functors ------------------------------------------------------


def _summand_layout(arrows, dims: tuple[int, ...]) -> list[tuple[int, int, int]]:
    """(arrow, other end, row offset) for (arrow, other end) pairs in id
    order, the offset locating the arrow's summand inside the direct sum
    over arrows (parallel arrows repeat their summand)."""
    layout = []
    offset = 0
    for a, u in arrows:
        layout.append((a, u, offset))
        offset += dims[u - 1]
    return layout


def _require_kind(q: Quiver, i: int, wanted: VertexKind) -> None:
    kind = vertex_kind(q, i)
    if kind not in (wanted, VertexKind.ISOLATED):
        raise MutationError(f"vertex {i} is not a {wanted.value} (found {kind.value})")


def _in_map(q: Quiver, v: Representation, i: int) -> tuple[Matrix, list]:
    layout = _summand_layout(q.in_arrows(i), v.dims)
    phi = tuple(sum((v.mats[a][r] for a, _, _ in layout), ()) for r in range(v.dims[i - 1]))
    return phi, layout


def _guard_reflected_map(rows: int, cols: int) -> None:
    """A reflection functor's summed map is eliminated densely, and its
    kernel basis or cokernel projection is square in one side: refused past
    HOM_KERNEL_GUARD rows or columns."""
    if max(rows, cols) > HOM_KERNEL_GUARD:
        raise ResourceGuardError(f"a summed map of {rows} x {cols} exceeds the guard {HOM_KERNEL_GUARD}")


def _in_kernel(q: Quiver, v: Representation, i: int) -> tuple[Matrix, list[int], list]:
    """Columns: the canonical kernel basis of the in-map at the sink i; also
    its free rows, where the basis is the identity, and the summand layout."""
    phi, layout = _in_map(q, v, i)
    cols = sum(v.dims[s - 1] for _, s, _ in layout)
    _guard_reflected_map(len(phi), cols)
    return *linalg.kernel_basis(phi, v.field.p, cols), layout


def reflect_plus(q: Quiver, i: int, v: Representation) -> Representation:
    """Reflection functor at a sink i: replace the space at i by the kernel
    of the summed in-map and turn the reversed arrows into the components of
    the kernel inclusion.  Result lives on the mutated quiver."""
    if v.quiver != q:
        raise QuiverMismatchError("representation does not live on the given quiver")
    _require_kind(q, i, VertexKind.SINK)
    kernel, free, layout = _in_kernel(q, v, i)
    dims2 = list(v.dims)
    dims2[i - 1] = len(free)
    mats2 = list(v.mats)
    for a, s, offset in layout:
        mats2[a] = kernel[offset : offset + v.dims[s - 1]]
    return Representation(mutate_at(q, i), v.field, tuple(dims2), tuple(mats2))


def reflect_plus_mor(q: Quiver, i: int, f: Morphism) -> Morphism:
    """Functorial action at a sink: off i the components are reused; at i the
    block-diagonal sum of components restricts between the two kernels, and
    its rows at the free rows of W's kernel basis, where that basis is the
    identity, are its coordinates (Morphism checks every square)."""
    if f.source.quiver != q:
        raise QuiverMismatchError("morphism does not live on the given quiver")
    _require_kind(q, i, VertexKind.SINK)
    p = f.source.field.p
    v, w = f.source, f.target
    k_v, free_v, layout_v = _in_kernel(q, v, i)
    k_w, free_w, layout_w = _in_kernel(q, w, i)
    w_offsets = {a: offset for a, _, offset in layout_w}
    big = [[0] * len(k_v) for _ in k_w]
    for a, s, offset in layout_v:
        for r, row in enumerate(f.comps[s - 1]):
            big[w_offsets[a] + r][offset : offset + v.dims[s - 1]] = row
    comps = list(f.comps)
    comps[i - 1] = linalg.mat_mul([big[r] for r in free_w], k_v, p, len(free_v))
    return Morphism(reflect_plus(q, i, v), reflect_plus(q, i, w), tuple(comps))


def reflect_minus(q: Quiver, i: int, v: Representation) -> Representation:
    """Reflection functor at a source i: replace the space at i by the
    cokernel of the summed out-map, presented on the canonical echelon
    complement.  Result lives on the mutated quiver."""
    if v.quiver != q:
        raise QuiverMismatchError("representation does not live on the given quiver")
    _require_kind(q, i, VertexKind.SOURCE)
    return _reflect_minus(q, i, v, mutate_at(q, i))


def _reflect_minus(q: Quiver, i: int, v: Representation, mutated: Quiver) -> Representation:
    """reflect_minus onto ``mutated``, q mutated at i, which the caller
    already holds; v on q and i a source of q are not checked again."""
    layout = _summand_layout(q.out_arrows(i), v.dims)
    psi = tuple(row for a, _, _ in layout for row in v.mats[a])
    _guard_reflected_map(len(psi), v.dims[i - 1])
    proj = linalg.cokernel_projection(psi, v.field.p)
    dims2 = list(v.dims)
    dims2[i - 1] = len(proj)
    mats2 = list(v.mats)
    for a, t, offset in layout:
        mats2[a] = tuple(row[offset : offset + v.dims[t - 1]] for row in proj)
    return Representation(mutated, v.field, tuple(dims2), tuple(mats2))


def strip_simple_summands(q: Quiver, i: int, v: Representation) -> Representation:
    """Drop every summand isomorphic to the simple at the sink i by passing
    through both reflection functors; dimensions are checked against the
    corank of the in-map."""
    plus = reflect_plus(q, i, v)
    back = reflect_minus(mutate_at(q, i), i, plus)
    phi, _ = _in_map(q, v, i)
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
    table and the word order in which its ranks are checked, and the
    requirement tables of the torsion-free closure oracle.  A requirement
    is an int mask of roots, bit k standing for roots[k].  Kept on the
    quiver object by dynkin_category.  Only a Dynkin quiver within
    POSITIVE_ROOT_GUARD, read from its type before any walk, gets one.
    weyl.longest_element gives the word i_1 ... i_N and the roots beta_k =
    s_{i_1} ... s_{i_{k-1}} e_{i_k}, the tuples every Weyl walk on q
    returns; _position[beta_k] = k - 1."""

    def __init__(self, q: Quiver, field: FieldSpec) -> None:
        if not q.is_dynkin:
            raise UnsupportedScopeError("indecomposables and their tables require a Dynkin quiver")
        if (count := q.dynkin.positive_root_count) > POSITIVE_ROOT_GUARD:
            raise ResourceGuardError(f"{count} positive roots exceed the guard {POSITIVE_ROOT_GUARD}")
        self.quiver = q
        self.field = field
        self.word, inversions = longest_element(q)
        self.roots = tuple(sorted(inversions))
        self.index = {root: k for k, root in enumerate(self.roots)}
        self._position = {root: k for k, root in enumerate(inversions)}
        self._indecs: dict[IntVector, Representation] = {}

    @cached_property
    def _quivers(self) -> tuple[Quiver, ...]:
        """The orientations Q_0 = q, Q_k = Q_{k-1} mutated at i_k.  The word
        is adapted, checked here: each i_k is a sink of Q_{k-1}."""
        quivers = [self.quiver]
        for i in self.word:
            if vertex_kind(quivers[-1], i) not in (VertexKind.SINK, VertexKind.ISOLATED):
                raise InternalInvariantError(f"the c-sorting word of w_0 reflects at a non-sink {i}")
            quivers.append(mutate_at(quivers[-1], i))
        return tuple(quivers)

    def indec(self, root: IntVector) -> Representation:
        """The indecomposable at a positive real root, built on first request
        by Bernstein-Gelfand-Ponomarev: at beta_k, R-_{i_1} ... R-_{i_{k-1}}
        of the simple at i_k on Q_{k-1}.  R-_i is full and faithful off S_i,
        so the result is indecomposable; its dimension vector is checked.
        R-_{i_j} takes Q_j to Q_{j-1}, which _quivers already holds, and i_j
        is a source of Q_j, a sink of Q_{j-1} in the adapted word."""
        if root not in self._indecs:
            word, quivers, k = self.word, self._quivers, self._position[root]
            rep = simple_rep(quivers[k], self.field, word[k])
            for j in reversed(range(k)):
                rep = _reflect_minus(quivers[j + 1], word[j], rep, quivers[j])
            if rep.dims != root:
                raise InternalInvariantError("constructed indecomposable has the wrong dimensions")
            self._indecs[root] = rep
        return self._indecs[root]

    @cached_property
    def hom_table(self) -> Matrix:
        """T[b][a] = dim Hom(I_b, I_a), a rank (hom_dim); no basis is built."""
        indecs = [self.indec(r) for r in self.roots]
        return tuple(tuple(hom_dim(b, a) for a in indecs) for b in indecs)

    @cached_property
    def hom_support(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Row b: (a, T[b][a]) for each nonzero T[b][a] off the diagonal."""
        table = self.hom_table
        return tuple(tuple((a, t) for a, t in enumerate(row) if t and a != b) for b, row in enumerate(table))

    @cached_property
    def hom_order(self) -> tuple[int, ...]:
        """Root indices in word order beta_1, ..., beta_N (Auslander-Reiten
        order), in which every rank is checked: T[b][a] is the Euler form
        <beta_b, beta_a> for b at or before a and 0 for b after a, so T is
        upper unitriangular.  By induction on the word: I_{beta_1} = S_{i_1}
        is simple projective, i_1 being a sink; R+_{i_1} is full and
        faithful off S_{i_1} and carries the other beta_k, in order, to the
        inversions of i_2 ... i_N, a word adapted to Q_1.  For b at or
        before a, Ext^1(I_b, I_a) = D Hom(I_a, tau I_b) = 0.  The ranks stay
        the source, as the formula would tie the table to the Weyl walk."""
        table, roots, q = self.hom_table, self.roots, self.quiver
        order = tuple(self.index[root] for root in self._position)
        for k, b in enumerate(order):
            if any(table[b][a] for a in order[:k]) or any(
                table[b][a] != euler_form(q, roots[b], roots[a]) for a in order[k:]
            ):
                raise InternalInvariantError("Hom table disagrees with the Euler form in word order")
        return order

    @cached_property
    def subrep_masks(self) -> tuple[int, ...]:
        """Entry k: the roots of every summand of every subrepresentation of
        the indecomposable M at roots[k], that is the roots j with T[j][k] > 0,
        no larger than roots[k] at any vertex, with an injective map I_j -> M.
        A summand N of a subrepresentation U embeds N -> U -> M, and the
        image of an injective map is a subrepresentation isomorphic to N."""
        table = self.hom_table
        return tuple(
            sum(
                1 << j
                for j, root in enumerate(self.roots)
                if table[j][k]
                and all(a <= b for a, b in zip(root, top))
                and _embeds(self.indec(root), self.indec(top))
            )
            for k, top in enumerate(self.roots)
        )

    def multiplicities(self, dims: IntVector, hom_of) -> dict[IntVector, int]:
        """Multiplicities {root: m} of the representation V with dimension
        vector dims, keyed in root order, given hom_of(b) = dim Hom(I_b, V).

        V = sum_a m_a I_a gives hom_of(b) = sum_a T[b][a] m_a, a system that
        is upper unitriangular in hom_order.  The walk solves it in reverse
        hom_order, keeping left = dims - sum of m_a root_a over the roots
        solved so far, and asks hom_of(b) only when root_b fits in left at
        every vertex; it stops once left is zero.  Skipping is sound: by
        induction, left is the dimension vector of the summands at b and
        before it, so a root that does not fit has multiplicity 0, and the
        roots asked for index a principal submatrix of T, which is still
        unitriangular, on which the system and its solution restrict.  A
        negative multiplicity, or a left that does not end at zero (it
        cannot come back once negative), raises InternalInvariantError.
        A wrong rank at a root that fits can pass both checks (bipartite D5
        over F_3: one too many at (0, 0, 1, 0, 0) is absorbed); the full-solve
        parity, TestOracleLegs.test_decompose_matches_the_full_solve, catches it.
        """
        roots, mults, left = self.roots, [0] * len(self.roots), dims
        for b in reversed(self.hom_order):  # T[b][a] = 0 for a before b, T[b][b] = 1
            if not any(left):
                break
            root = roots[b]
            if any(map(operator.gt, root, left)):
                continue
            m = mults[b] = hom_of(b) - sum(t * mults[a] for a, t in self.hom_support[b])
            if m < 0:
                raise InternalInvariantError("negative multiplicity")
            if m:
                left = tuple(l - m * r for l, r in zip(left, root))
        if any(left):
            raise InternalInvariantError("multiplicities do not add up to the dimension vector")
        return {root: m for root, m in zip(roots, mults) if m}

    @cached_property
    def extension_masks(self) -> tuple[tuple[int, ...], ...]:
        """Entry [j][k] = [k][j]: the roots of every summand of every middle
        term of an extension, of either one by the other, between the
        indecomposables at roots[j] and roots[k].  The split term has
        summands roots[j] and roots[k] (Krull-Schmidt) and comes first in
        enumerate_extensions' order, so only the other classes xi are
        walked, and only for Z, X with dim Ext^1(Z, X) = T[z][x] -
        <root_z, root_x> nonzero.  No middle term Y is built:
        multiplicities reads dim Hom(I_b, Y) = T[b][x] + T[b][z] - rank d_xi
        (module docstring).  d_xi is zero when T[b][z] = 0 or
        Ext^1(I_b, X) = 0; otherwise it is bilinear in (xi, g), so for each
        unit cocycle e of (Z, X) and each map g of the canonical basis of
        Hom(I_b, Z) the class of e g is computed once per (b, z, x), and
        rank d_xi is the rank of their combination by the coordinates of
        xi: at most T[b][z] rows of dim Ext^1(I_b, X) entries."""
        table, roots, n, p = self.hom_table, self.roots, len(self.roots), self.field.p
        q, indecs = self.quiver, [self.indec(r) for r in self.roots]
        ext = [[t - euler_form(q, rb, ra) for ra, t in zip(roots, row)] for rb, row in zip(roots, table)]
        # Caches for this build: per (b, x), the image of each row of the
        # Hom system of (I_b, X) in Ext^1(I_b, X) and the first row of each
        # arrow's block; per (b, z), the canonical basis of Hom(I_b, Z); per
        # (b, z, x), for each basis map, the class of each unit cocycle
        # pulled back along it.
        classes, bases, pulled = {}, {}, {}

        def pullbacks(b: int, z: int, x: int, units) -> list:
            if (b, x) not in classes:
                system = _dense_hom_system(indecs[b], indecs[x])
                cols = linalg.transpose(linalg.cokernel_projection(system, p), len(system))
                cells = _system_cells(indecs[b], indecs[x])
                classes[b, x] = cols, {a: j for j, (a, r, c) in enumerate(cells) if r == c == 0}
            if (b, z) not in bases:
                kernel = _hom_kernel(indecs[b], indecs[z])[0]
                bases[b, z] = [_unflatten(indecs[b], indecs[z], vec) for vec in zip(*kernel)]
            if (b, z, x) not in pulled:
                # The unit cocycle at entry (r, c) of arrow a: s -> t, composed
                # with g, is row c of g_s placed in row r of a's block of the
                # (I_b, X) system; its class combines the images of that row.
                cols, first = classes[b, x]
                out = []
                for g in bases[b, z]:
                    by_unit = []
                    for a, r, c in units:
                        s = q.arrows[a][0]
                        if a in first:
                            at, width = first[a] + r * roots[b][s - 1], roots[b][s - 1]
                            by_unit.append(_combination(g[s - 1][c], cols[at : at + width], p))
                        else:  # I_b is zero at s
                            by_unit.append((0,) * ext[b][x])
                    out.append(by_unit)
                pulled[b, z, x] = out
            return pulled[b, z, x]

        masks = [[1 << j | 1 << k for k in range(n)] for j in range(n)]
        for z, x in itertools.product(range(n), repeat=2):
            if not ext[z][x]:
                continue  # the split term is the only one
            cells = _system_cells(indecs[z], indecs[x])
            units = [cells[j] for j in _ext_classes(indecs[z], indecs[x])[1]]
            dims = tuple(map(operator.add, roots[x], roots[z]))
            for xi in itertools.islice(itertools.product(range(p), repeat=len(units)), 1, None):

                def hom_of(b: int) -> int:
                    if not (table[b][z] and ext[b][x]):
                        return table[b][x] + table[b][z]
                    rows = [_combination(xi, by_unit, p) for by_unit in pullbacks(b, z, x, units)]
                    return table[b][x] + table[b][z] - linalg.rank(rows, p)

                for root in self.multiplicities(dims, hom_of):
                    masks[z][x] |= 1 << self.index[root]
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
    return {root: indec_of_real_root(q, root, field) for root in dynkin_category(q, field).roots}


def is_indecomposable(v: Representation) -> bool:
    """True iff the endomorphism algebra has no idempotents besides 0 and 1.

    Enumerates End(V) (_hom_elements, guarded by INDEC_ENUM_GUARD) after a
    guard on the total dimension; the zero representation counts as
    decomposable.
    """
    if v.total_dim == 0:
        return False
    if v.total_dim > DEFAULT_INDEC_GUARD:
        raise ResourceGuardError(f"total dimension {v.total_dim} exceeds guard {DEFAULT_INDEC_GUARD}")
    p = v.field.p
    trivial = (tuple(linalg.zeros(d, d) for d in v.dims), tuple(linalg.eye(d) for d in v.dims))
    return not any(
        comps not in trivial and all(linalg.mat_mul(c, c, p, len(c)) == c for c in comps)
        for comps in _hom_elements(v, v, INDEC_ENUM_GUARD)
    )


def decompose(v: Representation) -> dict[IntVector, int]:
    """Multiplicities of each indecomposable in V, as {root: multiplicity}.

    The category's multiplicity walk (DynkinCategory.multiplicities) on
    the Hom ranks (hom_dim) of V, each computed only for a root that fits
    in what the summands found so far leave of dim V; the multiplicities
    are checked to be nonnegative and to add up to the dimension vector.
    """
    cat = dynkin_category(v.quiver, v.field)
    if v.total_dim == 0:
        return {}
    return cat.multiplicities(v.dims, lambda b: _hom_dim(cat.indec(cat.roots[b]), v))


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
            sub = Representation(q, v.field, tuple(map(len, combo)), tuple(mats))
            comps = tuple(linalg.transpose(u, d) for u, d in zip(combo, v.dims))
            yield sub, Morphism(sub, v, comps)


def _embeds(v: Representation, w: Representation) -> bool:
    """Whether some map in Hom(V, W) is injective at every vertex, trying
    all p^(dim Hom) of them (_hom_elements, guarded by DEFAULT_SUBREP_GUARD)."""
    p = v.field.p
    if p not in ENUMERATION_PRIMES:
        raise UnsupportedScopeError("injective-map enumeration supports p in {2, 3}")
    return any(
        all(linalg.rank(c, p) == d for c, d in zip(comps, v.dims) if d)
        for comps in _hom_elements(v, w, DEFAULT_SUBREP_GUARD)
    )


def enumerate_extensions(z: Representation, x: Representation):
    """Every middle term Y of an extension 0 -> X -> Y -> Z -> 0, one per
    Ext^1 class, split extension first.

    Classes are enumerated as the canonical complement of the coboundary
    image inside the cocycle space of the two-term presentation.
    """
    rows, free = _ext_classes(z, x)
    for coeffs in itertools.product(range(z.field.p), repeat=len(free)):
        psi = [0] * rows
        for c, j in zip(coeffs, free):
            psi[j] = c
        yield _block_triangular(x, z, psi)


def _ext_classes(z: Representation, x: Representation) -> tuple[int, list[int]]:
    """The number of rows of the Hom system of (Z, X) and its rows off the
    echelon pivots of the coboundary image: the unit cocycles there are a
    basis of a complement, so their combinations (itertools.product order,
    zero first) are one cocycle per Ext^1(Z, X) class.  Refused for p
    outside ENUMERATION_PRIMES and beyond DEFAULT_EXT_GUARD dimensions."""
    _check_pair(z, x)
    p = z.field.p
    if p not in ENUMERATION_PRIMES:
        raise UnsupportedScopeError("extension enumeration supports p in {2, 3}")
    system = _dense_hom_system(z, x)
    _, pivots = linalg.rref(tuple(zip(*system)), p)
    free = [j for j in range(len(system)) if j not in pivots]
    if len(free) > DEFAULT_EXT_GUARD:
        raise ResourceGuardError(f"Ext^1 dimension {len(free)} exceeds the guard {DEFAULT_EXT_GUARD}")
    return len(system), free


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
