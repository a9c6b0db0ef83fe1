"""Quiver representations over a small prime field.

Exact Hom and Ext^1 computation, reflection functors at sinks and sources
(on objects and morphisms), construction of the indecomposable for each
positive real root of a Dynkin quiver, Krull-Schmidt decomposition, and
exhaustive enumeration of subrepresentations and extensions.  The
enumerators exist to serve as a brute-force oracle, so they are written for
tiny fields and guarded dimensions rather than speed.

Matrix conventions: the map of an arrow a: i -> j has shape
(dims[j], dims[i]) and acts on column vectors.  Every kernel, cokernel and
solve goes through :mod:`quivrep.linalg`, whose bases are canonical, so all
constructions here are deterministic.
"""

from __future__ import annotations

import itertools
import weakref
from collections import deque
from dataclasses import dataclass
from functools import cached_property

import numpy as np

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
    Quiver,
    VertexKind,
    check_vertex,
    dynkin_type,
    mutate_at,
    unit_vector,
    vertex_kind,
)
from .roots import positive_real_roots
from .weyl import simple_reflection

SUPPORTED_PRIMES = (2, 3, 5)
ENUMERATION_PRIMES = (2, 3)
DEFAULT_INDEC_GUARD = 12
DEFAULT_SUBREP_GUARD = 10**6
DEFAULT_EXT_GUARD = 6


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


@dataclass(frozen=True, eq=False)
class Representation:
    """A vector space dimension per vertex and a matrix per arrow."""

    quiver: Quiver
    field: FieldSpec
    dims: tuple[int, ...]
    mats: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        if len(self.dims) != self.quiver.n:
            raise DimensionMismatchError("dimension vector length differs from vertex count")
        if any(d < 0 for d in self.dims):
            raise InvalidParameterError("negative dimension")
        if len(self.mats) != len(self.quiver.arrows):
            raise DimensionMismatchError("one matrix per arrow required")
        mats = []
        for a, (s, t) in enumerate(self.quiver.arrows):
            m = linalg.normalize(self.mats[a], self.field.p)
            if m.size == 0:
                m = m.reshape(self.dims[t - 1], self.dims[s - 1])
            if m.shape != (self.dims[t - 1], self.dims[s - 1]):
                raise DimensionMismatchError(
                    f"arrow {a}: matrix shape {m.shape} != ({self.dims[t-1]}, {self.dims[s-1]})"
                )
            m.flags.writeable = False
            mats.append(m)
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        object.__setattr__(self, "mats", tuple(mats))

    @property
    def total_dim(self) -> int:
        return sum(self.dims)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Representation)
            and self.quiver == other.quiver
            and self.field == other.field
            and self.dims == other.dims
            and all(np.array_equal(a, b) for a, b in zip(self.mats, other.mats))
        )

    def __hash__(self) -> int:
        return hash((self.quiver, self.field, self.dims, tuple(m.tobytes() for m in self.mats)))

    def __repr__(self) -> str:
        return f"Representation(dims={self.dims}, p={self.field.p})"


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
    q, p = v.quiver, v.field.p
    dims = tuple(a + b for a, b in zip(v.dims, w.dims))
    mats = []
    for a, (s, t) in enumerate(q.arrows):
        block = linalg.zeros(dims[t - 1], dims[s - 1])
        block[: v.dims[t - 1], : v.dims[s - 1]] = v.mats[a]
        block[v.dims[t - 1] :, v.dims[s - 1] :] = w.mats[a]
        mats.append(block)
    return Representation(q, v.field, dims, tuple(mats))


def random_rep(q: Quiver, field: FieldSpec, rng, max_dim: int = 3) -> Representation:
    """Uniformly random dims in 0..max_dim and matrix entries; rng is a
    ``random.Random`` so experiments stay reproducible."""
    dims = tuple(rng.randrange(max_dim + 1) for _ in range(q.n))
    mats = []
    for s, t in q.arrows:
        rows, cols = dims[t - 1], dims[s - 1]
        mats.append(
            np.array(
                [[rng.randrange(field.p) for _ in range(cols)] for _ in range(rows)],
                dtype=np.int64,
            ).reshape(rows, cols)
        )
    return Representation(q, field, dims, tuple(mats))


@dataclass(frozen=True, eq=False)
class Morphism:
    """Vertexwise linear maps commuting with all arrow matrices."""

    source: Representation
    target: Representation
    comps: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        v, w = self.source, self.target
        _check_pair(v, w)
        p = v.field.p
        if len(self.comps) != v.quiver.n:
            raise DimensionMismatchError("one component per vertex required")
        comps = []
        for i in range(v.quiver.n):
            c = linalg.normalize(self.comps[i], p)
            if c.size == 0:
                c = c.reshape(w.dims[i], v.dims[i])
            if c.shape != (w.dims[i], v.dims[i]):
                raise DimensionMismatchError(
                    f"vertex {i+1}: component shape {c.shape} != ({w.dims[i]}, {v.dims[i]})"
                )
            c.flags.writeable = False
            comps.append(c)
        object.__setattr__(self, "comps", tuple(comps))
        for a, (s, t) in enumerate(v.quiver.arrows):
            lhs = (w.mats[a] @ self.comps[s - 1]) % p
            rhs = (self.comps[t - 1] @ v.mats[a]) % p
            if not np.array_equal(lhs, rhs):
                raise NotAMorphismError(f"square at arrow {a} does not commute")

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Morphism)
            and self.source == other.source
            and self.target == other.target
            and all(np.array_equal(a, b) for a, b in zip(self.comps, other.comps))
        )

    def __hash__(self) -> int:
        return hash((self.source, self.target, tuple(c.tobytes() for c in self.comps)))

    def is_zero(self) -> bool:
        return all(not c.any() for c in self.comps)


def identity_morphism(v: Representation) -> Morphism:
    return Morphism(v, v, tuple(linalg.eye(d) for d in v.dims))


def zero_morphism(v: Representation, w: Representation) -> Morphism:
    return Morphism(v, w, tuple(linalg.zeros(dw, dv) for dv, dw in zip(v.dims, w.dims)))


def compose_morphisms(g: Morphism, f: Morphism) -> Morphism:
    """g after f."""
    if f.target != g.source:
        raise DimensionMismatchError("morphisms are not composable")
    p = f.source.field.p
    comps = tuple((cg @ cf) % p for cg, cf in zip(g.comps, f.comps))
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


def _hom_system(v: Representation, w: Representation) -> tuple[np.ndarray, list[int]]:
    """Matrix of (f_i) |-> (W_a f_{s(a)} - f_{t(a)} V_a), plus the per-vertex
    offsets of the row-major-flattened unknowns f_i.

    Its kernel is Hom(V, W); its cokernel is Ext^1(V, W).  This is the
    two-term presentation of the path-algebra Hom/Ext pair, and the same
    matrix drives extension enumeration.
    """
    q, p = v.quiver, v.field.p
    offsets = [0]
    for i in range(q.n):
        offsets.append(offsets[-1] + w.dims[i] * v.dims[i])
    unknowns = offsets[-1]
    rows = sum(w.dims[t - 1] * v.dims[s - 1] for s, t in q.arrows)
    system = linalg.zeros(rows, unknowns)
    row0 = 0
    for a, (s, t) in enumerate(q.arrows):
        s -= 1
        t -= 1
        block_rows = w.dims[t] * v.dims[s]
        if block_rows:
            # vec(W_a f_s) = (W_a kron I) vec(f_s); vec(f_t V_a) = (I kron V_a^T) vec(f_t)
            if w.dims[s] * v.dims[s]:
                system[row0 : row0 + block_rows, offsets[s] : offsets[s + 1]] = np.kron(
                    w.mats[a], linalg.eye(v.dims[s])
                )
            if w.dims[t] * v.dims[t]:
                system[row0 : row0 + block_rows, offsets[t] : offsets[t + 1]] -= np.kron(
                    linalg.eye(w.dims[t]), v.mats[a].T
                )
        row0 += block_rows
    return system % p, offsets


def _unflatten(q: Quiver, v: Representation, w: Representation, vec: np.ndarray, offsets) -> tuple[np.ndarray, ...]:
    comps = []
    for i in range(q.n):
        comps.append(vec[offsets[i] : offsets[i + 1]].reshape(w.dims[i], v.dims[i]))
    return tuple(comps)


def hom_basis(v: Representation, w: Representation) -> HomSpace:
    """Canonical basis of Hom(V, W) by solving all commuting squares."""
    _check_pair(v, w)
    system, offsets = _hom_system(v, w)
    kernel = linalg.kernel_basis(system, v.field.p)
    morphs = []
    for j in range(kernel.shape[1]):
        comps = _unflatten(v.quiver, v, w, kernel[:, j], offsets)
        morphs.append(Morphism(v, w, comps))
    return HomSpace(tuple(morphs))


def ext1_dim(v: Representation, w: Representation) -> int:
    """dim Ext^1(V, W) as the corank of the two-term presentation; satisfies
    dim Hom - dim Ext^1 = <dim V, dim W>."""
    _check_pair(v, w)
    system, _ = _hom_system(v, w)
    return system.shape[0] - linalg.rank(system, v.field.p)


# -- reflection functors ------------------------------------------------------


def _in_summand_layout(q: Quiver, dims: tuple[int, ...], i: int):
    """Arrows into i in id order with their row offsets inside the direct sum
    over arrows (parallel arrows repeat their source summand)."""
    layout = []
    offset = 0
    for a, s in q.in_arrows(i):
        layout.append((a, s, offset))
        offset += dims[s - 1]
    return layout, offset


def _out_summand_layout(q: Quiver, dims: tuple[int, ...], i: int):
    layout = []
    offset = 0
    for a, t in q.out_arrows(i):
        layout.append((a, t, offset))
        offset += dims[t - 1]
    return layout, offset


def _require_kind(q: Quiver, i: int, wanted: VertexKind) -> None:
    kind = vertex_kind(q, i)
    if kind not in (wanted, VertexKind.ISOLATED):
        raise MutationError(f"vertex {i} is not a {wanted.value} (found {kind.value})")


def _in_map(q: Quiver, v: Representation, i: int) -> tuple[np.ndarray, list]:
    layout, width = _in_summand_layout(q, v.dims, i)
    phi = linalg.zeros(v.dims[i - 1], width)
    for a, s, offset in layout:
        phi[:, offset : offset + v.dims[s - 1]] = v.mats[a]
    return phi, layout


def reflect_plus(q: Quiver, i: int, v: Representation) -> Representation:
    """Reflection functor at a sink i: replace the space at i by the kernel
    of the summed in-map and turn the reversed arrows into the components of
    the kernel inclusion.  Result lives on the mutated quiver."""
    if v.quiver != q:
        raise QuiverMismatchError("representation does not live on the given quiver")
    _require_kind(q, i, VertexKind.SINK)
    p = v.field.p
    phi, layout = _in_map(q, v, i)
    kernel = linalg.kernel_basis(phi, p)
    q2 = mutate_at(q, i)
    dims2 = list(v.dims)
    dims2[i - 1] = kernel.shape[1]
    mats2: list[np.ndarray] = [None] * len(q.arrows)  # type: ignore[list-item]
    for a, s, offset in layout:
        mats2[a] = kernel[offset : offset + v.dims[s - 1], :].copy()
    for a, _ in enumerate(q.arrows):
        if mats2[a] is None:
            mats2[a] = v.mats[a]
    return Representation(q2, v.field, tuple(dims2), tuple(mats2))


def reflect_plus_mor(q: Quiver, i: int, f: Morphism) -> Morphism:
    """Functorial action at a sink: off i the components are reused; at i the
    block-diagonal sum of components restricts between the two kernels."""
    if f.source.quiver != q:
        raise QuiverMismatchError("morphism does not live on the given quiver")
    _require_kind(q, i, VertexKind.SINK)
    p = f.source.field.p
    v, w = f.source, f.target
    phi_v, layout_v = _in_map(q, v, i)
    phi_w, _ = _in_map(q, w, i)
    k_v = linalg.kernel_basis(phi_v, p)
    k_w = linalg.kernel_basis(phi_w, p)
    big = linalg.zeros(phi_w.shape[1], phi_v.shape[1])
    for a, s, offset in layout_v:
        w_offset = next(off for aa, _, off in _in_summand_layout(q, w.dims, i)[0] if aa == a)
        big[w_offset : w_offset + w.dims[s - 1], offset : offset + v.dims[s - 1]] = f.comps[s - 1]
    at_i = linalg.solve(k_w, (big @ k_v) % p, p)
    comps = list(f.comps)
    comps[i - 1] = at_i
    return Morphism(reflect_plus(q, i, v), reflect_plus(q, i, w), tuple(comps))


def reflect_minus(q: Quiver, i: int, v: Representation) -> Representation:
    """Reflection functor at a source i: replace the space at i by the
    cokernel of the summed out-map, presented on the canonical echelon
    complement.  Result lives on the mutated quiver."""
    if v.quiver != q:
        raise QuiverMismatchError("representation does not live on the given quiver")
    _require_kind(q, i, VertexKind.SOURCE)
    p = v.field.p
    layout, width = _out_summand_layout(q, v.dims, i)
    psi = linalg.zeros(width, v.dims[i - 1])
    for a, t, offset in layout:
        psi[offset : offset + v.dims[t - 1], :] = v.mats[a]
    proj = linalg.cokernel_projection(psi, p)
    q2 = mutate_at(q, i)
    dims2 = list(v.dims)
    dims2[i - 1] = proj.shape[0]
    mats2: list[np.ndarray] = [None] * len(q.arrows)  # type: ignore[list-item]
    for a, t, offset in layout:
        mats2[a] = proj[:, offset : offset + v.dims[t - 1]].copy()
    for a, _ in enumerate(q.arrows):
        if mats2[a] is None:
            mats2[a] = v.mats[a]
    return Representation(q2, v.field, tuple(dims2), tuple(mats2))


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
    roots, indecomposables, the inverse Hom table and the requirement tables
    of the torsion-free closure oracle.  Shared through dynkin_category."""

    def __init__(self, q: Quiver, field: FieldSpec) -> None:
        if not dynkin_type(q).is_dynkin:
            raise UnsupportedScopeError("indecomposables and their tables require a Dynkin quiver")
        self.quiver = q
        self.field = field
        self.roots = positive_real_roots(q).roots
        self._indecs: dict[IntVector, Representation] = {}
        self._sub_req: dict[IntVector, frozenset[IntVector]] = {}
        self._ext_req: dict[tuple[IntVector, IntVector], frozenset[IntVector]] = {}

    def indec(self, root: IntVector) -> Representation:
        """The indecomposable at a positive real root, built on first request."""
        if root not in self._indecs:
            self._indecs[root] = _indec_by_reflections(self.quiver, root, self.field)
        return self._indecs[root]

    @cached_property
    def hom_inverse(self) -> np.ndarray:
        """Inverse of T[b][a] = dim Hom(I_b, I_a).  T is unitriangular in
        Auslander-Reiten order, so N = 1 - T is nilpotent and the inverse is
        the integer sum 1 + N + N^2 + ...; T T^-1 = 1 is checked here."""
        indecs = [self.indec(r) for r in self.roots]
        table = np.array([[hom_basis(b, a).dimension for a in indecs] for b in indecs], object)
        identity = np.identity(len(indecs), dtype=object)
        inverse = term = identity
        for _ in indecs:
            term = term.dot(identity - table)
            inverse = inverse + term
        if not np.array_equal(table.dot(inverse), identity):
            raise InternalInvariantError("Hom table is not unitriangular in any order")
        return inverse

    def subrep_requirements(self, root: IntVector) -> frozenset[IntVector]:
        """Roots of every summand of every subrepresentation of the
        indecomposable at ``root``."""
        if root not in self._sub_req:
            subs = enumerate_subreps(self.indec(root))
            self._sub_req[root] = frozenset(r for sub, _ in subs for r in decompose(sub))
        return self._sub_req[root]

    def extension_requirements(self, x_root: IntVector, z_root: IntVector) -> frozenset[IntVector]:
        """Roots of every summand of every middle term of an extension of the
        indecomposable at ``z_root`` by the one at ``x_root``."""
        key = (x_root, z_root)
        if key not in self._ext_req:
            mids = enumerate_extensions(self.indec(z_root), self.indec(x_root))
            self._ext_req[key] = frozenset(r for mid in mids for r in decompose(mid))
        return self._ext_req[key]


_CATEGORIES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def dynkin_category(q: Quiver, field: FieldSpec) -> DynkinCategory:
    """The category of (q, field), created on first request and dropped
    together with the quiver object it was first requested for."""
    per_field = _CATEGORIES.setdefault(q, {})
    if field not in per_field:
        # An equal copy, not q: if anything the category holds referred to
        # the key itself, the weak entry could never be dropped.
        per_field[field] = DynkinCategory(Quiver(q.n, q.arrows), field)
    return per_field[field]


def indec_of_real_root(q: Quiver, alpha: IntVector, field: FieldSpec = F2) -> Representation:
    """The unique indecomposable with dimension vector a given positive real
    root of a Dynkin quiver."""
    cat = dynkin_category(q, field)
    alpha = tuple(int(x) for x in alpha)
    if alpha not in cat.roots:
        raise NotARealRootError(f"{alpha} is not a positive real root of this quiver")
    return cat.indec(alpha)


def _indec_by_reflections(q: Quiver, alpha: IntVector, field: FieldSpec) -> Representation:
    """Steer alpha to a simple root with reflections taken at sinks
    (breadth-first over (vector, orientation) pairs), then pull the simple
    back through the reverse chain of source reflections."""
    seen = {(alpha, q)}
    queue = deque([(alpha, q, ())])
    while queue:
        vec, cur, path = queue.popleft()
        if sum(vec) == 1:
            rep = simple_rep(cur, field, vec.index(1) + 1)
            for i, quiver_after in reversed(path):
                rep = reflect_minus(quiver_after, i, rep)
            if rep.dims != alpha:
                raise InternalInvariantError("constructed indecomposable has the wrong dimensions")
            return rep
        for i in range(1, cur.n + 1):
            if vertex_kind(cur, i) not in (VertexKind.SINK, VertexKind.ISOLATED):
                continue
            nvec = simple_reflection(cur, i, vec)
            if any(x < 0 for x in nvec):
                continue
            nstate = (nvec, mutate_at(cur, i))
            if nstate not in seen:
                seen.add(nstate)
                queue.append((*nstate, path + ((i, nstate[1]),)))
        if len(seen) > 10000:
            raise InternalInvariantError("sink-reflection search exploded")
    raise InternalInvariantError("no sink-reflection path to a simple root")


def all_indecomposables(q: Quiver, field: FieldSpec = F2) -> dict[IntVector, Representation]:
    """One indecomposable per positive real root, keyed and ordered by root."""
    return {root: indec_of_real_root(q, root, field) for root in dynkin_category(q, field).roots}


def is_indecomposable(
    v: Representation, dim_guard: int = DEFAULT_INDEC_GUARD, enum_guard: int = 200000
) -> bool:
    """True iff the endomorphism algebra has no idempotents besides 0 and 1.

    Enumerates End(V) coordinatewise, so the total dimension is guarded; the
    zero representation counts as decomposable.
    """
    if v.total_dim == 0:
        return False
    if v.total_dim > dim_guard:
        raise ResourceGuardError(f"total dimension {v.total_dim} exceeds guard {dim_guard}")
    end = hom_basis(v, v)
    d = end.dimension
    if d == 1:
        return True  # End = k . id
    p = v.field.p
    if p**d > enum_guard:
        raise ResourceGuardError(f"End(V) has {p}^{d} elements, beyond the enumeration guard")
    ident = [linalg.eye(dim) for dim in v.dims]
    for coeffs in itertools.product(range(p), repeat=d):
        if not any(coeffs):
            continue
        comps = []
        for i in range(v.quiver.n):
            acc = linalg.zeros(v.dims[i], v.dims[i])
            for c, basis_mor in zip(coeffs, end.basis):
                if c:
                    acc = (acc + c * basis_mor.comps[i]) % p
            comps.append(acc)
        if all(np.array_equal(c, e) for c, e in zip(comps, ident)):
            continue
        if all(np.array_equal((c @ c) % p, c) for c in comps):
            return False
    return True


def decompose(v: Representation) -> dict[IntVector, int]:
    """Multiplicities of each indecomposable in V, as {root: multiplicity}.

    dim Hom(I_b, V) = sum_a m_a dim Hom(I_b, I_a), so the multiplicities are
    the category's inverse Hom table applied to the Hom vector of V; they
    are checked to be nonnegative and to add up to the dimension vector.
    """
    q = v.quiver
    cat = dynkin_category(q, v.field)
    if v.total_dim == 0:
        return {}
    mults = cat.hom_inverse.dot([hom_basis(cat.indec(r), v).dimension for r in cat.roots])
    if any(m < 0 for m in mults):
        raise InternalInvariantError("negative multiplicity")
    out = {root: int(m) for root, m in zip(cat.roots, mults) if m}
    if tuple(sum(m * root[k] for root, m in out.items()) for k in range(q.n)) != v.dims:
        raise InternalInvariantError("multiplicities do not add up to the dimension vector")
    return out


# -- exhaustive enumeration (oracle legs) -------------------------------------


def enumerate_subreps(v: Representation, guard: int = DEFAULT_SUBREP_GUARD):
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
    if total > guard:
        raise ResourceGuardError(f"{total} subspace tuples exceed the guard {guard}")
    per_vertex = [linalg.subspaces(d, p) for d in v.dims]
    q = v.quiver
    for combo in itertools.product(*per_vertex):
        ok = True
        for a, (s, t) in enumerate(q.arrows):
            u_s, u_t = combo[s - 1], combo[t - 1]
            if u_s.shape[0] == 0:
                continue
            image = (v.mats[a] @ u_s.T) % p
            stacked = np.vstack([u_t, image.T])
            if linalg.rank(stacked, p) != u_t.shape[0]:
                ok = False
                break
        if not ok:
            continue
        dims = tuple(c.shape[0] for c in combo)
        mats = []
        for a, (s, t) in enumerate(q.arrows):
            u_s, u_t = combo[s - 1], combo[t - 1]
            image = (v.mats[a] @ u_s.T) % p
            mats.append(linalg.solve(u_t.T, image, p))
        sub = Representation(q, v.field, dims, tuple(mats))
        inclusion = Morphism(sub, v, tuple(c.T for c in combo))
        yield sub, inclusion


def enumerate_extensions(z: Representation, x: Representation, guard: int = DEFAULT_EXT_GUARD):
    """Every middle term Y of an extension 0 -> X -> Y -> Z -> 0, one per
    Ext^1 class, split extension first.

    Classes are enumerated as the canonical complement of the coboundary
    image inside the cocycle space of the two-term presentation.
    """
    _check_pair(z, x)
    p = z.field.p
    if p not in ENUMERATION_PRIMES:
        raise UnsupportedScopeError("extension enumeration supports p in {2, 3}")
    system, _ = _hom_system(z, x)
    n_rows = system.shape[0]
    _, pivots = linalg.rref(system.T, p)
    free = [j for j in range(n_rows) if j not in pivots]
    if len(free) > guard:
        raise ResourceGuardError(f"Ext^1 dimension {len(free)} exceeds the guard {guard}")
    q = z.quiver
    dims = tuple(a + b for a, b in zip(x.dims, z.dims))
    arrow_offsets = [0]
    for s, t in q.arrows:
        arrow_offsets.append(arrow_offsets[-1] + x.dims[t - 1] * z.dims[s - 1])
    for coeffs in itertools.product(range(p), repeat=len(free)):
        psi = np.zeros(n_rows, dtype=np.int64)
        for c, j in zip(coeffs, free):
            psi[j] = c
        mats = []
        for a, (s, t) in enumerate(q.arrows):
            block = linalg.zeros(dims[t - 1], dims[s - 1])
            block[: x.dims[t - 1], : x.dims[s - 1]] = x.mats[a]
            block[x.dims[t - 1] :, x.dims[s - 1] :] = z.mats[a]
            psi_a = psi[arrow_offsets[a] : arrow_offsets[a + 1]].reshape(
                x.dims[t - 1], z.dims[s - 1]
            )
            block[: x.dims[t - 1], x.dims[s - 1] :] = psi_a
            mats.append(block)
        yield Representation(q, z.field, dims, tuple(mats))


# -- serialization -------------------------------------------------------------


def rep_to_json(v: Representation) -> dict:
    mats = {}
    for a, m in enumerate(v.mats):
        mats[str(a)] = [] if 0 in m.shape else [[int(x) for x in row] for row in m]
    return {"field": v.field.p, "dims": list(v.dims), "mats": mats}


def rep_from_json(q: Quiver, data: object) -> Representation:
    if not isinstance(data, dict) or "field" not in data or "dims" not in data:
        raise InputFormatError('representation JSON must carry "field", "dims", "mats"')
    try:
        field = FieldSpec(int(data["field"]))
        dims = tuple(int(d) for d in data["dims"])
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputFormatError(f"malformed representation JSON: {exc}") from exc
    raw = data.get("mats", {})
    if not isinstance(raw, dict) or len(dims) != q.n or min(dims, default=0) < 0:
        raise InputFormatError(f'need {q.n} nonnegative "dims" and a "mats" object by arrow id')
    mats = []
    for a, (s, t) in enumerate(q.arrows):
        rows, cols = dims[t - 1], dims[s - 1]
        entry = raw.get(str(a))
        if entry in (None, []):
            mats.append(linalg.zeros(rows, cols))
            continue
        try:
            m = np.asarray(entry, dtype=np.int64)
        except (TypeError, ValueError, OverflowError) as exc:
            raise InputFormatError(f"arrow {a}: malformed matrix: {exc}") from exc
        if m.shape != (rows, cols):
            raise InputFormatError(f"arrow {a}: matrix shape {m.shape} != ({rows}, {cols})")
        mats.append(m)
    return Representation(q, field, dims, tuple(mats))
