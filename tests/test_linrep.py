import collections
import functools
import hashlib
import itertools
import operator
import random
import time
import tracemalloc

import numpy as np
import pytest

from quivrep.errors import (
    DimensionMismatchError,
    FieldMismatchError,
    InputFormatError,
    InternalInvariantError,
    InvalidParameterError,
    MutationError,
    NotAMorphismError,
    NotARealRootError,
    QuiverMismatchError,
    ResourceGuardError,
    UnsupportedScopeError,
)
from quivrep import linalg, linrep, roots, weyl
from quivrep.quiver import (
    Quiver,
    VertexKind,
    dynkin_graph,
    euler_form,
    mutate_at,
    orientations,
    unit_vector,
    vertex_kind,
)
from quivrep.linrep import (
    F2,
    F3,
    F5,
    DynkinCategory,
    FieldSpec,
    Morphism,
    Representation,
    all_indecomposables,
    compose_morphisms,
    decompose,
    direct_sum,
    dynkin_category,
    enumerate_extensions,
    enumerate_subreps,
    ext1_dim,
    hom_basis,
    hom_dim,
    identity_morphism,
    indec_of_real_root,
    is_indecomposable,
    reflect_minus,
    reflect_plus,
    reflect_plus_mor,
    rep_from_json,
    rep_to_json,
    simple_rep,
    strip_simple_summands,
    zero_morphism,
    zero_rep,
)
from quivrep.linrep import _embeds
from quivrep.roots import positive_real_roots
from quivrep.weyl import inversion_set, simple_reflection

from conftest import (
    A2_LEFT,
    A2_PLUS_A1,
    A2_RIGHT,
    A3_123,
    A3_MID_SINK,
    D5_BIPARTITE,
    E6_BIPARTITE,
    E7_ZIGZAG,
    E8_ZIGZAG,
    KRONECKER,
    d4_orientations,
    linear,
    path_orientations,
    random_rep,
    reference_decompose,
    reference_rref,
)

WILD = Quiver(3, ((1, 2), (1, 2), (2, 3), (2, 3)))  # a_12 = a_23 = 2
E8_LINEAR = Quiver(*dynkin_graph("E8"))
E7_LINEAR = Quiver(*dynkin_graph("E7"))


def as_array(m, rows, cols):
    """A library matrix as a numpy array of the given shape."""
    return np.array(m, dtype=np.int64).reshape(rows, cols)


def brute_hom_dim(v, w):
    """Independent oracle: count all vertex-map tuples satisfying every
    commuting square by direct enumeration, then take log_p."""
    p = v.field.p
    entry_counts = [dw * dv for dv, dw in zip(v.dims, w.dims)]
    total = sum(entry_counts)
    assert p**total <= 200000, "oracle only for tiny inputs"
    solutions = 0
    for flat in itertools.product(range(p), repeat=total):
        comps = []
        pos = 0
        for i in range(v.quiver.n):
            k = entry_counts[i]
            comps.append(
                np.array(flat[pos : pos + k], dtype=np.int64).reshape(w.dims[i], v.dims[i])
            )
            pos += k
        ok = True
        for a, (s, t) in enumerate(v.quiver.arrows):
            lhs = (as_array(w.mats[a], w.dims[t - 1], w.dims[s - 1]) @ comps[s - 1]) % p
            rhs = (comps[t - 1] @ as_array(v.mats[a], v.dims[t - 1], v.dims[s - 1])) % p
            if not np.array_equal(lhs, rhs):
                ok = False
                break
        if ok:
            solutions += 1
    dim = 0
    while p**dim < solutions:
        dim += 1
    assert p**dim == solutions
    return dim


def reference_hom_system(v, w):
    """The Hom system as _hom_system wrote it while its rows were dense: one
    tuple per row, as wide as all the unknowns, zero rows included."""
    q, p = v.quiver, v.field.p
    offsets = [0]
    for dv, dw in zip(v.dims, w.dims):
        offsets.append(offsets[-1] + dw * dv)
    system = []
    for a, (s, t) in enumerate(q.arrows):
        s -= 1
        t -= 1
        vs, vt = v.dims[s], v.dims[t]
        for r, w_row in enumerate(w.mats[a]):
            for c in range(vs):
                row = [0] * offsets[-1]
                for k, x in enumerate(w_row):
                    row[offsets[s] + k * vs + c] = x
                for k, v_row in enumerate(v.mats[a]):
                    row[offsets[t] + r * vt + k] = -v_row[c] % p
                system.append(tuple(row))
    return tuple(system)


def proj_at_two(field=F2):
    """P = (k -> k, identity) on the quiver 1 -> 2."""
    return Representation(A2_RIGHT, field, (1, 1), (np.array([[1]]),))


def p2_left(field=F2):
    """The non-simple indecomposable (k <- k) on 1 <- 2."""
    return Representation(A2_LEFT, field, (1, 1), (np.array([[1]]),))


class TestHomBasis:
    @pytest.mark.parametrize("q", [A2_LEFT, A3_MID_SINK, KRONECKER])
    def test_simples(self, q):
        for i in range(1, q.n + 1):
            for j in range(1, q.n + 1):
                d = hom_basis(simple_rep(q, F2, i), simple_rep(q, F2, j)).dimension
                assert d == (1 if i == j else 0)

    def test_into_and_out_of_projective(self):
        p = proj_at_two()
        s2 = simple_rep(A2_RIGHT, F2, 2)
        assert hom_basis(s2, p).dimension == 1
        assert hom_basis(p, s2).dimension == 0

    @pytest.mark.parametrize("field", [F2, F3])
    def test_against_brute_force_on_random_small_reps(self, field):
        rng = random.Random(7 + field.p)
        for q in (A2_LEFT, A2_RIGHT, KRONECKER):
            for _ in range(25):
                v = random_rep(q, field, rng, max_dim=2)
                w = random_rep(q, field, rng, max_dim=2)
                if sum(dw * dv for dv, dw in zip(v.dims, w.dims)) > 6:
                    continue
                assert hom_basis(v, w).dimension == brute_hom_dim(v, w)

    def test_basis_elements_are_morphisms_and_independent(self):
        rng = random.Random(3)
        v = random_rep(A3_MID_SINK, F2, rng)
        w = random_rep(A3_MID_SINK, F2, rng)
        basis = hom_basis(v, w).basis
        flat = [[x for c in m.comps for row in c for x in row] for m in basis]
        if flat:
            from quivrep import linalg

            assert linalg.rank(flat, 2) == len(flat)

    def test_field_mismatch_rejected(self):
        with pytest.raises(FieldMismatchError):
            hom_basis(simple_rep(A2_LEFT, F2, 1), simple_rep(A2_LEFT, F3, 1))

    def test_quiver_mismatch_rejected(self):
        with pytest.raises(QuiverMismatchError):
            hom_basis(simple_rep(A2_LEFT, F2, 1), simple_rep(A2_RIGHT, F2, 1))


class TestExtDim:
    def test_counts_arrows_between_simples(self):
        assert ext1_dim(simple_rep(KRONECKER, F2, 1), simple_rep(KRONECKER, F2, 2)) == 2
        assert ext1_dim(simple_rep(A2_RIGHT, F2, 1), simple_rep(A2_RIGHT, F2, 2)) == 1
        assert ext1_dim(simple_rep(A2_RIGHT, F2, 2), simple_rep(A2_RIGHT, F2, 1)) == 0

    @pytest.mark.parametrize("field", [F2, F3, F5], ids=["F2", "F3", "F5"])
    def test_one_zero_row_without_unknowns(self, field):
        # S_1 -> S_2 over 1 -> 2: no unknowns, one equation, Ext^1 = 1
        assert ext1_dim(simple_rep(A2_RIGHT, field, 1), simple_rep(A2_RIGHT, field, 2)) == 1

    def test_no_self_extensions_of_simples(self):
        for q in (A2_LEFT, A3_123, KRONECKER):
            for i in range(1, q.n + 1):
                s = simple_rep(q, F2, i)
                assert ext1_dim(s, s) == 0

    @pytest.mark.parametrize("field", [F2, F3])
    def test_euler_identity_on_random_pairs(self, field):
        rng = random.Random(100 + field.p)
        for _ in range(200):
            v = random_rep(A3_123, field, rng)
            w = random_rep(A3_123, field, rng)
            lhs = hom_basis(v, w).dimension - ext1_dim(v, w)
            assert lhs == euler_form(A3_123, v.dims, w.dims)


class TestRankOnlyHomDim:
    """hom_dim counts by rank what hom_basis counts by building the maps."""

    @pytest.mark.parametrize("field", [F2, F3, F5], ids=["F2", "F3", "F5"])
    @pytest.mark.parametrize(
        "q",
        [path_orientations(5)[0], D5_BIPARTITE, E6_BIPARTITE, KRONECKER, WILD],
        ids=["A5", "D5", "E6", "Kronecker", "wild"],
    )
    def test_agrees_with_basis_and_euler_form(self, q, field):
        rng = random.Random(f"hom_dim:{q.arrows}:{field.p}")
        for _ in range(40):
            v = random_rep(q, field, rng, max_dim=2)
            w = random_rep(q, field, rng, max_dim=2)
            dim = hom_dim(v, w)
            assert dim == hom_basis(v, w).dimension
            assert dim - ext1_dim(v, w) == euler_form(q, v.dims, w.dims)

    def test_field_mismatch_rejected(self):
        with pytest.raises(FieldMismatchError):
            hom_dim(simple_rep(A2_LEFT, F2, 1), simple_rep(A2_LEFT, F3, 1))


class TestHomSystem:
    """The Hom-system rows, written out densely here, equal the dense
    reference entry for entry: same rows in the same order, zero rows
    kept."""

    @pytest.mark.parametrize("field", [F2, F3, F5], ids=["F2", "F3", "F5"])
    @pytest.mark.parametrize(
        "q",
        [path_orientations(5)[0], D5_BIPARTITE, E6_BIPARTITE, KRONECKER, WILD],
        ids=["A5", "D5", "E6", "Kronecker", "wild"],
    )
    def test_rows_match_the_dense_reference(self, q, field):
        rng = random.Random(f"hom_system:{q.arrows}:{field.p}")
        zero_rows = 0
        for _ in range(40):
            v = random_rep(q, field, rng, max_dim=3)
            w = random_rep(q, field, rng, max_dim=3)
            expected = reference_hom_system(v, w)
            system = linrep._hom_system(v, w)
            rows = dense_rows(system, sum(map(operator.mul, v.dims, w.dims)))
            assert len(rows) == len(expected)
            assert rows == expected
            zero_rows += sum(not any(row) for row in expected)
            assert isinstance(system, linalg.Planes)
            for row in system:  # one plane per entry value, plane 0 empty, disjoint
                assert len(row) == field.p and row[0] == 0
                assert all(isinstance(plane, int) and plane >= 0 for plane in row)
                assert not any(a & b for a, b in itertools.combinations(row, 2))
        assert zero_rows  # the kept zero rows were exercised

    def test_zero_row_without_unknowns(self):
        v, w = simple_rep(A2_RIGHT, F2, 1), simple_rep(A2_RIGHT, F2, 2)
        assert dense_rows(linrep._hom_system(v, w), 0) == reference_hom_system(v, w) == ((),)


class TestHomSystemGuard:
    """One constant bounds the unknowns and the rows of a Hom system, and
    the matrix entries of a parsed representation; each is admitted at the
    constant and refused one past it, before any matrix is built, and before
    the block of rows that would pass it.  _hom_system checks the unknowns
    and rows at the guard its caller passes: HOM_SYSTEM_GUARD for a rank,
    HOM_KERNEL_GUARD for an echelon form."""

    def test_unknowns(self):
        # three vertices, no arrows: sum d_i^2 unknowns and no rows, at
        # each guard and one past it
        q = Quiver(3, ())
        for guard, dims in ((linrep.HOM_SYSTEM_GUARD, (40, 20)), (linrep.HOM_KERNEL_GUARD, (14, 2))):
            v = Representation(q, F3, (*dims, 0), ())
            assert len(linrep._hom_system(v, v, guard)) == 0
            big = Representation(q, F3, (*dims, 1), ())
            with pytest.raises(ResourceGuardError, match=f"unknowns exceed the guard {guard}"):
                linrep._hom_system(big, big, guard)
        guard = linrep.HOM_SYSTEM_GUARD
        v = Representation(q, F3, (40, 20, 0), ())
        assert hom_dim(v, v) == 40**2 + 20**2 == guard
        big = Representation(q, F3, (40, 20, 1), ())
        for f in (hom_dim, ext1_dim, hom_basis):
            with pytest.raises(ResourceGuardError):
                f(big, big)

    def test_rows(self):
        # V = (m, 0), W = (0, 1) on 1 -> 2: no unknowns, m zero rows
        w = Representation(A2_RIGHT, F2, (0, 1), (linalg.zeros(1, 0),))
        for guard in (linrep.HOM_SYSTEM_GUARD, linrep.HOM_KERNEL_GUARD):
            v = Representation(A2_RIGHT, F2, (guard, 0), (linalg.zeros(0, guard),))
            assert len(linrep._hom_system(v, w, guard)) == guard
            v = Representation(A2_RIGHT, F2, (guard + 1, 0), (linalg.zeros(0, guard + 1),))
            with pytest.raises(ResourceGuardError, match=f"rows exceed the guard {guard}"):
                linrep._hom_system(v, w, guard)
        guard = linrep.HOM_SYSTEM_GUARD
        v = Representation(A2_RIGHT, F2, (guard, 0), (linalg.zeros(0, guard),))
        assert ext1_dim(v, w) == guard
        v = Representation(A2_RIGHT, F2, (guard + 1, 0), (linalg.zeros(0, guard + 1),))
        with pytest.raises(ResourceGuardError):
            ext1_dim(v, w)

    def test_parsed_matrix_entries(self):
        guard = linrep.HOM_SYSTEM_GUARD
        assert rep_from_json(A2_RIGHT, {"field": 3, "dims": [guard, 1]}).dims == (guard, 1)
        start = time.perf_counter()
        for dims in ([guard + 1, 1], [3000, 3000]):
            with pytest.raises(ResourceGuardError):
                rep_from_json(A2_RIGHT, {"field": 3, "dims": dims})
        assert time.perf_counter() - start < 0.1

    def test_parsed_vertex_dimension(self):
        # a vertex whose arrows carry no entries is bounded by its dimension
        guard = linrep.HOM_SYSTEM_GUARD
        assert rep_from_json(A2_RIGHT, {"field": 2, "dims": [guard, 0]}).dims == (guard, 0)
        start = time.perf_counter()
        for dims in ([guard + 1, 0], [0, guard + 1]):
            with pytest.raises(ResourceGuardError, match="vertex dimension"):
                rep_from_json(A2_RIGHT, {"field": 2, "dims": dims})
        assert time.perf_counter() - start < 0.1


class TestReflectedMapGuard:
    """The summed out-map of reflect_minus, and the transposed summed in-map
    of reflect_plus, are eliminated into a square cokernel projection:
    admitted at HOM_KERNEL_GUARD rows and columns, refused one past it."""

    def test_reflect_plus(self):
        # 1 -> 2 reflected at the sink 2: an in-map of 0 x d, its transpose's projection d x d
        guard = linrep.HOM_KERNEL_GUARD
        v = Representation(A2_RIGHT, F2, (guard, 0), (linalg.zeros(0, guard),))
        assert reflect_plus(A2_RIGHT, 2, v).dims == (guard, guard)
        v = Representation(A2_RIGHT, F2, (guard + 1, 0), (linalg.zeros(0, guard + 1),))
        with pytest.raises(ResourceGuardError, match="summed map"):
            reflect_plus(A2_RIGHT, 2, v)

    def test_reflect_minus(self):
        # 1 -> 2 reflected at the source 1: an out-map of d x 0, cokernel d x d
        guard = linrep.HOM_KERNEL_GUARD
        v = Representation(A2_RIGHT, F2, (0, guard), (linalg.zeros(guard, 0),))
        assert reflect_minus(A2_RIGHT, 1, v).dims == (guard, guard)
        v = Representation(A2_RIGHT, F2, (0, guard + 1), (linalg.zeros(guard + 1, 0),))
        with pytest.raises(ResourceGuardError, match="summed map"):
            reflect_minus(A2_RIGHT, 1, v)


class TestHomKernelGuard:
    """A second constant bounds the unknowns and the rows of a Hom system
    put in reduced echelon form (hom_basis, the Hom enumerator, extension
    classes); each is admitted at the constant and refused one past it,
    before the block of rows that would pass it."""

    def test_unknowns(self):
        # three vertices, no arrows: sum d_i^2 unknowns and no rows
        guard, q = linrep.HOM_KERNEL_GUARD, Quiver(3, ())
        v = Representation(q, F3, (14, 2, 0), ())
        assert hom_basis(v, v).dimension == 14**2 + 2**2 == guard
        big = Representation(q, F3, (14, 2, 1), ())
        with pytest.raises(ResourceGuardError):
            hom_basis(big, big)
        with pytest.raises(ResourceGuardError):
            next(linrep._hom_elements(big, big, linrep._hom_kernel(big, big), 10**6))

    def test_rows(self):
        # V = (m, 0), W = (0, 1) on 1 -> 2: no unknowns, m zero rows
        guard = linrep.HOM_KERNEL_GUARD
        w = Representation(A2_RIGHT, F2, (0, 1), (linalg.zeros(1, 0),))
        v = Representation(A2_RIGHT, F2, (guard, 0), (linalg.zeros(0, guard),))
        assert hom_basis(v, w).dimension == 0
        v = Representation(A2_RIGHT, F2, (guard + 1, 0), (linalg.zeros(0, guard + 1),))
        with pytest.raises(ResourceGuardError):
            hom_basis(v, w)
        with pytest.raises(ResourceGuardError):
            list(enumerate_extensions(v, w))
        # four arrows into vertex 5, V = (50, 50, 50, m, 0), W = (0, 0, 0, 0, 1):
        # 150 + m zero rows, past the guard only in the last arrow's block
        q = Quiver(5, ((1, 5), (2, 5), (3, 5), (4, 5)))
        w = Representation(q, F2, (0, 0, 0, 0, 1), (linalg.zeros(1, 0),) * 4)
        v = Representation(q, F2, (50, 50, 50, 50, 0), (linalg.zeros(0, 50),) * 4)
        assert hom_basis(v, w).dimension == 0
        with pytest.raises(ResourceGuardError, match="Ext\\^1 dimension 200"):  # DEFAULT_EXT_GUARD
            list(enumerate_extensions(v, w))
        v = Representation(q, F2, (50, 50, 50, 51, 0), (linalg.zeros(0, 50),) * 3 + (linalg.zeros(0, 51),))
        for f in (hom_basis, lambda z, x: list(enumerate_extensions(z, x))):
            with pytest.raises(ResourceGuardError, match=f"rows exceed the guard {guard}"):
                f(v, w)

    def test_square_system_at_the_guard(self):
        # Kronecker (10, 10): 200 rows and 200 unknowns, the costliest shape
        # admitted; (11, 11) and A2 (24, 24), which took seconds, are refused
        # on their unknowns, before the system is built.
        rng = random.Random("hom-kernel-guard")
        mats = tuple(tuple(tuple(rng.randrange(3) for _ in range(10)) for _ in range(10)) for _ in range(2))
        v = Representation(KRONECKER, F3, (10, 10), mats)
        assert hom_basis(v, v).dimension == hom_dim(v, v)
        start = time.perf_counter()
        for q, d in ((KRONECKER, 11), (A2_RIGHT, 24)):
            big = Representation(q, F3, (d, d), tuple(linalg.zeros(d, d) for _ in q.arrows))
            with pytest.raises(ResourceGuardError):
                hom_basis(big, big)
        assert time.perf_counter() - start < 0.1


def sparse(row, p):
    """A dense row as a sparse row of linalg.rank: p int masks, mask x
    holding the columns whose entry is x, mask 0 empty."""
    return [0] + [sum(1 << k for k, x in enumerate(row) if x % p == e) for e in range(1, p)]


def sparse_rows(m, p):
    """The rows of m as sparse rows, in the container linalg.rank reads."""
    return linalg.Planes(sparse(row, p) for row in m)


def dense_rows(rows, width):
    """Sparse rows written out as dense rows of the given width."""
    return tuple(
        tuple(next((x for x, plane in enumerate(row) if plane >> k & 1), 0) for k in range(width)) for row in rows
    )


class TestRank:
    """linalg.rank eliminates forward only for every p, on dense rows and on
    sparse rows (one int mask per entry value, in a linalg.Planes); the
    pivot count of the dense reference_rref is the reference."""

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_agrees_with_rref_on_random_matrices(self, p):
        rng = random.Random(300 + p)
        for _ in range(300):
            rows, cols = rng.randrange(7), rng.randrange(7)
            density = rng.random()
            m = tuple(
                tuple(rng.randrange(-p, 2 * p) if rng.random() < density else 0 for _ in range(cols))
                for _ in range(rows)
            )
            assert linalg.rank(m, p) == len(reference_rref(m, p)[1])

    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize(
        "m",
        [(), ((),), ((), (), ()), ((0, 0, 0),), ((0, 0), (0, 0))],
        ids=["rowless", "zero-width", "three-zero-width", "zero-row", "all-zero"],
    )
    def test_degenerate_matrices(self, m, p):
        assert linalg.rank(m, p) == len(reference_rref(m, p)[1]) == 0

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_sparse_rows_with_fill_in(self, p):
        # A few nonzeros per row, up to 40 columns: reducing a row against
        # the pivots fills in columns it did not have.
        rng = random.Random(f"sparse-rank:{p}")
        for _ in range(200):
            cols, rows = rng.randrange(1, 41), rng.randrange(41)
            m = []
            for _ in range(rows):
                row = [0] * cols
                for k in rng.sample(range(cols), min(cols, rng.randrange(1, 5))):
                    row[k] = rng.randrange(1, p)
                m.append(tuple(row))
            assert linalg.rank(sparse_rows(m, p), p) == len(reference_rref(m, p)[1])

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_proportional_and_duplicate_rows(self, p):
        rng = random.Random(f"proportional-rank:{p}")
        for _ in range(100):
            cols = rng.randrange(1, 25)
            base = [tuple(rng.randrange(p) for _ in range(cols)) for _ in range(rng.randrange(1, 6))]
            m = base + [tuple(c * x % p for x in rng.choice(base)) for c in range(1, p)] + base
            rng.shuffle(m)
            expected = len(reference_rref(base, p)[1])
            assert linalg.rank(sparse_rows(m, p), p) == expected
            assert linalg.rank(m, p) == expected

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_dense_entries_outside_the_field(self, p):
        # Entries are read mod p: a multiple of p is a zero entry.
        rng = random.Random(f"outside-rank:{p}")
        for _ in range(200):
            cols = rng.randrange(1, 12)
            m = [[0] * cols for _ in range(rng.randrange(8))]
            for row in m:
                for k in rng.sample(range(cols), rng.randrange(cols + 1)):
                    row[k] = rng.randrange(-3 * p, 3 * p)
            assert linalg.rank(m, p) == linalg.rank(sparse_rows(m, p), p) == len(reference_rref(m, p)[1])
        assert linalg.rank([(p, 0, -2 * p), (0, 3 * p, 0)], p) == 0
        assert linalg.rank([(-1,), (p - 1 + p,)], p) == 1

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_empty_sparse_rows(self, p):
        zero = (0, 0, 0)  # sparse: p empty masks
        for m in ([], [zero], [zero] * 3):
            assert linalg.rank(sparse_rows(m, p), p) == 0
        assert linalg.rank(sparse_rows([zero, (0, 1, 1), zero], p), p) == 1
        assert linalg.rank(sparse_rows([zero, (0, p - 1, 1), zero], p), p) == 1

    def test_f3_planes_against_rref(self):
        # Rows that lead with 2, rows that are minus or twice an earlier
        # row, and sums of earlier rows, which cancel to zero on reduction;
        # each matrix as dense rows and as plane rows.
        rng = random.Random("f3-planes")
        for _ in range(300):
            cols = rng.randrange(1, 30)
            m = []
            for _ in range(rng.randrange(12)):
                kind = rng.randrange(4) if m else 0
                if kind == 0:
                    row = [rng.choice((0, 0, 1, 2)) for _ in range(cols)]
                    row[rng.randrange(cols)] = 2  # often the lead
                elif kind == 1:
                    row = [c * x % 3 for x in rng.choice(m) for c in [rng.choice((1, 2))]]
                elif kind == 2:
                    row = [(x + y) % 3 for x, y in zip(rng.choice(m), rng.choice(m))]
                else:
                    row = [0] * cols
                m.append(tuple(row))
            expected = len(reference_rref(m, 3)[1])
            assert linalg.rank(m, 3) == linalg.rank(sparse_rows(m, 3), 3) == expected
        # 3-entry dense rows are read as dense rows, not as planes
        assert linalg.rank([(0, 1, 0), (0, 2, 0)], 3) == 1
        assert linalg.rank(linalg.Planes([(0, 1, 0), (0, 2, 0)]), 3) == 2

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_echelon_forms_match_the_reference(self, p):
        """linalg.rref, kernel_basis, cokernel_images and cokernel_projection
        on dense and on sparse rows against reference_rref.  rref leads with
        the top columns, so it is the reference form of the rows read from
        the right; the kernel basis is the identity at the free columns and
        minus the reference echelon rows at the pivots, and the cokernel
        images are the rows of the kernel basis of the columns."""
        rng = random.Random(f"echelon:{p}")
        cases = [(), ((),), ((),) * 3, ((0, 0, 0),), ((0, 0), (0, 0))]  # no rows, no columns, zero rows
        for _ in range(150):
            rows, cols = rng.randrange(7), rng.randrange(7)
            base = [tuple(rng.randrange(p) if rng.random() < 0.6 else 0 for _ in range(cols)) for _ in range(rows)]
            cases.append(tuple(rng.choice(base) if rng.random() < 0.3 else row for row in base))

        def kernel(m, cols):
            r, pivots = reference_rref(m, p)
            free = [c for c in range(cols) if c not in pivots]
            basis = [tuple(int(f == c) for f in free) for c in range(cols)]
            for ri, pc in enumerate(pivots):
                basis[pc] = tuple(-r[ri][f] % p for f in free)
            return tuple(basis), free

        for m in cases:
            for cols in (len(m[0]),) if m else (0, 3):
                r, pivots = reference_rref(tuple(row[::-1] for row in m), p)
                for rows in (m, sparse_rows(m, p)):
                    reduced = linalg.rref(rows, p)  # keyed by the leads, top first as read from the right
                    assert [cols - 1 - k for k in sorted(reduced, reverse=True)] == pivots, m
                    echelon = dense_rows((reduced[k] for k in sorted(reduced, reverse=True)), cols)
                    assert tuple(row[::-1] for row in echelon) == r[: len(pivots)], m
                    assert linalg.kernel_basis(rows, p, cols) == kernel(m, cols), m
            images, nonpiv = kernel(tuple(zip(*m)), len(m))
            for mat in (m, sparse_rows(m, p)):
                got, positions = linalg.cokernel_images(mat, p)
                assert (tuple(got), positions) == (images, nonpiv), m
                projection, positions = linalg.cokernel_projection(mat, p)
                assert positions == nonpiv and projection == linalg.transpose(images, len(nonpiv)), m

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_kernel_basis_is_the_transposed_projection_of_the_transpose(self, p):
        """R+ is R- on the transposed maps: the canonical kernel basis of phi
        is the transpose of the canonical cokernel projection of phi^T, and
        its free columns are that projection's non-pivot positions."""
        rng = random.Random(f"dual-kernel:{p}")
        cases = [((), 3), (((),) * 3, 0), (((0, 0, 0),), 3), ((), 0)]  # no rows, no columns, a zero row
        for _ in range(200):
            rows, cols = rng.randrange(7), rng.randrange(7)
            density = rng.random()
            phi = tuple(tuple(rng.randrange(p) if rng.random() < density else 0 for _ in range(cols)) for _ in range(rows))
            cases.append((phi, cols))
        for phi, cols in cases:
            basis, free = linalg.kernel_basis(phi, p, cols)
            projection, nonpiv = linalg.cokernel_projection(linalg.transpose(phi, cols), p)
            assert free == nonpiv and basis == linalg.transpose(projection, cols), phi


class TestPlaneSums:
    """linalg.planes slices dense rows into sparse rows and linalg.combine
    sums sparse rows by coefficients, against tuple arithmetic."""

    @pytest.mark.parametrize("p", [2, 3])
    def test_combine_agrees_with_tuple_arithmetic(self, p):
        rng = random.Random(700 + p)
        for _ in range(500):
            count, width = rng.randrange(6), rng.randrange(1, 9)
            rows = [tuple(rng.randrange(-p, 2 * p) for _ in range(width)) for _ in range(count)]
            coeffs = [rng.randrange(p) for _ in range(count)]
            planes = linalg.planes(rows, p)
            assert dense_rows(planes, width) == tuple(tuple(x % p for x in row) for row in rows)
            expected = tuple(sum(c * row[k] for c, row in zip(coeffs, rows)) % p for k in range(width))
            assert dense_rows([linalg.combine(coeffs, planes, p)], width) == (expected,), (rows, coeffs)


def test_selected_items_are_those_bits_indexes():
    rng = random.Random("selected")
    items = tuple(range(1000, 2100))
    masks = [0, 1, 1 << 1099, (1 << 1100) - 1] + [rng.getrandbits(rng.randrange(1, 1101)) for _ in range(300)]
    for mask in masks:
        assert list(linalg.selected(items, mask)) == [items[k] for k in linalg.bits(mask)], mask


class TestRepresentationChecks:
    @pytest.mark.parametrize(
        "dims, mats, error",
        [
            ((1,), ((),), DimensionMismatchError),
            ((-1, 1), ((),), InvalidParameterError),
            ((1, 1), (), DimensionMismatchError),
            ((1, 1), (((1, 0),),), DimensionMismatchError),
        ],
        ids=["dims-too-short", "negative-dim", "no-matrix", "matrix-wrong-shape"],
    )
    def test_malformed_representation_is_refused(self, dims, mats, error):
        with pytest.raises(error):
            Representation(A2_LEFT, F2, dims, mats)

    def test_repr_names_dims_and_field(self):
        assert repr(p2_left(F3)) == "Representation(dims=(1, 1), p=3)"

    @pytest.mark.parametrize("p", [0, 4, 7], ids=["p0", "p4", "p7"])
    def test_an_unsupported_prime_is_refused(self, p):
        with pytest.raises(InvalidParameterError, match=f"unsupported field characteristic {p}"):
            FieldSpec(p)


class TestLibraryBuilder:
    """linrep._built, through which the library makes its own
    representations, checks shapes only; what it builds is the value the
    validating constructor makes of the same data."""

    @pytest.mark.parametrize("field", [F2, F3], ids=["F2", "F3"])
    def test_everything_built_matches_the_validating_constructor(self, field, monkeypatch):
        """On the zoo of scripts/bijection_suite.py, one orientation each:
        every indecomposable, their images under R+ at each sink and R- at
        each source, the subrepresentations on D4, every middle term of
        every pair, and decompose's blocks of sums of copies in a seeded
        random basis, their coordinates interleaved."""
        built, real = [], linrep._built
        monkeypatch.setattr(linrep, "_built", lambda *args: built.append(real(*args)) or built[-1])
        rng, p, counts = random.Random(f"library builds over F_{field.p}"), field.p, collections.Counter()

        def counted(kind, run):
            before = len(built)
            run()
            counts[kind] += len(built) - before

        for label in ("A1", "A2", "A3", "A4", "A5", "D4", "D5", "D6", "E6"):
            q = Quiver(*dynkin_graph(label))
            indecs = []
            counted("indec", lambda: indecs.extend(all_indecomposables(q, field).values()))
            for i, v in itertools.product(range(1, q.n + 1), indecs):
                if (kind := vertex_kind(q, i)) == VertexKind.SINK:
                    counted("reflect", lambda: reflect_plus(q, i, v))
                elif kind == VertexKind.SOURCE:
                    counted("reflect", lambda: reflect_minus(q, i, v))
            if label == "D4":
                counted("subrep", lambda: [list(enumerate_subreps(v)) for v in indecs])
            for z, x in itertools.product(indecs, repeat=2):
                counted("middle", lambda: list(enumerate_extensions(z, x)))
            for _ in range(10):
                summands = [change_of_basis(rng.choice(indecs), rng) for _ in range(rng.randint(2, 3))]
                counted("block", lambda: decompose(interleaved(summands, rng)))
        assert set(counts) == {"indec", "reflect", "subrep", "middle", "block"} and all(counts.values()), counts
        for rep in built:
            assert all(type(x) is int and 0 <= x < p for m in rep.mats for row in m for x in row), rep
            assert rep == Representation(rep.quiver, rep.field, rep.dims, rep.mats), rep

    @pytest.mark.parametrize("cut", ["row", "entry", "matrix", "dims"])
    def test_a_wrong_shape_is_refused(self, cut):
        """One row short, one entry short in a row, one matrix short, or
        one dimension short, each raises InternalInvariantError."""
        rep = indec_of_real_root(D5_BIPARTITE, (1, 1, 1, 1, 0))
        dims, mats = rep.dims, list(rep.mats)
        if cut == "row":
            mats[0] = mats[0][1:]
        elif cut == "entry":
            mats[0] = (mats[0][0][1:], *mats[0][1:])
        elif cut == "matrix":
            mats.pop()
        else:
            dims = dims[1:]
        with pytest.raises(InternalInvariantError, match="shape"):
            linrep._built(rep.quiver, rep.field, dims, tuple(mats))


class TestMorphisms:
    def test_wrong_number_of_components_is_refused(self):
        with pytest.raises(DimensionMismatchError):
            Morphism(p2_left(), p2_left(), (((1,),),))

    def test_maps_that_do_not_compose_are_refused(self):
        f, g = identity_morphism(simple_rep(A2_LEFT, F2, 1)), identity_morphism(p2_left())
        with pytest.raises(DimensionMismatchError):
            compose_morphisms(g, f)

    def test_commuting_square_enforced(self):
        p = proj_at_two()
        s1 = simple_rep(A2_RIGHT, F2, 1)
        with pytest.raises(NotAMorphismError):
            Morphism(s1, p, (np.array([[1]]), np.zeros((1, 0))))

    def test_identity_and_zero(self):
        p = proj_at_two()
        ident = identity_morphism(p)
        z = zero_morphism(p, p)
        assert compose_morphisms(ident, ident) == ident
        assert compose_morphisms(ident, z) == z


class TestReflectPlus:
    TABLE = {
        (0, 1, 0): (0, 0, 0),
        (1, 1, 0): (1, 0, 0),
        (0, 1, 1): (0, 0, 1),
        (1, 1, 1): (1, 1, 1),
        (1, 0, 0): (1, 1, 0),
        (0, 0, 1): (0, 1, 1),
    }

    def test_a_representation_on_another_quiver_is_refused(self):
        with pytest.raises(QuiverMismatchError):
            reflect_plus(A2_RIGHT, 2, p2_left())

    def test_worked_table_at_the_middle_sink(self):
        q = A3_MID_SINK
        for root, image in self.TABLE.items():
            v = indec_of_real_root(q, root)
            assert reflect_plus(q, 2, v).dims == image

    def test_kills_the_simple_at_the_sink(self):
        q = A3_MID_SINK
        out = reflect_plus(q, 2, simple_rep(q, F2, 2))
        assert out.total_dim == 0 and out.quiver == mutate_at(q, 2)

    def test_requires_a_sink(self):
        with pytest.raises(MutationError):
            reflect_plus(A3_123, 2, simple_rep(A3_123, F2, 1))

    def test_dimension_reflection_without_simple_summand(self):
        rng = random.Random(11)
        q = A3_MID_SINK
        from quivrep import linalg

        checked = 0
        while checked < 100:
            v = random_rep(q, F2, rng)
            # keep only reps whose in-map at the sink is surjective (no S_2 summand)
            stacked = [r0 + r1 for r0, r1 in zip(v.mats[0], v.mats[1])]
            if v.dims[1] and linalg.rank(stacked, 2) < v.dims[1]:
                continue
            expected = simple_reflection(q, 2, v.dims)
            assert reflect_plus(q, 2, v).dims == tuple(expected)
            checked += 1

    def test_image_has_no_simple_summand_at_the_sink(self):
        rng = random.Random(12)
        q = A3_MID_SINK
        q2 = mutate_at(q, 2)
        for _ in range(50):
            v = random_rep(q, F2, rng)
            out = reflect_plus(q, 2, v)
            s2 = simple_rep(q2, F2, 2)
            assert hom_basis(s2, out).dimension == 0


class TestReflectPlusMorphisms:
    def test_a_morphism_on_another_quiver_is_refused(self):
        v = indec_of_real_root(A3_123, (1, 1, 1))
        with pytest.raises(QuiverMismatchError):
            reflect_plus_mor(A3_MID_SINK, 2, identity_morphism(v))

    def test_identity_maps_to_identity(self):
        q = A3_MID_SINK
        v = indec_of_real_root(q, (1, 1, 1))
        assert reflect_plus_mor(q, 2, identity_morphism(v)) == identity_morphism(
            reflect_plus(q, 2, v)
        )

    def test_zero_maps_to_zero(self):
        q = A3_MID_SINK
        v = indec_of_real_root(q, (1, 1, 0))
        w = indec_of_real_root(q, (1, 1, 1))
        out = reflect_plus_mor(q, 2, zero_morphism(v, w))
        assert out.is_zero()

    def test_two_vertex_hand_oracle(self):
        # On 2 -> 1 the sink is 1; P = (k <- k), S_1 included into P.
        q = Quiver(2, ((2, 1),))
        p_rep = Representation(q, F2, (1, 1), (np.array([[1]]),))
        s1 = simple_rep(q, F2, 1)
        inclusion = Morphism(s1, p_rep, (np.array([[1]]), np.zeros((1, 0))))
        image = reflect_plus_mor(q, 1, inclusion)
        # R_1^+(S_1) = 0 and R_1^+(P) = S_2', so the image morphism is zero
        assert image.source.total_dim == 0
        assert image.target.dims == (0, 1)
        assert image.is_zero()

    def test_functor_laws_on_random_composable_pairs(self):
        rng = random.Random(13)
        q = A3_MID_SINK
        done = 0
        while done < 20:
            u = random_rep(q, F2, rng, max_dim=2)
            v = random_rep(q, F2, rng, max_dim=2)
            w = random_rep(q, F2, rng, max_dim=2)
            fs = hom_basis(u, v).basis
            gs = hom_basis(v, w).basis
            if not fs or not gs:
                continue
            f = fs[rng.randrange(len(fs))]
            g = gs[rng.randrange(len(gs))]
            lhs = reflect_plus_mor(q, 2, compose_morphisms(g, f))
            rhs = compose_morphisms(reflect_plus_mor(q, 2, g), reflect_plus_mor(q, 2, f))
            assert lhs == rhs
            done += 1

    def test_one_elimination_per_object(self, monkeypatch):
        # each object's reflection step gives both R+ of it and its kernel
        # basis, so a map between two objects nonzero at the sink takes two
        q = A3_MID_SINK
        f = hom_basis(indec_of_real_root(q, (1, 1, 0)), indec_of_real_root(q, (1, 1, 1))).basis[0]
        assert f.source.dims[1] and f.target.dims[1] and not f.is_zero()
        calls, real = [], linalg.rref
        monkeypatch.setattr(linalg, "rref", lambda rows, p: calls.append(p) or real(rows, p))
        image = reflect_plus_mor(q, 2, f)
        assert len(calls) == 2
        assert image.source == reflect_plus(q, 2, f.source) and image.target == reflect_plus(q, 2, f.target)

    def test_left_exactness_on_enumerated_inclusions(self):
        q = A3_MID_SINK
        v = indec_of_real_root(q, (1, 1, 1))
        for _, inc in enumerate_subreps(v):
            image = reflect_plus_mor(q, 2, inc)
            from quivrep import linalg

            for i, c in enumerate(image.comps):
                assert linalg.rank(c, 2) == image.source.dims[i]


class TestReflectMinus:
    def test_a_representation_on_another_quiver_is_refused(self):
        with pytest.raises(QuiverMismatchError):
            reflect_minus(A2_RIGHT, 1, p2_left())

    def test_kills_the_simple_at_the_source(self):
        q2 = mutate_at(A3_MID_SINK, 2)  # 1 <- 2 -> 3
        out = reflect_minus(q2, 2, simple_rep(q2, F2, 2))
        assert out.total_dim == 0

    def test_worked_table_read_backwards(self):
        q2 = mutate_at(A3_MID_SINK, 2)
        v = indec_of_real_root(q2, (1, 0, 0))
        out = reflect_minus(q2, 2, v)
        assert out.quiver == A3_MID_SINK and out.dims == (1, 1, 0)

    def test_dimension_rule_without_simple_summand(self):
        rng = random.Random(17)
        q2 = mutate_at(A3_MID_SINK, 2)
        from quivrep import linalg

        done = 0
        while done < 100:
            v = random_rep(q2, F2, rng)
            stacked = v.mats[0] + v.mats[1]
            if v.dims[1] and linalg.rank(stacked, 2) < v.dims[1]:
                continue  # injective out-map required (no S_2 summand)
            assert reflect_minus(q2, 2, v).dims == simple_reflection(q2, 2, v.dims)
            done += 1

    def test_requires_a_source(self):
        with pytest.raises(MutationError):
            reflect_minus(A3_MID_SINK, 2, simple_rep(A3_MID_SINK, F2, 2))


class TestStripSimpleSummands:
    def test_simple_alone_dies(self):
        q = A3_MID_SINK
        assert strip_simple_summands(q, 2, simple_rep(q, F2, 2)).total_dim == 0

    def test_distant_simple_survives(self):
        q = A3_MID_SINK
        v = direct_sum(simple_rep(q, F2, 2), simple_rep(q, F2, 1))
        out = strip_simple_summands(q, 2, v)
        assert decompose(out) == {(1, 0, 0): 1}

    def test_recovery_on_surjective_in_map(self):
        rng = random.Random(19)
        q = A3_MID_SINK
        from quivrep import linalg

        done = 0
        while done < 60:
            v = random_rep(q, F2, rng)
            stacked = [r0 + r1 for r0, r1 in zip(v.mats[0], v.mats[1])]
            if v.dims[1] and linalg.rank(stacked, 2) < v.dims[1]:
                continue
            assert decompose(strip_simple_summands(q, 2, v)) == decompose(v)
            done += 1


class TestIndecomposables:
    def test_simple_roots_give_simples(self):
        for i in (1, 2, 3):
            assert indec_of_real_root(A3_123, unit_vector(3, i)) == simple_rep(A3_123, F2, i)

    def test_a2_projective(self):
        v = indec_of_real_root(A2_LEFT, (1, 1))
        assert v == p2_left()
        assert any(map(any, v.mats[0]))

    def test_a3_full_support_root_has_nonzero_maps(self):
        v = indec_of_real_root(A3_MID_SINK, (1, 1, 1))
        assert v.dims == (1, 1, 1)
        assert all(any(map(any, m)) for m in v.mats)

    def test_rejects_non_roots_and_non_dynkin(self):
        with pytest.raises(NotARealRootError):
            indec_of_real_root(A2_LEFT, (2, 0))
        with pytest.raises(UnsupportedScopeError):
            indec_of_real_root(KRONECKER, (1, 0))

    @pytest.mark.parametrize("n,count", [(1, 1), (2, 3), (3, 6), (4, 10)])
    def test_type_a_counts_all_indecomposable_pairwise_distinct(self, n, count):
        q = path_orientations(n)[0]
        indecs = all_indecomposables(q, F2)
        assert len(indecs) == count
        for root, rep in indecs.items():
            assert rep.dims == root
            assert is_indecomposable(rep)
        reps = list(indecs.values())
        for a, b in itertools.combinations(reps, 2):
            assert decompose(a) != decompose(b)

    def test_every_root_of_linear_a13_builds_and_decomposes_as_itself(self):
        q = linear(13)
        cat = dynkin_category(q, F2)
        assert len(cat.roots) == 91 and (0, 0, 1, 1) + (0,) * 9 in cat.index
        for root in cat.roots:
            rep = cat.indec(root)
            assert rep.dims == root
            assert decompose(rep) == {root: 1}


class TestAdaptedWord:
    """The c-sorting word of w_0 that builds the indecomposables and orders
    the Hom table."""

    @pytest.mark.parametrize(
        "q",
        [q for n in range(1, 6) for q in path_orientations(n)]
        + d4_orientations()
        + orientations(5, D5_BIPARTITE.arrows)
        + [E6_BIPARTITE, E7_ZIGZAG, E8_LINEAR, linear(13), A2_PLUS_A1],
    )
    def test_word_spells_w0_at_sinks(self, q):
        """The walk's word and roots against the orbit listing and a second
        walk of the word."""
        cat = DynkinCategory(q, F2)
        word = cat.word
        assert cat.roots == positive_real_roots(q).roots
        assert len(word) == len(cat.roots)
        assert [cat.roots[b] for b in cat.hom_order] == list(inversion_set(q, word).roots)
        cur = q
        for i in word:
            assert vertex_kind(cur, i) in (VertexKind.SINK, VertexKind.ISOLATED)
            assert all(cur.arrows[a] == (u, i) for a, u in cat._arms[i - 1])
            cur = mutate_at(cur, i)
            assert all(cur.arrows[a] == (i, u) for a, u in cat._arms[i - 1])

    @pytest.mark.parametrize("q", [E7_ZIGZAG, E8_LINEAR], ids=["E7", "E8"])
    def test_every_e7_e8_root_builds(self, q):
        cat = DynkinCategory(q, F2)
        for root in cat.roots:
            rep = cat.indec(root)
            assert rep.dims == root
            if sum(root) <= 12:
                assert is_indecomposable(rep)
        assert cat.hom_table  # built here, every rank checked against the Euler form
        assert sorted(cat.hom_order) == list(range(len(cat.roots)))

    def test_construction_is_lazy(self):
        cat = DynkinCategory(E8_LINEAR, F2)
        assert "_arms" not in cat.__dict__ and not cat._indecs
        cat.indec(cat.roots[-1])
        assert "_arms" in cat.__dict__ and len(cat._indecs) == 1

    def test_a_word_that_is_not_adapted_is_refused(self):
        cat = DynkinCategory(A3_123, F2)  # 1 -> 2 -> 3: vertex 1 is a source
        cat.word = (1, *cat.word[1:])
        with pytest.raises(InternalInvariantError, match="non-sink"):
            cat.indec(cat.roots[0])

    def test_one_representation_per_root(self, monkeypatch):
        """The chain of reflections runs on dimension and matrix lists: on
        E7 zigzag, building every indecomposable makes one Representation
        per root, through the library's builder (linrep._built)."""
        cat, made = DynkinCategory(E7_ZIGZAG, F2), []
        real = linrep._built
        monkeypatch.setattr(linrep, "_built", lambda *args: made.append(real(*args)) or made[-1])
        for root in cat.roots:
            cat.indec(root)
        assert [rep.dims for rep in made] == list(cat.roots)

    def test_roots_come_from_one_walk(self, monkeypatch):
        """A category build lists no orbit and walks no root set: the roots
        and the word come from weyl.dynkin_roots alone."""
        calls = []
        for module in (roots, weyl, linrep):
            for name in ("positive_real_roots", "sorting_element", "inversion_set"):
                if hasattr(module, name):  # every module that binds the name
                    monkeypatch.setattr(module, name, lambda *args, name=name: calls.append(name))
        cat = dynkin_category(Quiver(4, ((2, 1), (2, 3), (4, 3))), F2)
        assert len(cat.roots) == 10 and cat.hom_table and calls == []

    def test_root_guard_refuses_from_the_type(self, monkeypatch):
        """Linear A46 (1,081 roots) is refused before any walk."""
        monkeypatch.setattr(weyl, "_sorting_walk", lambda *args: pytest.fail("walked"))
        q = linear(46)
        start = time.perf_counter()
        with pytest.raises(ResourceGuardError, match="1081 positive roots exceed the guard 1000"):
            dynkin_category(q, F2)
        assert time.perf_counter() - start < 0.1


class TestIsIndecomposable:
    def test_simple_is_indecomposable(self):
        assert is_indecomposable(simple_rep(A2_LEFT, F2, 1))

    def test_double_simple_is_not(self):
        s = simple_rep(A2_LEFT, F2, 1)
        assert not is_indecomposable(direct_sum(s, s))

    def test_zero_is_not(self):
        assert not is_indecomposable(zero_rep(A2_LEFT, F2))

    def test_guard_trips(self):
        s = simple_rep(A2_LEFT, F2, 1)
        big = s
        for _ in range(12):
            big = direct_sum(big, s)
        with pytest.raises(ResourceGuardError):
            is_indecomposable(big)

    def test_two_blocks_are_answered_before_end_is_enumerated(self):
        """P_2^3 over F_5 has 5^9 endomorphisms, past INDEC_ENUM_GUARD: as
        built it is three coordinate blocks, decomposable at once; in a
        random basis it is one block, and the guard trips."""
        cube = functools.reduce(direct_sum, [p2_left(F5)] * 3)
        assert not is_indecomposable(cube)
        copy = change_of_basis(cube, random.Random(5))
        assert len(linrep._blocks(copy)) == 1
        with pytest.raises(ResourceGuardError):
            is_indecomposable(copy)


def in_basis(v, perms):
    """V with the basis at vertex i reordered: new basis vector k is old
    vector perms[i][k]."""
    mats = tuple(
        tuple(tuple(m[r][c] for c in perms[s - 1]) for r in perms[t - 1]) for (s, t), m in zip(v.quiver.arrows, v.mats)
    )
    return Representation(v.quiver, v.field, v.dims, mats)


def interleaved(summands, rng):
    """The direct sum of summands with their coordinates at each vertex
    shuffled together, each summand's own coordinates kept in order."""
    perms = []
    for i in range(summands[0].quiver.n):
        owners = [k for k, x in enumerate(summands) for _ in range(x.dims[i])]
        rng.shuffle(owners)
        starts = list(itertools.accumulate((x.dims[i] for x in summands), initial=0))
        perm = []
        for k in owners:
            perm.append(starts[k])
            starts[k] += 1
        perms.append(perm)
    return in_basis(functools.reduce(direct_sum, summands), perms)


def change_of_basis(v, rng):
    """An isomorphic copy of V: W_a = g_t V_a g_s^-1, each g_i a seeded
    product of elementary matrices over F_p, built beside its inverse."""
    p = v.field.p
    gs = []
    for d in v.dims:
        g, inv = np.eye(d, dtype=np.int64), np.eye(d, dtype=np.int64)
        for _ in range(4 * d):
            i, j = rng.randrange(d), rng.randrange(d)
            if i == j:  # row i of g times u, column i of its inverse times 1/u
                u = rng.randrange(1, p)
                g[i], inv[:, i] = g[i] * u % p, inv[:, i] * pow(u, p - 2, p) % p
            else:  # row i of g plus c row j, column j of its inverse less c column i
                c = rng.randrange(1, p)
                g[i], inv[:, j] = (g[i] + c * g[j]) % p, (inv[:, j] - c * inv[:, i]) % p
        gs.append((g, inv))
    mats = tuple(
        (gs[t - 1][0] @ as_array(m, v.dims[t - 1], v.dims[s - 1]) @ gs[s - 1][1] % p).tolist()
        for (s, t), m in zip(v.quiver.arrows, v.mats)
    )
    return Representation(v.quiver, v.field, v.dims, mats)


def lookup_hits(v):
    """The coordinate blocks of V that decompose names without a Hom rank."""
    cat = dynkin_category(v.quiver, v.field)
    return [(dims, mats) for dims, mats in linrep._blocks(v) if dims in cat.index and cat.indec(dims).mats == mats]


class TestDecompose:
    def test_two_summand_example(self):
        v = direct_sum(simple_rep(A2_LEFT, F2, 1), p2_left())
        assert decompose(v) == {(1, 0): 1, (1, 1): 1}

    def test_indecomposable_decomposes_to_itself(self):
        v = indec_of_real_root(A3_MID_SINK, (1, 1, 1))
        assert decompose(v) == {(1, 1, 1): 1}

    def test_zero_rep(self):
        assert decompose(zero_rep(A3_123, F2)) == {}

    def test_random_double_sums_recovered(self):
        rng = random.Random(23)
        for q, field in itertools.product([A3_123, D5_BIPARTITE, E6_BIPARTITE], [F2, F3, F5]):
            indecs = list(all_indecomposables(q, field).values())
            for _ in range(30):
                summands = [rng.choice(indecs) for _ in range(rng.randint(2, 4))]
                expected: dict = {}
                for s in summands:
                    expected[s.dims] = expected.get(s.dims, 0) + 1
                assert decompose(functools.reduce(direct_sum, summands)) == expected, (q, field)

    @pytest.mark.parametrize(
        "bad",
        [((1, 1, 0), (1, 1, 0), (0, 0, 1)), ((1, 0, 0), (0, 2, 0), (1, 1, 1))],
        ids=["two-cycle", "diagonal-two"],
    )
    def test_bad_hom_table_rejected(self, bad, monkeypatch):
        """Planted ranks with a cycle in their support or a non-unit
        diagonal have no unitriangular order, and a fresh category's table
        refuses them as it is built."""
        cat = DynkinCategory(A2_LEFT, F2)
        ranks = {(cat.roots[b], cat.roots[a]): t for b, row in enumerate(bad) for a, t in enumerate(row)}
        monkeypatch.setitem(A2_LEFT.derived, F2, cat)
        monkeypatch.setattr(linrep, "_hom_dim", lambda v, w: ranks[v.dims, w.dims])
        with pytest.raises(InternalInvariantError):
            decompose(direct_sum(simple_rep(A2_LEFT, F2, 1), p2_left()))

    @pytest.mark.parametrize("q", [A3_MID_SINK, D5_BIPARTITE], ids=["A3", "D5"])
    def test_every_rank_is_checked_against_the_euler_form(self, q, monkeypatch):
        """Each rank at or above the diagonal in word order, one too large
        in turn, is caught as a fresh category builds its table;
        unitriangularity alone sees none of them."""
        table, cat = DynkinCategory(q, F2).hom_table, DynkinCategory(q, F2)
        ranks = {(cat.roots[b], cat.roots[a]): t for b, row in enumerate(table) for a, t in enumerate(row)}
        wrong = None
        monkeypatch.setattr(linrep, "_hom_dim", lambda v, w: ranks[v.dims, w.dims] + ((v.dims, w.dims) == wrong))
        for k, b in enumerate(cat.hom_order):
            for a in cat.hom_order[k:]:
                wrong = cat.roots[b], cat.roots[a]
                with pytest.raises(InternalInvariantError, match="Euler form"):
                    cat.hom_table
                assert "hom_table" not in vars(cat)  # a failed check caches nothing

    def test_non_dynkin_rejected(self):
        with pytest.raises(UnsupportedScopeError):
            decompose(simple_rep(KRONECKER, F2, 1))

    @pytest.mark.parametrize("field", [F2, F3, F5], ids=["F2", "F3", "F5"])
    def test_seeded_triple_sums_match_the_full_solve(self, field):
        rng = random.Random(f"triple sums over F_{field.p}")
        quivers = [A3_123, D5_BIPARTITE, E6_BIPARTITE, E7_ZIGZAG]
        indecs = {q: list(all_indecomposables(q, field).values()) for q in quivers}
        for _ in range(200):
            q = rng.choice(quivers)
            v = functools.reduce(direct_sum, (rng.choice(indecs[q]) for _ in range(3)))
            assert list(decompose(v).items()) == list(reference_decompose(v).items()), v

    def test_asks_no_hom_rank_at_a_root_that_does_not_fit(self, monkeypatch):
        asked = []
        real = linrep._hom_dim

        def spy(v, w):
            asked.append(v.dims)
            return real(v, w)

        rng = random.Random(29)
        indecs = list(all_indecomposables(E6_BIPARTITE, F2).values())
        dynkin_category(E6_BIPARTITE, F2).hom_table  # the table is built before the spy
        monkeypatch.setattr(linrep, "_hom_dim", spy)
        walked = 0
        for _ in range(60):
            # A copy in a random basis, as a canonical summand is named without a rank.  A
            # pair with a block no basis change can move (a simple off the other summand's
            # support, or over F_2 a thin summand off it) cannot miss the lookup.
            v = change_of_basis(functools.reduce(direct_sum, (rng.choice(indecs) for _ in range(2))), rng)
            if lookup_hits(v):
                continue
            walked += 1
            asked.clear()
            decompose(v)
            assert asked and all(all(map(operator.le, root, v.dims)) for root in asked), v
            assert len(asked) < len(indecs)
        assert walked >= 30

    @pytest.mark.parametrize("off, k", [(1, 3), (1, 7), (1, 12), (-1, 3), (-1, 7)])
    def test_a_wrong_hom_rank_is_caught(self, off, k, monkeypatch):
        """V = I_3 + 2 I_7 + I_12 over F_3 in a seeded basis, with
        dim Hom(I_k, V) off by one, is caught by the multiplicity walk.
        (One less at k = 12 fits another decomposition of the same
        dimension vector, which no check on V's dimensions can see.)
        I_12 = S_1 lies off the other summands' support, so every copy keeps
        it as a block of its own, which decompose names without a rank;
        decompose catches a wrong rank where it reads one, at I_3 and I_7."""
        cat = dynkin_category(D5_BIPARTITE, F3)
        summands = [cat.indec(cat.roots[j]) for j in (3, 7, 7, 12)]
        v = change_of_basis(functools.reduce(direct_sum, summands), random.Random(f"wrong rank {off} {k}"))
        assert [dims for dims, _ in lookup_hits(v)] == [cat.roots[12]], v
        cat.hom_table  # the table is built before the patch
        real = linrep._hom_dim
        wrong = cat.roots[k]
        monkeypatch.setattr(linrep, "_hom_dim", lambda i, w: real(i, w) + off * (i.dims == wrong))
        with pytest.raises(InternalInvariantError):
            cat.multiplicities(v.dims, lambda b: linrep._hom_dim(cat.indec(cat.roots[b]), v))
        if k != 12:
            with pytest.raises(InternalInvariantError):
                decompose(v)

    @pytest.mark.parametrize("field", [F2, F3, F5], ids=["F2", "F3", "F5"])
    def test_canonical_sums_ask_no_hom_rank(self, field, monkeypatch):
        """A sum of 2-4 of the category's own indecomposables, as built or
        with their coordinates interleaved at each vertex, is named block by
        block from the lookup, with no Hom rank."""
        asked = []
        real = linrep._hom_dim
        monkeypatch.setattr(linrep, "_hom_dim", lambda v, w: asked.append(v.dims) or real(v, w))
        rng = random.Random(f"canonical sums over F_{field.p}")
        for q in (A3_123, D5_BIPARTITE, E6_BIPARTITE):
            indecs = list(all_indecomposables(q, field).values())
            for _ in range(20):
                summands = [rng.choice(indecs) for _ in range(rng.randint(2, 4))]
                for v in functools.reduce(direct_sum, summands), interleaved(summands, rng):
                    expected = list(reference_decompose(v).items())
                    asked.clear()
                    assert list(decompose(v).items()) == expected and not asked, (q, v)

    @pytest.mark.parametrize("q, field", [(D5_BIPARTITE, F3), (E6_BIPARTITE, F2)], ids=["D5-F3", "E6-F2"])
    def test_a_permuted_block_takes_the_walk(self, q, field, monkeypatch):
        """An indecomposable with its basis reversed at every vertex, where
        that changes a matrix, misses the lookup and is named by the walk,
        beside a canonical summand named without a rank."""
        asked = []
        real = linrep._hom_dim
        monkeypatch.setattr(linrep, "_hom_dim", lambda v, w: asked.append(v.dims) or real(v, w))
        cat = dynkin_category(q, field)
        walked = 0
        for root in cat.roots:
            m = in_basis(cat.indec(root), [range(d - 1, -1, -1) for d in root])
            if m == cat.indec(root):
                continue
            walked += 1
            other = cat.indec(cat.roots[walked % len(cat.roots)])
            asked.clear()
            assert decompose(m) == {root: 1} and not lookup_hits(m) and asked, root
            v = direct_sum(other, m)
            expected = list(reference_decompose(v).items())
            asked.clear()
            assert list(decompose(v).items()) == expected and lookup_hits(v) == [(other.dims, other.mats)], root
            assert asked and all(all(map(operator.le, dims, root)) for dims in asked), root
        assert walked

    @pytest.mark.parametrize("field", [F2, F3, F5], ids=["F2", "F3", "F5"])
    def test_seeded_sums_in_a_random_basis_match_the_full_solve(self, field):
        rng = random.Random(f"sums in a random basis over F_{field.p}")
        for q in (A3_123, D5_BIPARTITE, E6_BIPARTITE):
            indecs = list(all_indecomposables(q, field).values())
            for _ in range(30):
                v = change_of_basis(functools.reduce(direct_sum, (rng.choice(indecs) for _ in range(rng.randint(2, 4)))), rng)
                assert list(decompose(v).items()) == list(reference_decompose(v).items()), (q, v)


def guarded(f, v):
    """f(v), or the type of the ResourceGuardError it raises."""
    try:
        return f(v)
    except ResourceGuardError as exc:
        return type(exc)


def assert_recorded_blocks(v):
    """V carries the coordinate blocks recorded as it was built: as a
    multiset, the blocks _blocks finds on a validated copy, kept there for
    the decompose and is_indecomposable that must answer as on V."""
    recorded = vars(v)["_coordinate_blocks"]
    copy = Representation(v.quiver, v.field, v.dims, v.mats)
    assert "_coordinate_blocks" not in vars(copy)
    assert collections.Counter(recorded) == collections.Counter(copy._coordinate_blocks), v
    assert list(decompose(v).items()) == list(decompose(copy).items()), v
    assert guarded(is_indecomposable, v) == guarded(is_indecomposable, copy), v


def assert_split_terms_recorded(q: Quiver, field):
    """assert_recorded_blocks on the split term of every ordered pair of
    indecomposables of q."""
    cat = DynkinCategory(q, field)
    indecs = [cat.indec(root) for root in cat.roots]
    for z, x in itertools.product(indecs, repeat=2):
        assert_recorded_blocks(next(enumerate_extensions(z, x)))


def spy_on_splits_and_ranks(monkeypatch):
    """A Counter of the calls to linrep._blocks and linrep._hom_dim from now on."""
    calls = collections.Counter()
    for name in "_blocks", "_hom_dim":
        real = getattr(linrep, name)
        monkeypatch.setattr(linrep, name, lambda *args, real=real, name=name: calls.update([name]) or real(*args))
    return calls


class TestRecordedBlocks:
    """A direct sum, from direct_sum or as the split term enumerate_extensions
    yields first, records its summands' coordinate blocks as it is built."""

    @pytest.mark.parametrize("field", [F2, F3], ids=["F2", "F3"])
    @pytest.mark.parametrize("label", ["A1", "A2", "A3", "A4", "A5", "D4", "D5", "D6", "E6"])
    def test_every_split_term_of_the_zoo(self, label, field):
        """One orientation per type; the slow tier walks all 119."""
        assert_split_terms_recorded(orientations(*dynkin_graph(label))[0], field)

    @pytest.mark.slow
    @pytest.mark.parametrize("field", [F2, F3], ids=["F2", "F3"])
    @pytest.mark.parametrize("label", ["A1", "A2", "A3", "A4", "A5", "D4", "D5", "D6", "E6"])
    def test_every_split_term_of_every_orientation(self, label, field):
        for q in orientations(*dynkin_graph(label)):
            assert_split_terms_recorded(q, field)

    @pytest.mark.parametrize("field", [F2, F3, F5], ids=["F2", "F3", "F5"])
    def test_direct_sums(self, field):
        """With the zero representation, nested either way, and with a
        summand of several blocks built by the validating constructor, in
        order or with its coordinates interleaved."""
        rng = random.Random(f"recorded blocks over F_{field.p}")
        for q in (A3_123, D5_BIPARTITE, E6_BIPARTITE):
            indecs = list(all_indecomposables(q, field).values())
            zero = zero_rep(q, field)
            assert_recorded_blocks(direct_sum(zero, zero))
            for _ in range(10):
                a, b, c = (rng.choice(indecs) for _ in range(3))
                ab = direct_sum(a, b)
                for v in direct_sum(zero, a), direct_sum(a, zero), direct_sum(ab, c), direct_sum(a, direct_sum(b, c)):
                    assert_recorded_blocks(v)
                for several in Representation(q, field, ab.dims, ab.mats), interleaved([a, b, c], rng):
                    assert len(several._coordinate_blocks) > 1
                    for v in direct_sum(several, c), direct_sum(a, several), direct_sum(zero, several):
                        assert_recorded_blocks(v)

    def test_a_split_term_is_named_with_no_split_and_no_rank(self, monkeypatch):
        """On bipartite D5 over F_3, once the indecomposables are decomposed,
        decompose on each split term reads no _blocks and asks no Hom rank."""
        cat = dynkin_category(D5_BIPARTITE, F3)
        indecs = [cat.indec(root) for root in cat.roots]
        assert all(decompose(m) == {m.dims: 1} for m in indecs)
        calls = spy_on_splits_and_ranks(monkeypatch)
        for z, x in itertools.product(indecs, repeat=2):
            expected = sorted(collections.Counter([x.dims, z.dims]).items())
            assert list(decompose(next(enumerate_extensions(z, x))).items()) == expected, (z, x)
            assert list(decompose(direct_sum(x, z)).items()) == expected, (z, x)
            assert not calls, (z, x, calls)

    @pytest.mark.parametrize("field", [F2, F3, F5], ids=["F2", "F3", "F5"])
    def test_rebuilt_sums_still_split_and_walk(self, field, monkeypatch):
        """A sum rebuilt by interleaved or change_of_basis goes through the
        validating constructor and records nothing: decompose reads _blocks,
        once per object, and a copy with a block the lookup misses walks."""
        calls = spy_on_splits_and_ranks(monkeypatch)
        rng = random.Random(f"rebuilt sums over F_{field.p}")
        walked = 0
        for q in (A3_123, D5_BIPARTITE, E6_BIPARTITE):
            indecs = list(all_indecomposables(q, field).values())
            cat = dynkin_category(q, field)
            for _ in range(10):
                summands = [rng.choice(indecs) for _ in range(rng.randint(2, 3))]
                for v in interleaved(summands, rng), change_of_basis(functools.reduce(direct_sum, summands), rng):
                    assert "_coordinate_blocks" not in vars(v)
                    expected = list(reference_decompose(v).items())
                    calls.clear()
                    assert [list(decompose(v).items()) for _ in range(2)] == [expected] * 2
                    assert calls["_blocks"] == 1, (v, calls)
                    if any(dims not in cat.index or cat.indec(dims).mats != mats for dims, mats in v._coordinate_blocks):
                        walked += 1
                        assert calls["_hom_dim"], (v, calls)
        assert walked >= 10


class TestEnumerateSubreps:
    def test_simple_has_only_zero_and_itself(self):
        subs = list(enumerate_subreps(simple_rep(A2_LEFT, F2, 1)))
        assert sorted(s.total_dim for s, _ in subs) == [0, 1]

    def test_projective_on_a2(self):
        # subreps of P2 on 1 <- 2: 0, S1, P2 -- but not S2
        dims = sorted(s.dims for s, _ in enumerate_subreps(p2_left()))
        assert dims == [(0, 0), (1, 0), (1, 1)]

    def test_square_of_simple_over_f2(self):
        v = direct_sum(simple_rep(A2_LEFT, F2, 1), simple_rep(A2_LEFT, F2, 1))
        assert len(list(enumerate_subreps(v))) == 5

    def test_inclusions_are_injective_morphisms(self):
        v = indec_of_real_root(A3_MID_SINK, (1, 1, 1))
        from quivrep import linalg

        for sub, inc in enumerate_subreps(v):
            assert inc.source == sub and inc.target == v
            for i, c in enumerate(inc.comps):
                assert linalg.rank(c, 2) == sub.dims[i]

    def test_unsupported_field(self):
        from quivrep.linrep import F5

        with pytest.raises(UnsupportedScopeError):
            next(enumerate_subreps(simple_rep(A2_LEFT, F5, 1)))

    def test_past_the_guard_no_subspace_is_listed(self, monkeypatch):
        # 2,825 subspaces of F_2^6 at each vertex: about 8 million tuples
        def listed(*args):
            raise AssertionError("subspaces listed past the guard")

        monkeypatch.setattr(linalg, "subspaces", listed)
        v = Representation(A2_LEFT, F2, (6, 6), (linalg.zeros(6, 6),))
        with pytest.raises(ResourceGuardError):
            next(enumerate_subreps(v))


class TestEnumerateExtensions:
    def test_split_only_when_ext_vanishes(self):
        s1 = simple_rep(A2_LEFT, F2, 1)
        s2 = simple_rep(A2_LEFT, F2, 2)
        # Ext^1(S1, S2) = 0 on 1 <- 2
        outs = list(enumerate_extensions(s1, s2))
        assert len(outs) == 1
        assert decompose(outs[0]) == {(1, 0): 1, (0, 1): 1}

    def test_two_middle_terms_for_s2_by_s1(self):
        s1 = simple_rep(A2_LEFT, F2, 1)
        s2 = simple_rep(A2_LEFT, F2, 2)
        outs = list(enumerate_extensions(s2, s1))
        assert len(outs) == 2
        assert decompose(outs[0]) == {(1, 0): 1, (0, 1): 1}  # split first
        assert decompose(outs[1]) == {(1, 1): 1}

    @pytest.mark.parametrize("field", [F2, F3], ids=["F2", "F3"])
    def test_ext_zero_is_the_direct_sum_without_a_projection(self, field, monkeypatch):
        """On bipartite D5, every pair with Ext^1 = 0 (316 of 400) yields
        the direct sum alone, read off one rank with no cokernel_images."""
        indecs = list(all_indecomposables(D5_BIPARTITE, field).values())
        projected, images = [], linalg.cokernel_images
        monkeypatch.setattr(linalg, "cokernel_images", lambda mat, p: projected.append(mat) or images(mat, p))
        pairs = 0
        for z, x in itertools.product(indecs, repeat=2):
            if ext1_dim(z, x) == 0:
                pairs += 1
                assert list(enumerate_extensions(z, x)) == [direct_sum(x, z)], (z, x)
        assert pairs == 316 and not projected

    @pytest.mark.parametrize("off, ext", [(1, 2), (-1, 0)], ids=["one-more-at-ext-2", "one-less-at-ext-0"])
    def test_a_wrong_rank_is_caught_by_the_projection(self, off, ext, monkeypatch):
        """On bipartite D5 over F_2, a rank off by one on a pair with
        dim Ext^1 = ext disagrees with the classes of the projection.  (One
        more at dim Ext^1 = 1 reads as full rank and takes the split term
        alone, with no projection to check it against.)"""
        indecs = list(all_indecomposables(D5_BIPARTITE, F2).values())
        pairs = [(z, x) for z, x in itertools.product(indecs, repeat=2) if ext1_dim(z, x) == ext]
        real = linalg.rank
        monkeypatch.setattr(linalg, "rank", lambda rows, p: real(rows, p) + off)
        assert pairs
        for z, x in pairs:
            with pytest.raises(InternalInvariantError, match="Ext\\^1 classes"):
                next(enumerate_extensions(z, x))

    @pytest.mark.parametrize("z, x", [(1, 2), (2, 1)], ids=["ext-zero", "ext-one"])
    def test_f5_is_refused_before_any_system(self, z, x, monkeypatch):
        """Over F_5 the scope check comes before the Hom system and its
        rank, whether Ext^1 is zero (S_1 by S_2 on 1 <- 2) or not."""
        built = []
        hom_system = linrep._hom_system
        monkeypatch.setattr(linrep, "_hom_system", lambda *args: built.append(args) or hom_system(*args))
        pair = simple_rep(A2_LEFT, F5, z), simple_rep(A2_LEFT, F5, x)
        assert ext1_dim(*pair) == (z == 2)
        built.clear()
        with pytest.raises(UnsupportedScopeError):
            next(enumerate_extensions(*pair))
        assert not built

    def test_count_is_p_to_the_ext(self):
        z = simple_rep(KRONECKER, F3, 1)
        x = simple_rep(KRONECKER, F3, 2)
        assert ext1_dim(z, x) == 2
        assert len(list(enumerate_extensions(z, x))) == 9

    def test_guard_trips(self, monkeypatch):
        z = simple_rep(KRONECKER, F2, 1)
        x = simple_rep(KRONECKER, F2, 2)
        monkeypatch.setattr(linrep, "DEFAULT_EXT_GUARD", 1)
        with pytest.raises(ResourceGuardError):
            list(enumerate_extensions(z, x))

    @pytest.mark.parametrize("q", [D5_BIPARTITE, E6_BIPARTITE], ids=["D5", "E6"])
    def test_a_class_and_its_double_have_one_middle_term(self, q):
        # over F_3, 2 xi is the pushout of xi along 2 1_X, an automorphism:
        # the rule by which extension_masks walks one class per line
        indecs = list(all_indecomposables(q, F3).values())
        for z, x in itertools.product(indecs, repeat=2):
            classes = list(itertools.product(range(3), repeat=ext1_dim(z, x)))
            middles = list(map(decompose, enumerate_extensions(z, x)))
            assert len(middles) == len(classes)
            by_class = dict(zip(classes, middles))
            for xi, middle in by_class.items():
                assert by_class[tuple(2 * c % 3 for c in xi)] == middle

    @pytest.mark.parametrize("q, field", [(D5_BIPARTITE, F2), (A3_MID_SINK, F3)], ids=["D5-F2", "A3-F3"])
    def test_classes_sit_at_the_positions_of_the_projection(self, q, field):
        """The positions cokernel_projection returns on a Hom system are
        the free rows whose unit cocycles enumerate_extensions combines."""
        indecs = list(all_indecomposables(q, field).values())
        for z, x in itertools.product(indecs, repeat=2):
            system = dense_rows(linrep._hom_system(z, x), sum(map(operator.mul, z.dims, x.dims)))
            positions = linalg.cokernel_projection(system, field.p)[1]
            expected = []
            for coeffs in itertools.product(range(field.p), repeat=len(positions)):
                psi = [0] * len(system)
                for c, j in zip(coeffs, positions):
                    psi[j] = c
                expected.append(linrep._block_triangular(x, z, psi))
            assert list(enumerate_extensions(z, x)) == expected


def reference_subrep_mask(cat, k):
    """The subrepresentation leg by subspace tuples: the roots of every
    summand of every subrepresentation."""
    mask = 0
    for sub, _ in enumerate_subreps(cat.indec(cat.roots[k])):
        for root in decompose(sub):
            mask |= 1 << cat.index[root]
    return mask


def reference_extension_mask(cat, j, k):
    """The extension leg with every middle term decomposed, the split one
    included, both ways round."""
    x, z = cat.indec(cat.roots[j]), cat.indec(cat.roots[k])
    mids = itertools.chain(enumerate_extensions(z, x), enumerate_extensions(x, z) if j != k else ())
    mask = 0
    for mid in mids:
        for root in reference_decompose(mid):
            mask |= 1 << cat.index[root]
    return mask


LEG_ZOO = {
    "A1-A4": [q for n in range(1, 5) for q in path_orientations(n)],
    "A5": path_orientations(5),
    "D4": d4_orientations(),
    "D5": orientations(*dynkin_graph("D5")),
    "E6": [E6_BIPARTITE],
}


class TestOracleLegs:
    """The category's legs against the subspace-tuple and every-middle-term
    legs they replace, table entry by table entry."""

    @pytest.mark.parametrize("field", [F2, F3], ids=["F2", "F3"])
    @pytest.mark.parametrize("family", list(LEG_ZOO))
    def test_subrep_leg_by_injective_maps(self, family, field):
        for q in LEG_ZOO[family]:
            cat = DynkinCategory(q, field)
            for k in range(len(cat.roots)):
                assert cat.subrep_masks[k] == reference_subrep_mask(cat, k), (q, k)

    @pytest.mark.parametrize(
        "q, field, calls, candidates",
        [
            (D5_BIPARTITE, F2, 33, 76),
            (D5_BIPARTITE, F3, 32, 76),
            (E6_BIPARTITE, F2, 78, 234),
            (E6_BIPARTITE, F3, 73, 234),
        ],
        ids=["D5-F2", "D5-F3", "E6-F2", "E6-F3"],
    )
    def test_subrep_leg_tries_fewer_maps_than_candidates(self, q, field, calls, candidates, monkeypatch):
        """The leg tries an injective map only for the roots j not yet in
        entry k's mask, and none for k itself: fewer _embeds calls than
        the candidate pairs, T[j][k] > 0 with roots[j] no larger than
        roots[k], each of which an earlier leg tried."""
        tried, real = [], linrep._embeds
        monkeypatch.setattr(linrep, "_embeds", lambda *args: tried.append(args) or real(*args))
        cat = DynkinCategory(q, field)
        table, roots = cat.hom_table, cat.roots
        pairs = [
            (j, k)
            for j, k in itertools.product(range(len(roots)), repeat=2)
            if table[j][k] and not any(map(operator.gt, roots[j], roots[k]))
        ]
        cat.subrep_masks
        assert (len(tried), len(pairs)) == (calls, candidates)

    @pytest.mark.parametrize("field", [F2, F3], ids=["F2", "F3"])
    @pytest.mark.parametrize("family", list(LEG_ZOO))
    def test_extension_leg_without_split_terms(self, family, field):
        for q in LEG_ZOO[family]:
            cat = DynkinCategory(q, field)
            for j, k in itertools.combinations_with_replacement(range(len(cat.roots)), 2):
                assert cat.extension_masks[j][k] == cat.extension_masks[k][j]
                assert cat.extension_masks[j][k] == reference_extension_mask(cat, j, k), (q, j, k)
            # the Euler-form Ext the table prunes by, against the corank
            for z, x in itertools.product(range(len(cat.roots)), repeat=2):
                iz, ix = cat.indec(cat.roots[z]), cat.indec(cat.roots[x])
                ext = ext1_dim(iz, ix)
                assert cat.hom_table[z][x] - euler_form(q, cat.roots[z], cat.roots[x]) == ext
                assert sum(1 for _ in enumerate_extensions(iz, ix)) == field.p**ext

    @pytest.mark.parametrize(
        "q, digest",
        [
            (E7_ZIGZAG, "7e752af9585bd71cced87a8493db1a21c691bc1db571e115c9e305045cf1e01a"),
            (E7_LINEAR, "97c30a32ae711c1fd7411deca93c1cd5f70efc4e20729f225a214bd047cbe8d1"),
        ],
        ids=["E7-zigzag", "E7-linear"],
    )
    def test_e7_tables_are_pinned(self, q, digest):
        """The sha256 of repr((hom_table, subrep_masks, extension_masks)),
        each a tuple of ints or of int tuples, over F_2: the whole E7 oracle,
        pinned before its extension leg changed how it is computed."""
        cat = DynkinCategory(q, F2)
        tables = (cat.hom_table, cat.subrep_masks, cat.extension_masks)
        assert hashlib.sha256(repr(tables).encode()).hexdigest() == digest

    @pytest.mark.slow
    def test_e8_tables_are_pinned(self):
        """The same sha256 on E8 zigzag over F_2, pinned before the extension
        leg shared one elimination per Ext pair."""
        cat = DynkinCategory(E8_ZIGZAG, F2)
        tables = (cat.hom_table, cat.subrep_masks, cat.extension_masks)
        digest = "9f6afd795ad20746df90ecf02707d10a738d4631bdf16b228936c19ae1e3172c"
        assert hashlib.sha256(repr(tables).encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "q, digest",
        [
            (D5_BIPARTITE, "bd0d6bafb2e51ea19ce28b4b09ab58bf6dd556c216cf07685b95df55d6a24506"),
            (E6_BIPARTITE, "03508e31ced6e6e2668bd934cefb3ac532c8701e72f531f8a5a2abfd258748a2"),
        ],
        ids=["D5-bipartite", "E6-bipartite"],
    )
    def test_f3_tables_are_pinned(self, q, digest):
        """The same sha256 over F_3, pinned before the F_3 ranks changed
        how their rows are stored and reduced."""
        cat = DynkinCategory(q, F3)
        tables = (cat.hom_table, cat.subrep_masks, cat.extension_masks)
        assert hashlib.sha256(repr(tables).encode()).hexdigest() == digest

    @pytest.mark.parametrize("q, field", [(D5_BIPARTITE, F2), (E6_BIPARTITE, F3)], ids=["D5-F2", "E6-F3"])
    def test_one_elimination_per_ext_pair(self, q, field, monkeypatch):
        """In one extension_masks build, every projection onto Ext^1 comes
        from _ext_classes, which sees each pair with Ext^1 nonzero once."""
        cat = DynkinCategory(q, field)
        cat.hom_table  # builds the indecomposables, whose reflections project too
        pairs, inside, outside = [], [], []
        ext_classes, projection = linrep._ext_classes, linalg.cokernel_projection

        def counted_classes(z, x):
            pairs.append((z.dims, x.dims))
            inside.append(True)
            try:
                return ext_classes(z, x)
            finally:
                inside.pop()

        def counted_projection(mat, p):
            if not inside:
                outside.append(mat)
            return projection(mat, p)

        monkeypatch.setattr(linrep, "_ext_classes", counted_classes)
        monkeypatch.setattr(linalg, "cokernel_projection", counted_projection)
        cat.extension_masks
        ext_pairs = {
            (z, x)
            for z, x in itertools.product(cat.roots, repeat=2)
            if cat.hom_table[cat.index[z]][cat.index[x]] > euler_form(q, z, x)
        }
        assert not outside
        assert sorted(pairs) == sorted(ext_pairs)

    def test_one_class_per_line_of_ext(self, monkeypatch):
        """One E6-bipartite build over F_3 walks (3^d - 1) / 2 classes of
        each of its 330 Ext pairs of dimension d, one multiplicity walk
        each: 540, where every nonzero class would take 1,080."""
        cat = DynkinCategory(E6_BIPARTITE, F3)
        cat.subrep_masks
        calls, multiplicities = [], DynkinCategory.multiplicities

        def counted(self, dims, hom_of):
            calls.append(dims)
            return multiplicities(self, dims, hom_of)

        monkeypatch.setattr(DynkinCategory, "multiplicities", counted)
        cat.extension_masks
        ext = [cat.hom_table[z][x] - cat._euler[z][x] for z in range(len(cat.roots)) for x in range(len(cat.roots))]
        dims = [d for d in ext if d]
        assert len(dims) == 330
        assert len(calls) == sum((3**d - 1) // 2 for d in dims) == 540

    @pytest.mark.parametrize("q, field", [(D5_BIPARTITE, F2), (E6_BIPARTITE, F3)], ids=["D5-F2", "E6-F3"])
    def test_one_hom_basis_per_pair(self, q, field, monkeypatch):
        """Each leg keeps the Hom bases it reads for its own build: within
        the subrep build, and within the extension build, no pair's Hom
        kernel is eliminated twice."""
        cat = DynkinCategory(q, field)
        pairs, hom_kernel = [], linrep._hom_kernel

        def counted(v, w):
            pairs.append((v.dims, w.dims))
            return hom_kernel(v, w)

        monkeypatch.setattr(linrep, "_hom_kernel", counted)
        for leg in ("subrep_masks", "extension_masks"):
            pairs.clear()
            getattr(cat, leg)
            assert pairs and len(pairs) == len(set(pairs))

    def test_enumerate_extensions_builds_no_image(self, monkeypatch):
        """enumerate_extensions reads only the classes of _ext_classes; the
        images of the system's rows in Ext^1 are built as the extension leg
        reads them."""
        cat = DynkinCategory(D5_BIPARTITE, F2)
        indecs = [cat.indec(r) for r in cat.roots]  # their reflections project too
        read, images = [], linalg.cokernel_images

        def watched(mat, p):
            lazy, free = images(mat, p)
            return (read.append(v) or v for v in lazy), free

        monkeypatch.setattr(linalg, "cokernel_images", watched)
        middles = [y for z in indecs for x in indecs for y in enumerate_extensions(z, x)]
        assert len(middles) > len(indecs) ** 2 and not read
        cat.extension_masks
        assert read

    @pytest.mark.parametrize("field", [F2, F3], ids=["F2", "F3"])
    def test_a_leg_read_alone_sees_checked_ranks(self, field, monkeypatch):
        """The subrepresentation leg, read first on a fresh category, reads
        ranks the table has checked: on D4, one Hom rank one too small at a
        proper embedding raises, where an unchecked rank of 0 would drop
        that requirement bit."""
        q = Quiver(4, ((2, 1), (2, 3), (4, 3)))
        ref = DynkinCategory(q, field)
        masks, table = ref.subrep_masks, ref.hom_table
        j, k = next((j, k) for k, mask in enumerate(masks) for j in linalg.bits(mask) if j != k and table[j][k] == 1)
        wrong, real = (ref.roots[j], ref.roots[k]), linrep._hom_dim
        monkeypatch.setattr(linrep, "_hom_dim", lambda v, w: real(v, w) - ((v.dims, w.dims) == wrong))
        with pytest.raises(InternalInvariantError, match="Euler form"):
            DynkinCategory(q, field).subrep_masks

    @pytest.mark.parametrize("leg", ["subrep_masks", "extension_masks"])
    def test_a_short_hom_basis_is_caught(self, leg, monkeypatch):
        """A kernel one column short of its Hom rank, for one pair, fails
        the check against the table."""
        cat = DynkinCategory(D5_BIPARTITE, F2)
        cat.hom_table
        hom_kernel, dropped = linrep._hom_kernel, []

        def short(v, w):
            basis, free = hom_kernel(v, w)
            if free and not dropped:
                dropped.append((v.dims, w.dims))
                return tuple(row[:-1] for row in basis), free[:-1]
            return basis, free

        monkeypatch.setattr(linrep, "_hom_kernel", short)
        with pytest.raises(InternalInvariantError, match="Hom basis"):
            getattr(cat, leg)
        assert dropped

    def test_the_second_leg_checks_the_bases_it_reads(self, monkeypatch):
        """A kernel one column short, planted after the extension leg for a
        pair that both legs read, is caught by the subrep leg: no leg reads
        a basis the other leg eliminated."""
        cat = DynkinCategory(D5_BIPARTITE, F2)
        read, hom_kernel = set(), linrep._hom_kernel
        monkeypatch.setattr(linrep, "_hom_kernel", lambda v, w: read.add((v.dims, w.dims)) or hom_kernel(v, w))
        cat.extension_masks
        table, roots = cat.hom_table, cat.roots
        both = next(
            (roots[j], roots[k])
            for k in range(len(roots))
            for j in range(len(roots))
            if j != k and table[j][k] and not any(map(operator.gt, roots[j], roots[k])) and (roots[j], roots[k]) in read
        )

        def short(v, w):
            basis, free = hom_kernel(v, w)
            return (tuple(row[:-1] for row in basis), free[:-1]) if (v.dims, w.dims) == both else (basis, free)

        monkeypatch.setattr(linrep, "_hom_kernel", short)
        with pytest.raises(InternalInvariantError, match="Hom basis"):
            cat.subrep_masks

    @pytest.mark.parametrize(
        "q, field, bound_mib",
        [(E6_BIPARTITE, F3, 0.65), pytest.param(E8_ZIGZAG, F2, 15, marks=pytest.mark.slow)],
        ids=["E6-F3", "E8-F2"],
    )
    def test_extension_build_peak(self, q, field, bound_mib):
        """The traced peak of one extension_masks build after the Hom table
        and the subrep leg.  Its presentations live for one column x and its
        pullbacks for one Ext pair; kept for the whole build, they took the
        peak to 0.97 MiB on E6 over F_3 and 41.9 MiB on E8 zigzag, against
        0.43 and 5.8 MiB (Python 3.11).  The Hom bases it reads live for
        the build: 0.33 and 7.1 MiB, where reading the subrep leg's copies
        kept it at 0.31 and 5.1 MiB."""
        cat = DynkinCategory(q, field)
        cat.subrep_masks
        tracemalloc.start()
        try:
            cat.extension_masks
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound_mib * 2**20

    @pytest.mark.parametrize("field", [F2, F3], ids=["F2", "F3"])
    @pytest.mark.parametrize("family", list(LEG_ZOO))
    def test_decompose_matches_the_full_solve(self, family, field):
        """On every subrepresentation of every indecomposable and every
        middle term of every ordered pair: the same multiplicities, keyed
        in the same order."""
        for q in LEG_ZOO[family]:
            indecs = list(all_indecomposables(q, field).values())
            reps = [sub for m in indecs for sub, _ in enumerate_subreps(m)]
            reps += [mid for z in indecs for x in indecs for mid in enumerate_extensions(z, x)]
            for v in reps:
                assert list(decompose(v).items()) == list(reference_decompose(v).items()), (q, v)

    @pytest.mark.parametrize("q", [A2_LEFT, D5_BIPARTITE], ids=["A2", "D5"])
    def test_a_wrong_connecting_rank_is_caught(self, q, monkeypatch):
        cat = DynkinCategory(q, F2)
        cat.hom_table  # Hom ranks are taken before the patch
        real = linalg.rank
        monkeypatch.setattr(linalg, "rank", lambda rows, p: real(rows, p) + 1)
        with pytest.raises(InternalInvariantError, match="negative multiplicity"):
            cat.extension_masks

    @pytest.mark.parametrize("field", [F2, F3], ids=["F2", "F3"])
    def test_a_short_ext_presentation_is_caught(self, field, monkeypatch):
        """A presentation of Ext^1 that drops its last class is caught
        against the Hom table's dim Ext^1 before any class is walked."""
        cat = DynkinCategory(D5_BIPARTITE, field)
        cat.hom_table  # Hom ranks are taken before the patch
        real = linrep._ext_classes

        def short(z, x):
            images, free = real(z, x)
            return images, free[:-1]

        monkeypatch.setattr(linrep, "_ext_classes", short)
        with pytest.raises(InternalInvariantError, match="presentation disagrees"):
            cat.extension_masks

    @pytest.mark.parametrize("q", [E7_ZIGZAG, D5_BIPARTITE], ids=["E7", "D5"])
    def test_euler_table_is_the_euler_form(self, q):
        cat = DynkinCategory(q, F2)
        assert cat._euler == tuple(tuple(euler_form(q, b, a) for a in cat.roots) for b in cat.roots)

    @pytest.mark.parametrize("q, field", [(D5_BIPARTITE, F3), (E6_BIPARTITE, F2)], ids=["D5-F3", "E6-F2"])
    def test_one_map_per_line_decides_an_embedding(self, q, field):
        """_embeds tries one map per line of Hom(N, M); trying every map of
        Hom(N, M) gives the same answer on every pair with Hom nonzero."""
        cat, p, seen = DynkinCategory(q, field), field.p, set()
        for j, k in itertools.product(range(len(cat.roots)), repeat=2):
            if cat.hom_table[j][k]:
                v, w = cat.indec(cat.roots[j]), cat.indec(cat.roots[k])
                kernel = linrep._hom_kernel(v, w)
                every = any(
                    all(linalg.rank(c, p) == d for c, d in zip(comps, v.dims) if d)
                    for comps in linrep._hom_elements(v, w, kernel, 10**6)
                )
                assert _embeds(v, w, kernel) == every, (j, k)
                seen.add((cat.hom_table[j][k], every))
        assert {(1, True), (1, False), (2, True), (2, False)} <= seen

    def test_injective_map_guard_trips(self, monkeypatch):
        cat = DynkinCategory(A3_123, F2)
        v = cat.indec((0, 0, 1))
        assert _embeds(v, v, linrep._hom_kernel(v, v))
        monkeypatch.setattr(linrep, "DEFAULT_SUBREP_GUARD", 1)
        with pytest.raises(ResourceGuardError):
            _embeds(v, v, linrep._hom_kernel(v, v))

    def test_unsupported_field(self):
        cat = DynkinCategory(A2_LEFT, F5)
        with pytest.raises(UnsupportedScopeError):
            cat.subrep_masks
        with pytest.raises(UnsupportedScopeError):
            cat.extension_masks


class TestSerialization:
    @pytest.mark.parametrize(
        "data",
        [
            {"field": 2, "dims": 2, "mats": {}},
            {"field": 2, "dims": [1, 1], "mats": {"0": [[2**63]]}},
            {"field": 2, "dims": [1, 1], "mats": {"0": [[-(2**63) - 1]]}},
        ],
        ids=["dims-not-a-list", "entry-past-64-bits", "entry-under-64-bits"],
    )
    def test_malformed_json_is_refused(self, data):
        with pytest.raises(InputFormatError):
            rep_from_json(A2_LEFT, data)

    def test_round_trip(self):
        v = indec_of_real_root(A3_MID_SINK, (1, 1, 1))
        data = rep_to_json(v)
        assert data["field"] == 2 and data["dims"] == [1, 1, 1]
        assert rep_from_json(A3_MID_SINK, data) == v

    def test_zero_blocks_serialize_empty(self):
        v = simple_rep(A3_MID_SINK, F2, 2)
        data = rep_to_json(v)
        assert data["mats"] == {"0": [], "1": []}
        assert rep_from_json(A3_MID_SINK, data) == v
