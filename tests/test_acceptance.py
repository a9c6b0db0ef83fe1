"""Acceptance suite: one test per criterion, each printing a pass line with
its runtime and failing if it exceeds the stated budget.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import itertools
import random
import time
from contextlib import contextmanager

import pytest

from quivrep.linrep import (
    F2,
    F3,
    all_indecomposables,
    decompose,
    hom_basis,
    ext1_dim,
    indec_of_real_root,
    is_indecomposable,
    reflect_plus,
    simple_rep,
    strip_simple_summands,
)
from quivrep.quiver import Quiver, euler_form, mutate_at, unit_vector
from quivrep.roots import RootClass, classify_vector
from quivrep.torsion import enumerate_tfc, sortable_of_tfc, tfc_of_sortable, verify_bijection
from quivrep.weyl import (
    coxeter_of_quiver,
    enumerate_c_sortable,
    inversion_set,
    weyl_element,
)

from conftest import (
    A2_LEFT,
    A2_RIGHT,
    A3_MID_SINK,
    KRONECKER,
    d4_orientations,
    group_elements_by_matrix,
    identity_matrix,
    mat_mul,
    path_orientations,
    random_rep,
    simple_reflection_matrix,
)


@contextmanager
def criterion(number: int, name: str, limit_seconds: float):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    print(f"criterion {number} ({name}): PASS in {elapsed:.2f}s (limit {limit_seconds}s)")
    assert elapsed <= limit_seconds, f"criterion {number} took {elapsed:.2f}s > {limit_seconds}s"


E1, E2, E12 = (1, 0), (0, 1), (1, 1)


def test_criterion_1_a2_inversion_table():
    with criterion(1, "A2 inversion golden table", 1.0):
        q = A2_LEFT  # realizes c = s1 s2
        assert coxeter_of_quiver(q) == (1, 2)
        table = {
            (): set(),
            (1,): {E1},
            (2,): {E2},
            (1, 2): {E1, E12},
            (2, 1): {E2, E12},
            (1, 2, 1): {E1, E12, E2},
        }
        for word, roots in table.items():
            assert inversion_set(q, word).root_set == roots
        # the six words above are exactly the six group elements
        assert len(group_elements_by_matrix(q)) == 6


def test_criterion_2_a3_reflection_table():
    with criterion(2, "A3 reflection-functor golden table", 1.0):
        q = A3_MID_SINK  # 1 -> 2 <- 3
        table = {
            (0, 1, 0): (0, 0, 0),
            (1, 1, 0): (1, 0, 0),
            (0, 1, 1): (0, 0, 1),
            (1, 1, 1): (1, 1, 1),
            (1, 0, 0): (1, 1, 0),
            (0, 0, 1): (0, 1, 1),
        }
        for root, image in table.items():
            v = indec_of_real_root(q, root)
            assert reflect_plus(q, 2, v).dims == image


def test_criterion_3_sortable_catalan_counts():
    with criterion(3, "sortable Catalan counts", 10.0):
        assert len(enumerate_c_sortable(A2_LEFT)) == 5
        assert len(enumerate_c_sortable(A2_RIGHT)) == 5
        for q in path_orientations(3):
            assert len(enumerate_c_sortable(q)) == 14
        for q in path_orientations(4):
            assert len(enumerate_c_sortable(q)) == 42


def test_criterion_4_torsion_free_table():
    with criterion(4, "two-vertex torsion-free table", 5.0):
        q = A2_LEFT
        table = [
            ((), ()),
            ((1,), (E1,)),
            ((2,), (E2,)),
            ((1, 2), (E1, E12)),
            ((1, 2, 1), (E2, E1, E12)),
        ]
        classes = enumerate_tfc(q, F2)
        assert len(classes) == 5
        assert {c.indec_roots for c in classes} == {frozenset(roots) for _, roots in table}
        for word, roots in table:
            w = weyl_element(q, word)
            c = tfc_of_sortable(q, w, F2)
            assert c.indec_roots == frozenset(roots)
            assert sortable_of_tfc(q, c) == w


def brute_sortable_count(q: Quiver) -> int:
    """From-definition recount, independent of the library's sortability
    machinery: an element counts iff some nested chain of generator subsets
    concatenates, reducedly, to it.  Lengths come from Cayley-graph BFS."""
    elements = group_elements_by_matrix(q)
    length = {m: len(w) for m, w in elements.items()}
    c = coxeter_of_quiver(q)
    gens = {i: simple_reflection_matrix(q, i) for i in range(1, q.n + 1)}

    def reaches(target, matrix, used, allowed):
        if used == length[target]:
            return matrix == target
        for size in range(1, len(allowed) + 1):
            for J in itertools.combinations(allowed, size):
                letters = [l for l in c if l in J]
                if used + len(letters) > length[target]:
                    continue
                m = matrix
                for l in letters:
                    m = mat_mul(m, gens[l])
                if length[m] != used + len(letters):
                    continue  # concatenation stopped being reduced
                if reaches(target, m, used + len(letters), J):
                    return True
        return False

    identity = identity_matrix(q.n)
    return sum(1 for target in elements if reaches(target, identity, 0, tuple(range(1, q.n + 1))))


def test_criterion_5_bijection_zoo():
    with criterion(5, "bijection verification zoo", 600.0):
        expected = {1: 2, 2: 5, 3: 14, 4: 42}
        for n in (1, 2, 3, 4):
            for q in path_orientations(n):
                report = verify_bijection(q, F2)
                assert report.passed, (q, report.gaps)
                assert report.sortable_count == report.tfc_count == expected[n]
        d4_counts = set()
        for q in d4_orientations():
            report = verify_bijection(q, F2)
            assert report.passed, (q, report.gaps)
            assert report.sortable_count == report.tfc_count
            d4_counts.add(report.sortable_count)
        assert len(d4_counts) == 1
        # one-off exhaustive recount from the definition; the frozen value 50
        # is what that recount produced (and both enumerations agree with it)
        assert brute_sortable_count(d4_orientations()[0]) == 50
        assert d4_counts == {50}
        # the A2/A3 subset again over F3, with identical class root sets
        for q in [A2_LEFT, A2_RIGHT] + path_orientations(3):
            report3 = verify_bijection(q, F3)
            assert report3.passed
            f2_sets = [c.sorted_roots for c in enumerate_tfc(q, F2)]
            f3_sets = [c.sorted_roots for c in enumerate_tfc(q, F3)]
            assert f2_sets == f3_sets


def test_criterion_6_euler_identity_suite():
    with criterion(6, "Euler identity property suite", 30.0):
        quivers = [A2_LEFT, A2_RIGHT] + path_orientations(3) + [KRONECKER]
        for field in (F2, F3):
            for q in quivers:
                rng = random.Random(1000 * field.p + q.n + len(q.arrows))
                for _ in range(200):
                    v = random_rep(q, field, rng, max_dim=3)
                    w = random_rep(q, field, rng, max_dim=3)
                    got = hom_basis(v, w).dimension - ext1_dim(v, w)
                    assert got == euler_form(q, v.dims, w.dims)


def _no_simple_summand_at(q, v, sink):
    """No summand S_sink iff the in-map at the sink is surjective."""
    from quivrep import linalg

    phi = [sum((v.mats[a][r] for a, _ in q.in_arrows(sink)), ()) for r in range(v.dims[sink - 1])]
    return linalg.rank(phi, v.field.p) == v.dims[sink - 1]


def test_criterion_7_reflection_functor_suite():
    with criterion(7, "reflection-functor property suite", 60.0):
        from quivrep.linrep import compose_morphisms, reflect_plus_mor
        from quivrep.weyl import simple_reflection

        cases = [(A2_LEFT, 1), (A3_MID_SINK, 2), (path_orientations(3)[0], 3), (d4_orientations()[0], 1)]
        for q, sink in cases:
            rng = random.Random(500 + q.n + sink)
            q2 = mutate_at(q, sink)
            s_prime = simple_rep(q2, F2, sink)
            done = 0
            while done < 100:
                v = random_rep(q, F2, rng, max_dim=2)
                if not _no_simple_summand_at(q, v, sink):
                    continue
                out = reflect_plus(q, sink, v)
                assert out.dims == simple_reflection(q, sink, v.dims)
                assert decompose(strip_simple_summands(q, sink, v)) == decompose(v)
                assert hom_basis(s_prime, out).dimension == 0
                done += 1
            # functor laws on random composable pairs
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
                lhs = reflect_plus_mor(q, sink, compose_morphisms(g, f))
                rhs = compose_morphisms(
                    reflect_plus_mor(q, sink, g), reflect_plus_mor(q, sink, f)
                )
                assert lhs == rhs
                done += 1


def test_criterion_8_gabriel_counts():
    with criterion(8, "Gabriel indecomposable counts", 60.0):
        zoo = [(path_orientations(n)[0], count) for n, count in [(1, 1), (2, 3), (3, 6), (4, 10)]]
        zoo.append((d4_orientations()[0], 12))
        for q, count in zoo:
            indecs = all_indecomposables(q, F2)
            assert len(indecs) == count
            dims_seen = set()
            for root, rep in indecs.items():
                assert rep.dims == root
                assert is_indecomposable(rep)
                dims_seen.add(rep.dims)
            assert len(dims_seen) == count  # pairwise non-isomorphic


def test_criterion_9_imaginary_classification():
    with criterion(9, "imaginary classification", 10.0):
        assert classify_vector(KRONECKER, (1, 1)) is RootClass.IMAGINARY
        assert classify_vector(A2_LEFT, (2, 0)) is RootClass.NOT_A_ROOT
        assert classify_vector(A2_LEFT, (1, 1)) is RootClass.REAL_POSITIVE
        zoo = [path_orientations(n)[0] for n in (1, 2, 3, 4)] + [d4_orientations()[0]]
        for q in zoo:
            for v in itertools.product(range(11), repeat=q.n):
                if 0 < sum(v) <= 10:
                    assert classify_vector(q, v) is not RootClass.IMAGINARY
