import itertools
import random
import time

import pytest

from quivrep import roots
from quivrep.errors import DimensionMismatchError, InconclusiveError, InvalidParameterError, ResourceGuardError
from quivrep.quiver import Quiver, dynkin_graph, mutate_at, sym_form, unit_vector
from quivrep.roots import (
    CLASSIFY_STEP_GUARD,
    POSITIVE_ROOT_GUARD,
    ROOT_LISTING_GUARD,
    RootClass,
    classify_vector,
    in_fundamental_cone,
    is_positive_real_root,
    positive_real_roots,
)
from quivrep.weyl import simple_pairing, simple_reflection

from conftest import (
    A2_LEFT,
    A2_PLUS_A1,
    A3_123,
    A3_MID_SINK,
    E6_BIPARTITE,
    KRONECKER,
    d4_orientations,
    orbit_positive_roots,
    path_orientations,
)


K4 = Quiver(4, ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)))  # every edge, wild


def scanned_classify(q, alpha, budget):
    """Height minimisation on a nonnegative vector as classify_vector did it
    by scanning the vertices from 1 for a positive pairing at every step:
    the class and the steps it took, or (None, budget) when the budget of
    steps ran out."""
    v = alpha
    for steps in range(budget + 1):
        if sum(v) == 1:
            return RootClass.REAL_POSITIVE, steps
        drop = next((i for i in range(1, q.n + 1) if simple_pairing(q, i, v) > 0), None)
        if drop is None:
            connected = roots._support_connected(q, v)
            return (RootClass.IMAGINARY if connected else RootClass.NOT_A_ROOT), steps
        v = simple_reflection(q, drop, v)
        if any(x < 0 for x in v):
            return RootClass.NOT_A_ROOT, steps
    return None, budget


def interval_vectors(n):
    """In type A the positive roots are the interval sums e_i + ... + e_j."""
    out = set()
    for i in range(n):
        for j in range(i, n):
            out.add(tuple(1 if i <= k <= j else 0 for k in range(n)))
    return out


class TestPositiveRealRoots:
    @pytest.mark.parametrize("q", path_orientations(3))
    def test_a3_roots_are_the_six_intervals(self, q):
        listing = positive_real_roots(q)
        assert listing.complete
        assert listing.root_set == interval_vectors(3)

    def test_single_vertex(self):
        listing = positive_real_roots(Quiver(1))
        assert listing.roots == ((1,),) and listing.complete

    @pytest.mark.parametrize("q", d4_orientations()[:2])
    def test_d4_count_against_independent_orbit(self, q):
        listing = positive_real_roots(q)
        assert listing.complete
        assert len(listing) == 12
        assert listing.root_set == orbit_positive_roots(q, 40)

    def test_kronecker_is_incomplete_and_graded(self):
        listing = positive_real_roots(KRONECKER, height_bound=9)
        assert not listing.complete
        # infinite family (k+1, k), (k, k+1)
        assert listing.root_set == {(k + 1, k) for k in range(5)} | {
            (k, k + 1) for k in range(5)
        } - {(0, 1), (1, 0)} | {(0, 1), (1, 0)}

    @pytest.mark.parametrize("q", [A2_LEFT, A3_MID_SINK] + d4_orientations()[:1])
    def test_every_real_root_has_norm_two(self, q):
        for root in positive_real_roots(q):
            assert sym_form(q, root, root) == 2

    @pytest.mark.parametrize("q", path_orientations(3))
    def test_orientation_independence(self, q):
        base = positive_real_roots(A3_123).root_set
        assert positive_real_roots(q).root_set == base
        for i in (1, 3):
            assert positive_real_roots(mutate_at(q, i) if q.arrows else q).root_set == base

    @pytest.mark.parametrize("bound", ["3", 2.5], ids=["string", "float"])
    def test_a_height_bound_that_is_no_integer_is_an_invalid_parameter(self, bound):
        # a string failed its comparison with a bare TypeError, and 2.5 listed to height 2
        with pytest.raises(InvalidParameterError, match="integer"):
            positive_real_roots(KRONECKER, height_bound=bound)

    def test_sorted_lexicographically(self):
        roots = positive_real_roots(A3_123).roots
        assert list(roots) == sorted(roots)

    def test_e8_is_admitted(self):
        listing = positive_real_roots(Quiver(*dynkin_graph("E8")))
        assert listing.complete and len(listing) == 120 <= POSITIVE_ROOT_GUARD

    def test_guard_trips_on_linear_a1000_before_any_reflection(self):
        q = Quiver(1000, tuple((k, k + 1) for k in range(1, 1000)))
        start = time.perf_counter()
        with pytest.raises(ResourceGuardError, match="500500"):
            positive_real_roots(q, height_bound=2)
        assert time.perf_counter() - start < 1.0

    def test_k4_default_bound_is_admitted(self):
        listing = positive_real_roots(K4)
        assert not listing.complete
        assert len(listing) == 2074 <= ROOT_LISTING_GUARD

    def test_listing_guard_trips_on_k4_with_a_huge_bound(self):
        start = time.perf_counter()
        with pytest.raises(ResourceGuardError, match=str(ROOT_LISTING_GUARD)):
            positive_real_roots(K4, height_bound=10**9)
        assert time.perf_counter() - start < 1.0


class TestFundamentalCone:
    def test_kronecker_isotropic_vector(self):
        assert in_fundamental_cone(KRONECKER, (1, 1))

    def test_a2_vector_fails_pairing(self):
        assert not in_fundamental_cone(A2_LEFT, (1, 1))

    def test_disconnected_support_fails(self):
        assert not in_fundamental_cone(A3_123, (1, 0, 1))

    def test_disconnected_support_fails_where_every_pairing_holds(self):
        # the sum of the two isotropic vectors of two Kronecker quivers pairs
        # to 0 with every simple root, so only the support decides
        q = Quiver(4, ((1, 2), (1, 2), (3, 4), (3, 4)))
        assert in_fundamental_cone(q, (1, 1, 0, 0))
        assert not in_fundamental_cone(q, (1, 1, 1, 1))

    def test_a_negative_entry_fails(self):
        # (1, -1) pairs to 4 and -4 with e_1 and e_2 on the Kronecker quiver
        assert not in_fundamental_cone(KRONECKER, (1, -1))
        assert not in_fundamental_cone(KRONECKER, (-1, -1))

    def test_zero_vector_rejected(self):
        with pytest.raises(InvalidParameterError):
            in_fundamental_cone(A2_LEFT, (0, 0))


class TestClassifyVector:
    def test_a2_highest_root_is_real(self):
        assert classify_vector(A2_LEFT, (1, 1)) is RootClass.REAL_POSITIVE

    def test_kronecker_isotropic_is_imaginary(self):
        assert classify_vector(KRONECKER, (1, 1)) is RootClass.IMAGINARY

    def test_doubled_simple_is_not_a_root(self):
        assert classify_vector(A2_LEFT, (2, 0)) is RootClass.NOT_A_ROOT

    def test_negative_of_real_root(self):
        assert classify_vector(A2_LEFT, (-1, -1)) is RootClass.REAL_NEGATIVE

    @pytest.mark.parametrize(
        "q,vector",
        [
            (KRONECKER, (-1, -1)),
            (KRONECKER, (-2, -2)),
            (Quiver(3, ((1, 2), (2, 3), (1, 3))), (-1, -1, -1)),  # affine A2
        ],
        ids=["kronecker-delta", "kronecker-2delta", "affine-a2-delta"],
    )
    def test_negative_imaginary_root(self, q, vector):
        assert classify_vector(q, tuple(-x for x in vector)) is RootClass.IMAGINARY
        assert classify_vector(q, vector) is RootClass.IMAGINARY

    def test_negative_non_root_stays_a_non_root(self):
        assert classify_vector(KRONECKER, (-2, 0)) is RootClass.NOT_A_ROOT
        assert classify_vector(A2_LEFT, (-2, 0)) is RootClass.NOT_A_ROOT

    def test_mixed_signs_not_a_root(self):
        assert classify_vector(A2_LEFT, (1, -1)) is RootClass.NOT_A_ROOT

    def test_zero_not_a_root(self):
        assert classify_vector(A2_LEFT, (0, 0)) is RootClass.NOT_A_ROOT

    @pytest.mark.parametrize("vector", [(1, 0, 0), (1, 1, 1), (0, 0, 0), (-1, 0, 0)])
    def test_negative_search_bound_is_an_invalid_parameter(self, vector):
        with pytest.raises(InvalidParameterError):
            classify_vector(A3_123, vector, search_bound=-1)

    def test_a_search_bound_that_is_no_integer_is_an_invalid_parameter(self):
        with pytest.raises(InvalidParameterError):
            classify_vector(KRONECKER, (1, 1), 2.5)

    def test_zero_search_bound_settles_a_simple_root(self):
        assert classify_vector(A3_123, (1, 0, 0), search_bound=0) is RootClass.REAL_POSITIVE

    def test_default_search_stops_at_the_guard(self):
        # each step lowers the height of a Kronecker root by 2, so this
        # would take about 10^30 steps
        start = time.perf_counter()
        with pytest.raises(InconclusiveError, match=f"{CLASSIFY_STEP_GUARD} steps"):
            classify_vector(KRONECKER, (10**30, 10**30 + 1))
        assert time.perf_counter() - start < 1.0
        assert classify_vector(KRONECKER, (10**4, 10**4 + 1)) is RootClass.REAL_POSITIVE

    def test_a_bound_past_the_guard_is_refused_before_any_step(self, monkeypatch):
        assert classify_vector(KRONECKER, (3, 4), CLASSIFY_STEP_GUARD) is RootClass.REAL_POSITIVE

        def refused(*args):
            raise AssertionError("a step was taken")

        monkeypatch.setattr(roots, "simple_pairing", refused)
        for vector in [(3, 4), (-3, -4)]:
            with pytest.raises(ResourceGuardError, match=str(CLASSIFY_STEP_GUARD)):
                classify_vector(KRONECKER, vector, CLASSIFY_STEP_GUARD + 1)

    @pytest.mark.parametrize(
        "q",
        [
            KRONECKER,
            Quiver(3, ((1, 2), (1, 2), (2, 3), (2, 3))),  # wild, a_12 = a_23 = 2
            Quiver(3, ((1, 2), (2, 3), (1, 3))),  # affine A2
            Quiver(10, tuple((k, k + 1) for k in range(1, 9)) + ((3, 10),)),  # the wild tree T_{2,3,7}
        ],
        ids=["Kronecker", "wild-3", "affine-A2", "T237"],
    )
    def test_kept_pairings_agree_with_the_vertex_scan(self, q):
        """The same class as the scan from vertex 1 at every step, settled
        in the same number of steps: at that budget and not one below."""
        rng = random.Random(f"classify:{q.arrows}")
        for _ in range(400):
            if rng.random() < 0.5:
                top = rng.choice([4, 30, 500])
                v = tuple(rng.randrange(top) for _ in range(q.n))
            else:  # a root far up its orbit, perhaps moved off it: a long descent
                v = unit_vector(q.n, rng.randrange(1, q.n + 1))
                for _ in range(rng.randrange(400)):
                    up = [i for i in range(1, q.n + 1) if simple_pairing(q, i, v) < 0]
                    v = simple_reflection(q, rng.choice(up), v) if up else v
                v = tuple(x + rng.choice([0, 0, 1]) for x in v)
            if not any(v):
                continue
            expected, steps = scanned_classify(q, v, 200)
            if expected is None:
                with pytest.raises(InconclusiveError):
                    classify_vector(q, v, 200)
                continue
            assert classify_vector(q, v, steps) is expected, v
            if steps:
                with pytest.raises(InconclusiveError):
                    classify_vector(q, v, steps - 1)

    def test_agrees_with_root_listing_on_a3(self):
        listing = positive_real_roots(A3_MID_SINK)
        for v in itertools.product(range(4), repeat=3):
            got = classify_vector(A3_MID_SINK, v)
            if v in listing.root_set:
                assert got is RootClass.REAL_POSITIVE
            else:
                assert got is RootClass.NOT_A_ROOT

    def test_kronecker_imaginary_orbit_is_stable(self):
        for v in [(1, 1), (2, 2), (3, 3)]:
            assert classify_vector(KRONECKER, v) is RootClass.IMAGINARY
            for i in (1, 2):
                w = simple_reflection(KRONECKER, i, v)
                assert classify_vector(KRONECKER, w) is RootClass.IMAGINARY

    @pytest.mark.parametrize(
        "q", [path_orientations(n)[0] for n in (1, 2, 3, 4)] + [d4_orientations()[0]]
    )
    def test_dynkin_never_imaginary_up_to_height_ten(self, q):
        for v in itertools.product(range(11), repeat=q.n):
            if 0 < sum(v) <= 10:
                assert classify_vector(q, v) is not RootClass.IMAGINARY


class TestIsPositiveRealRoot:
    """On Dynkin quivers the Tits form decides membership; classify_vector
    is the reference."""

    @pytest.mark.parametrize(
        "q",
        path_orientations(4) + d4_orientations()[:2] + [A2_PLUS_A1, Quiver(2), KRONECKER],
    )
    def test_agrees_with_classify_vector(self, q):
        for v in itertools.product(range(-1, 4), repeat=q.n):
            assert is_positive_real_root(q, v) == (classify_vector(q, v) is RootClass.REAL_POSITIVE)

    def test_agrees_with_root_listing_on_e6(self):
        roots = set(positive_real_roots(E6_BIPARTITE).roots)
        for v in itertools.product(range(4), repeat=6):
            assert is_positive_real_root(E6_BIPARTITE, v) == (v in roots)

    def test_wrong_length_rejected(self):
        with pytest.raises(DimensionMismatchError):
            is_positive_real_root(A3_123, (1, 0))
