import gc
import hashlib
import itertools
import random
import time
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from quivrep import quiver, weyl
from quivrep.errors import (
    IntegralityError,
    InvalidParameterError,
    NonReducedWordError,
    QuiverMismatchError,
    ResourceGuardError,
    SingularRootError,
    UnsupportedScopeError,
)
from quivrep.quiver import Quiver, dynkin_type, orientations, sym_form, unit_vector
from quivrep.weyl import (
    c_sorting_element,
    compose,
    coxeter_of_quiver,
    enumerate_c_sortable,
    identity_element,
    inversion_set,
    invert,
    is_c_sortable,
    is_reduced,
    left_descent,
    quiver_of_coxeter,
    reduce_word,
    reflect_by_root,
    simple_reflection,
    weyl_element,
)

from conftest import (
    A2_LEFT,
    A2_PLUS_A1,
    A2_RIGHT,
    A3_123,
    A3_321,
    A3_MID_SINK,
    E6_BIPARTITE,
    KRONECKER,
    all_words,
    d4_orientations,
    group_elements_by_matrix,
    identity_matrix,
    live_packings,
    mat_mul,
    matrix_of_word,
    path_orientations,
    reference_sorting_word,
    simple_reflection_matrix,
)

E1, E2 = (1, 0), (0, 1)


class TestSimpleReflection:
    @pytest.mark.parametrize("q", [A2_LEFT, A3_123, KRONECKER])
    def test_negates_own_root(self, q):
        for i in range(1, q.n + 1):
            e = unit_vector(q.n, i)
            assert simple_reflection(q, i, e) == tuple(-x for x in e)

    def test_a2_table_entry(self):
        # second inversion of s1 s2 is s1(e2) = e1 + e2
        assert simple_reflection(A2_LEFT, 1, E2) == (1, 1)

    @given(st.tuples(st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9)))
    def test_fixes_orthogonal_vectors(self, v):
        if sym_form(A3_123, unit_vector(3, 2), v) == 0:
            assert simple_reflection(A3_123, 2, v) == v

    @given(st.tuples(st.integers(-20, 20), st.integers(-20, 20)))
    def test_involution(self, v):
        assert simple_reflection(KRONECKER, 1, simple_reflection(KRONECKER, 1, v)) == v


class TestReflectByRoot:
    @given(st.tuples(st.integers(-9, 9), st.integers(-9, 9)))
    def test_unit_root_matches_simple_reflection(self, v):
        assert reflect_by_root(A2_LEFT, E1, v) == simple_reflection(A2_LEFT, 1, v)

    def test_reflection_by_highest_root_of_a2(self):
        assert reflect_by_root(A2_LEFT, (1, 1), E1) == (0, -1)

    @given(st.tuples(st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9)))
    def test_involution_and_form_preservation(self, v):
        beta = (1, 1, 1)  # real root of any A3 orientation
        w = reflect_by_root(A3_MID_SINK, beta, v)
        assert reflect_by_root(A3_MID_SINK, beta, w) == v
        assert sym_form(A3_MID_SINK, w, w) == sym_form(A3_MID_SINK, v, v)

    def test_isotropic_root_rejected(self):
        with pytest.raises(SingularRootError):
            reflect_by_root(KRONECKER, (1, 1), E1)  # (beta,beta) = 0

    def test_non_integral_reflection_rejected(self):
        # beta = 2 e1 on A2: (beta,beta) = 8 does not divide 2(beta,e1+e2) = 4
        with pytest.raises(IntegralityError):
            reflect_by_root(A2_LEFT, (2, 0), (1, 1))


class TestInversionSets:
    def test_a2_table(self):
        table = {
            (): (),
            (1,): (E1,),
            (2,): (E2,),
            (1, 2): (E1, (1, 1)),
            (2, 1): (E2, (1, 1)),
            (1, 2, 1): (E1, (1, 1), E2),
        }
        for word, roots in table.items():
            assert inversion_set(A2_LEFT, word).roots == roots

    def test_other_reduced_word_same_set_other_order(self):
        a = inversion_set(A2_LEFT, (2, 1, 2))
        assert a.roots == (E2, (1, 1), E1)
        assert a.root_set == inversion_set(A2_LEFT, (1, 2, 1)).root_set

    def test_non_reduced_word_rejected(self):
        with pytest.raises(NonReducedWordError):
            inversion_set(A2_LEFT, (1, 1))


class TestIsReduced:
    def test_longest_a2_word(self):
        assert is_reduced(A2_LEFT, (1, 2, 1))

    @pytest.mark.parametrize("q", [A2_LEFT, A3_123, KRONECKER])
    def test_repeated_letter_not_reduced(self, q):
        assert not is_reduced(q, (1, 1))

    def test_word_longer_than_group_allows(self):
        assert not is_reduced(A2_LEFT, (1, 2, 1, 2))

    def test_exhaustive_against_group_length(self):
        # brute-force: an element's length is its BFS depth in the Cayley graph
        elements = group_elements_by_matrix(A2_LEFT)
        assert len(elements) == 6
        for word in all_words(2, 5):
            expected = len(elements[matrix_of_word(A2_LEFT, word)]) == len(word)
            assert is_reduced(A2_LEFT, word) == expected


class TestReduceWord:
    def test_cancelling_pair(self):
        assert reduce_word(A3_123, (2, 2)) == ()

    def test_reduced_input_returned_unchanged(self):
        assert reduce_word(A2_LEFT, (2, 1, 2)) == (2, 1, 2)

    def test_braid_length_four_word(self):
        word = (2, 1, 2, 1)
        reduced = reduce_word(A2_LEFT, word)
        assert len(reduced) == 2
        assert matrix_of_word(A2_LEFT, reduced) == matrix_of_word(A2_LEFT, word)

    @pytest.mark.parametrize("q", [A2_LEFT, A3_MID_SINK, KRONECKER])
    def test_always_reduced_and_same_element(self, q):
        for word in all_words(q.n, 4):
            red = reduce_word(q, word)
            assert is_reduced(q, red)
            assert matrix_of_word(q, red) == matrix_of_word(q, word)


class TestGroupStructure:
    def test_inverse_cancels(self):
        w = weyl_element(A3_123, (1, 2, 3, 1))
        assert compose(w, invert(w)) == identity_element(A3_123)

    def test_generator_squares_to_identity(self):
        s1 = weyl_element(A2_LEFT, (1,))
        assert compose(s1, s1) == identity_element(A2_LEFT)

    def test_longest_element_length_three(self):
        s1 = weyl_element(A2_LEFT, (1,))
        s2 = weyl_element(A2_LEFT, (2,))
        w0 = compose(compose(s1, s2), s1)
        assert w0.length == 3
        assert len(inversion_set(A2_LEFT, w0.word)) == 3

    def test_quiver_mismatch_rejected(self):
        with pytest.raises(QuiverMismatchError):
            compose(weyl_element(A2_LEFT, (1,)), weyl_element(A3_123, (1,)))

    def test_braid_relations_as_matrix_identities(self):
        q = A3_123
        for i in range(1, 4):
            s = simple_reflection_matrix(q, i)
            assert mat_mul(s, s) == identity_element(q).matrix
        s1, s2, s3 = (simple_reflection_matrix(q, i) for i in (1, 2, 3))
        # non-adjacent generators commute
        assert mat_mul(s1, s3) == mat_mul(s3, s1)
        # adjacent generators satisfy the order-3 braid relation
        assert mat_mul(mat_mul(s1, s2), s1) == mat_mul(mat_mul(s2, s1), s2)

    def test_kronecker_generators_have_no_braid_relation(self):
        elements = group_elements_by_matrix(KRONECKER, max_length=8)
        # the infinite dihedral group: exactly 2k+1 elements of length <= k... 2 per length
        lengths = sorted(len(w) for w in elements.values())
        for k in range(1, 8):
            assert lengths.count(k) == 2

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_symmetric_group_order(self, n):
        q = path_orientations(n)[0]
        import math

        assert len(group_elements_by_matrix(q)) == math.factorial(n + 1)


class TestSameInversionSetAcrossReducedWords:
    @pytest.mark.parametrize("q", [A2_LEFT, A3_MID_SINK, KRONECKER, Quiver(4, ((1, 2), (3, 2), (3, 4)))])
    def test_words_up_to_length_five(self, q):
        by_element: dict = {}
        for word in all_words(q.n, 5):
            if not is_reduced(q, word):
                continue
            key = matrix_of_word(q, word)
            inv = inversion_set(q, word)
            assert len(inv) == len(word)
            prev = by_element.setdefault(key, inv.root_set)
            assert prev == inv.root_set

    def test_distinct_elements_distinct_inversion_sets(self):
        q = A3_123
        elements = group_elements_by_matrix(q)
        seen = {}
        for matrix, word in elements.items():
            key = inversion_set(q, word).root_set
            assert key not in seen
            seen[key] = matrix
        assert len(seen) == 24

    def test_distinct_kronecker_elements_distinct_inversion_sets(self):
        elements = group_elements_by_matrix(KRONECKER, max_length=6)
        sets = {inversion_set(KRONECKER, w).root_set for w in elements.values()}
        assert len(sets) == len(elements)


class TestLeftDescent:
    def test_identity_has_no_descents(self):
        e = identity_element(A3_123)
        assert not any(left_descent(A3_123, i, e) for i in range(1, 4))

    def test_first_letter_is_a_descent(self):
        w = weyl_element(A2_LEFT, (1, 2))
        assert left_descent(A2_LEFT, 1, w)

    def test_non_descent(self):
        w = weyl_element(A2_LEFT, (1, 2))
        assert not left_descent(A2_LEFT, 2, w)

    @pytest.mark.parametrize("q", [A2_LEFT, A3_MID_SINK])
    def test_agrees_with_inversion_membership_and_length(self, q):
        for _, word in group_elements_by_matrix(q).items():
            w = weyl_element(q, word)
            inv = inversion_set(q, w.word)
            for i in range(1, q.n + 1):
                d = left_descent(q, i, w)
                assert d == (unit_vector(q.n, i) in inv)
                shorter = weyl_element(q, (i,) + w.word)
                assert shorter.length == w.length + (-1 if d else 1)

    def test_element_of_another_quiver_rejected(self):
        with pytest.raises(QuiverMismatchError):
            left_descent(A2_LEFT, 1, weyl_element(KRONECKER, (1, 2, 1)))


class TestWeylActionPreservesForm:
    @given(
        st.lists(st.integers(1, 3), max_size=6),
        st.tuples(st.integers(-5, 5), st.integers(-5, 5), st.integers(-5, 5)),
        st.tuples(st.integers(-5, 5), st.integers(-5, 5), st.integers(-5, 5)),
    )
    @settings(max_examples=60)
    def test_invariance(self, word, beta, gamma):
        w = weyl_element(A3_MID_SINK, word)
        assert sym_form(A3_MID_SINK, w.apply(beta), w.apply(gamma)) == sym_form(
            A3_MID_SINK, beta, gamma
        )


class TestCoxeterOrientationCorrespondence:
    def test_linear_path_gives_reverse_order(self):
        assert coxeter_of_quiver(A3_123) == (3, 2, 1)

    def test_middle_sink_comes_first(self):
        assert coxeter_of_quiver(A3_MID_SINK) == (2, 1, 3)

    def test_edgeless_ties_break_small_first(self):
        assert coxeter_of_quiver(Quiver(2)) == (1, 2)

    def test_word_is_sorted_once_per_quiver_object(self, monkeypatch):
        sorts = []
        real_toposort = quiver._toposort
        q = Quiver(4, ((4, 1), (4, 2), (4, 3)))
        monkeypatch.setattr(quiver, "_toposort", lambda *args: sorts.append(args) or real_toposort(*args))
        assert coxeter_of_quiver(q) == (1, 2, 3, 4)
        assert len(enumerate_c_sortable(q)) == 50
        assert all(is_c_sortable(q, w) for w in enumerate_c_sortable(q))
        assert len(sorts) == 1

    def test_orienting_path_by_reverse_word(self):
        graph = A3_MID_SINK  # orientation ignored, underlying path used
        assert quiver_of_coxeter(graph, (3, 2, 1)) == A3_123

    def test_orienting_by_commuted_word(self):
        assert quiver_of_coxeter(A3_123, (2, 3, 1)) == A3_MID_SINK

    @pytest.mark.parametrize("q", path_orientations(3))
    def test_round_trip(self, q):
        assert quiver_of_coxeter(q, coxeter_of_quiver(q)) == q

    def test_digest_of_every_word_on_a1_to_a7_d4_to_d6_and_e6(self):
        """Pins the tie-breaking of every Coxeter word: the sortable
        enumerations and sorting words all follow it."""
        graphs = [(n, tuple((k, k + 1) for k in range(1, n))) for n in range(1, 8)]
        graphs += [(n, tuple((k, k + 1) for k in range(1, n - 1)) + ((n - 2, n),)) for n in (4, 5, 6)]
        graphs += [(6, ((1, 2), (2, 3), (3, 4), (4, 5), (3, 6)))]
        quivers = [q for n, edges in graphs for q in orientations(n, edges)]
        digest = hashlib.sha256()
        for q in quivers:
            c = coxeter_of_quiver(q)
            assert quiver_of_coxeter(q, c) == q
            digest.update(f"{q.arrows} {c}\n".encode())
        assert len(quivers) == 215
        assert digest.hexdigest() == "9b7a9a5183aa5b7ef1112d4c4ae32d2ff4f2343b7bead9742f9245b07257a357"


def reference_sorting_words(q, max_length=None):
    """{matrix: c-sorting word} of the c-sortable elements up to
    ``max_length``, by the definition in conftest.reference_sorting_word."""
    group = group_elements_by_matrix(q, max_length)
    lengths = {m: len(word) for m, word in group.items()}
    words = {m: reference_sorting_word(q, m, lengths) for m in group}
    return {m: word for m, word in words.items() if word is not None}


class TestCSortable:
    def test_a2_non_sortable_element(self):
        assert not is_c_sortable(A2_LEFT, weyl_element(A2_LEFT, (2, 1)))

    def test_a2_five_sortable_elements(self):
        for word in [(), (1,), (2,), (1, 2), (1, 2, 1)]:
            assert is_c_sortable(A2_LEFT, weyl_element(A2_LEFT, word))

    @pytest.mark.parametrize("q", [A2_LEFT, A3_123, KRONECKER])
    def test_identity_always_sortable(self, q):
        assert is_c_sortable(q, identity_element(q))

    def test_element_of_another_quiver_rejected(self):
        # (1, 2, 1) is reduced on both quivers, and sortable on A2
        with pytest.raises(QuiverMismatchError):
            is_c_sortable(A2_LEFT, weyl_element(KRONECKER, (1, 2, 1)))

    def test_enumerate_a2(self):
        assert len(enumerate_c_sortable(A2_LEFT)) == 5

    @pytest.mark.parametrize("q", path_orientations(3))
    def test_enumerate_a3_all_orientations(self, q):
        assert len(enumerate_c_sortable(q)) == 14

    # the D4 orientation is 1 -> 4 -> 2 with 3 -> 4: the centre is neither sink nor source
    @pytest.mark.parametrize("q", [A2_LEFT, A3_MID_SINK, A3_321, d4_orientations()[5], A2_PLUS_A1])
    def test_enumeration_matches_filtering_whole_group(self, q):
        elements = [weyl_element(q, w) for w in group_elements_by_matrix(q).values()]
        expected = {w for w in elements if is_c_sortable(q, w)}
        assert set(enumerate_c_sortable(q)) == expected
        assert {w.matrix: w.word for w in enumerate_c_sortable(q)} == reference_sorting_words(q)

    @pytest.mark.parametrize(
        "q",
        [KRONECKER, Quiver(3, ((1, 2), (2, 3), (1, 3))), Quiver(3, ((1, 2), (1, 2), (3, 2)))],
        ids=["kronecker", "affine-A2", "wild"],
    )
    def test_bounded_enumeration_matches_filtering_off_dynkin(self, q):
        elements = [weyl_element(q, w) for w in group_elements_by_matrix(q, 6).values()]
        expected = {w for w in elements if is_c_sortable(q, w)}
        assert set(enumerate_c_sortable(q, 6)) == expected
        assert {w.matrix: w.word for w in enumerate_c_sortable(q, 6)} == reference_sorting_words(q, 6)

    def test_enumerated_elements_pass_the_recursive_test(self):
        for w in enumerate_c_sortable(A3_123):
            assert is_c_sortable(A3_123, w)

    def test_kronecker_requires_explicit_bound(self):
        with pytest.raises(UnsupportedScopeError):
            enumerate_c_sortable(KRONECKER)

    def test_kronecker_bounded_enumeration(self):
        # c = s2 s1; the c-sortable elements are s1 plus prefixes of (s2 s1)^k
        words = {w.word for w in enumerate_c_sortable(KRONECKER, 4)}
        assert words == {(), (1,), (2,), (2, 1), (2, 1, 2), (2, 1, 2, 1)}

    @pytest.mark.parametrize("q", [A3_123, KRONECKER], ids=["A3", "kronecker"])
    def test_negative_length_bound_is_an_invalid_parameter(self, q):
        with pytest.raises(InvalidParameterError):
            enumerate_c_sortable(q, -1)

    def test_guard_admits_a4_and_stops_a5(self, monkeypatch):
        monkeypatch.setattr(weyl, "SORTABLE_GUARD", 100)
        assert len(enumerate_c_sortable(path_orientations(4)[0])) == 42
        with pytest.raises(ResourceGuardError):
            enumerate_c_sortable(path_orientations(5)[0])

    def test_guard_stops_bounded_runs_off_dynkin_type(self, monkeypatch):
        wild = Quiver(3, ((1, 2), (1, 2), (2, 3), (2, 3)))
        count = len(enumerate_c_sortable(wild, 8))
        monkeypatch.setattr(weyl, "SORTABLE_GUARD", count - 1)
        with pytest.raises(ResourceGuardError):
            enumerate_c_sortable(wild, 8)

    def test_letter_guard_refuses_a_long_bound_before_any_packing(self, monkeypatch):
        def refused(*args):
            raise AssertionError("a packing was built")

        monkeypatch.setattr(weyl, "_packing", refused)
        with pytest.raises(ResourceGuardError):
            enumerate_c_sortable(KRONECKER, 10**9)

    def test_letter_guard_counts_held_letters(self, monkeypatch):
        # Kronecker to length 4 holds 0 + 1 + 1 + 2 + 3 + 4 = 11 letters,
        # one past the L(L+1)/2 = 10 that the bound alone refuses
        monkeypatch.setattr(weyl, "SORTABLE_LETTER_GUARD", 11)
        assert len(enumerate_c_sortable(KRONECKER, 4)) == 6
        monkeypatch.setattr(weyl, "SORTABLE_LETTER_GUARD", 10)
        with pytest.raises(ResourceGuardError):
            enumerate_c_sortable(KRONECKER, 4)


class TestReductionGuard:
    def test_guard_counts_each_pass_by_its_word(self, monkeypatch):
        # (1, 2, 2, 1) loses (2, 2) in its first pass and (1, 1) in its
        # second: 4 + 2 letters, and the empty word is walked uncounted
        monkeypatch.setattr(weyl, "REDUCE_LETTER_GUARD", 6)
        assert reduce_word(KRONECKER, (1, 2, 2, 1)) == ()
        monkeypatch.setattr(weyl, "REDUCE_LETTER_GUARD", 5)
        with pytest.raises(ResourceGuardError):
            reduce_word(KRONECKER, (1, 2, 2, 1))

    def test_a_pass_counts_the_letters_it_copies(self):
        # each pass walks two letters but rebuilds the whole word
        start = time.perf_counter()
        with pytest.raises(ResourceGuardError):
            reduce_word(E6_BIPARTITE, (1, 1) * 10**5)
        assert time.perf_counter() - start < 1.0

    def test_a_reduced_word_is_walked_once_uncounted(self, monkeypatch):
        word = KRONECKER.coxeter_word * 3000
        assert reduce_word(KRONECKER, word) == word
        monkeypatch.setattr(weyl, "REDUCE_LETTER_GUARD", 0)
        assert weyl_element(KRONECKER, word).word == word

    def test_a_cancelling_word_past_the_guard_is_refused(self):
        # 8,000 letters that cancel to the identity, one pair a pass
        c = KRONECKER.coxeter_word * 2000
        start = time.perf_counter()
        with pytest.raises(ResourceGuardError, match=str(weyl.REDUCE_LETTER_GUARD)):
            reduce_word(KRONECKER, c + c[::-1])
        assert time.perf_counter() - start < 1.0


# -- the column walk against dense matrix products ---------------------------

WALK_QUIVERS = {
    "A5": path_orientations(5)[0],
    "D5": Quiver(5, ((1, 2), (3, 2), (3, 4), (3, 5))),
    "E6": E6_BIPARTITE,
    "Kronecker": KRONECKER,
    "3-Kronecker": Quiver(2, ((1, 2),) * 3),
    "wild": Quiver(3, ((1, 2), (1, 2), (2, 3), (2, 3), (1, 3))),  # a_12 = a_23 = 2
}


def dense_walk(q, word):
    """(prefix roots, index of the first negative one or None, matrix) by
    dense products with the matrices of the simple reflections."""
    m = identity_matrix(q.n)
    roots, first_negative = [], None
    for k, letter in enumerate(word):
        root = tuple(row[letter - 1] for row in m)
        if first_negative is None and min(root) < 0:
            first_negative = k
        roots.append(root)
        m = mat_mul(m, simple_reflection_matrix(q, letter))
    return roots, first_negative, m


def dense_reduce(q, word):
    """Delete letter pairs by the deletion condition: when prefix root k is
    negative, its negation is the unique earlier prefix root t, and dropping
    letters t and k leaves the same element."""
    while True:
        roots, k, _ = dense_walk(q, word)
        if k is None:
            return word
        t = roots[:k].index(tuple(-x for x in roots[k]))
        word = word[:t] + word[t + 1 : k] + word[k + 1 :]


class TestColumnWalk:
    @pytest.mark.parametrize("q", WALK_QUIVERS.values(), ids=WALK_QUIVERS.keys())
    def test_random_words_match_dense_products(self, q):
        from quivrep.weyl import _prefix_roots

        rng = random.Random(20181)
        for _ in range(30):
            word = tuple(rng.randint(1, q.n) for _ in range(rng.randint(0, 40)))
            roots, first_negative, matrix = dense_walk(q, word)
            assert matrix_of_word(q, word) == matrix
            assert _prefix_roots(q, word) == (None if first_negative is not None else tuple(roots))
            reduced = dense_reduce(q, word)
            assert reduce_word(q, word) == reduced
            w = weyl_element(q, word)
            assert (w.word, w.matrix) == (reduced, matrix)
            assert _prefix_roots(q, reduced) == tuple(dense_walk(q, reduced)[0])

    @pytest.mark.parametrize("case", ["3-Kronecker", "wild", "T10"])
    def test_long_words_match_dense_reduction(self, case):
        # the first two walk past 2^64, so their codes, and the negated
        # prefix root that reduce_word looks up among them, are wider than
        # a machine integer; T_{2,3,7}'s roots grow slowly, its word is long
        rng = random.Random(2018)
        if case == "3-Kronecker":
            q = THREE_KRONECKER
            word = q.coxeter_word * 40 + (2, 1, 1) + (q.coxeter_word * 30)[::-1]
        else:
            q, copies, extra = (WALK_QUIVERS["wild"], 30, 60) if case == "wild" else (T10, 12, 120)
            word = q.coxeter_word * copies + tuple(rng.randint(1, q.n) for _ in range(extra))
        if case != "T10":
            assert weyl._width(q, len(word), word=word) > 64
        reduced = dense_reduce(q, word)
        assert len(reduced) < len(word)
        assert reduce_word(q, word) == reduced
        w = weyl_element(q, word)
        assert (w.word, w.matrix) == (reduced, dense_walk(q, word)[2])

    @pytest.mark.parametrize("q", [E6_BIPARTITE, KRONECKER], ids=["E6", "Kronecker"])
    def test_reduction_reflects_no_tuple(self, q, monkeypatch):
        # the deletion partner is found among the walk's own codes
        words = [q.coxeter_word * 3 + q.coxeter_word[::-1], (1, 1) + q.coxeter_word * 4 + (2, 2)]
        expected = [dense_reduce(q, word) for word in words]

        def refused(*args):
            raise AssertionError("simple_reflection called")

        monkeypatch.setattr(weyl, "simple_reflection", refused)
        for word, reduced in zip(words, expected):
            assert len(reduced) < len(word)
            assert reduce_word(q, word) == reduced == weyl_element(q, word).word

    @pytest.mark.parametrize("q", WALK_QUIVERS.values(), ids=WALK_QUIVERS.keys())
    def test_enumerated_matrices_match_dense_products(self, q):
        bound = None if dynkin_type(q).is_dynkin else 6
        for w in enumerate_c_sortable(q, bound):
            assert w.matrix == dense_walk(q, w.word)[2]
            assert all(type(x) is int for row in w.matrix for x in row)


def prefix_roots_by_reflections(q, word):
    """The prefix roots of ``word``: s_{i1} ... s_{i(k-1)} e_{ik}, each by
    the public simple_reflection applied right to left."""
    roots = []
    for k, letter in enumerate(word):
        v = unit_vector(q.n, letter)
        for earlier in reversed(word[:k]):
            v = simple_reflection(q, earlier, v)
        roots.append(v)
    return roots


def reference_longest_walk(q):
    """The c-sorting word of w_0 and its inversions in word order, by dense
    products: along c^oo, a letter retired once skipped, keep i when column
    i of the dense matrix of the word so far is nonnegative."""
    m = identity_matrix(q.n)
    word, roots, active = [], [], coxeter_of_quiver(q)
    while active:
        still = []
        for i in active:
            root = tuple(row[i - 1] for row in m)
            if min(root) >= 0:
                word.append(i)
                roots.append(root)
                still.append(i)
                m = mat_mul(m, simple_reflection_matrix(q, i))
        active = still
    return tuple(word), tuple(roots)


THREE_KRONECKER = Quiver(2, ((1, 2),) * 3)
E8_LINEAR = Quiver(8, ((1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (3, 8)))
T10 = Quiver(10, tuple((k, k + 1) for k in range(1, 9)) + ((3, 10),))  # the wild tree T_{2,3,7}
A2_AND_KRONECKER = Quiver(4, ((1, 2), (3, 4), (3, 4)))


class TestPackedCodes:
    """The walks keep each column as one int code; these check the codes
    against tuple arithmetic where the entries are large and where the
    walks are long."""

    def test_three_kronecker_past_two_to_the_64(self):
        q = THREE_KRONECKER
        elements = enumerate_c_sortable(q, 60)
        assert max(w.length for w in elements) == 60
        largest = 0
        for w in elements:
            matrix = matrix_of_word(q, w.word)
            assert w.matrix == matrix
            largest = max(largest, max(abs(x) for row in matrix for x in row))
            element, roots = c_sorting_element(q, w)
            assert (element.word, element.matrix) == (w.word, matrix)
            assert roots == frozenset(prefix_roots_by_reflections(q, w.word))
        assert largest > 2**64

    @pytest.mark.parametrize("q", [E8_LINEAR, path_orientations(10)[0]], ids=["E8", "A10-linear"])
    def test_longest_element_matches_dense_products(self, q):
        word, roots = weyl.longest_element(q)
        assert (word, roots) == reference_longest_walk(q)
        assert len(roots) == len(set(roots)) == q.dynkin.positive_root_count

    def test_width_covers_a_passed_root_set(self):
        # 1 -> 2 <- 3: c = s2 s1 s3.  At the walk's own width, 3 bits, the
        # code of (8, 0, 0) is that of e_2, the first letter's root, so a
        # width that ignored the root set would keep s2.
        q = A3_MID_SINK
        assert weyl._width(q, 1) == 3
        assert weyl._packing(q, 1, 8).width == 8
        assert weyl.sorting_element(q, {(8, 0, 0)}, 1).word == ()
        inversions = inversion_set(q, (2, 1)).root_set
        element = weyl.sorting_element(q, inversions | {(8, 0, 0)}, 3)
        assert element == weyl.sorting_element(q, inversions, 3) == weyl_element(q, (2, 1))

    def test_mixed_signs_are_never_a_column(self):
        # two arrows 2 -> 1: c = s1 s2.  At the width of a two-letter walk,
        # (1 - 2^W, 1) has e_1's code, and its entries fit that width
        q = Quiver(2, ((2, 1), (2, 1)))
        width = weyl._packing(q, 2).width
        mixed = (1 - 2**width, 1)
        assert weyl._packing(q, 2, 2**width - 1).width == width
        assert weyl.sorting_element(q, {mixed}, 2).word == ()
        assert weyl.sorting_element(q, {(1, 0)}, 2).word == (1,)

    @pytest.mark.parametrize("width", [3, 8, 16, 32, 64, 65])
    def test_codes_decode_at_every_width(self, width):
        pack = weyl._Packing(T10, width)
        top = 2**width - 1
        for v in [(0,) * 10, tuple(min(j, top) for j in range(10)), (top,) + (0,) * 8 + (top,), (top,) * 10]:
            for w in (v, tuple(-x for x in v)):
                code = pack.encode(w)
                assert pack[code] == w and type(pack[code][0]) is int
                assert pack.codes[w] == code

    @pytest.mark.parametrize(
        "q", [KRONECKER, THREE_KRONECKER, T10, A2_AND_KRONECKER], ids=["Kronecker", "3-Kronecker", "T10", "A2+Kronecker"]
    )
    def test_height_bound_is_the_largest_column_height(self, q):
        # every column of every prefix product up to the first negative
        # prefix root, by the public simple_reflection: the bound is the
        # largest |column sum| among them, and no entry passes it
        rng = random.Random(7)
        for _ in range(60):
            word = tuple(rng.randrange(1, q.n + 1) for _ in range(rng.randrange(0, 14)))
            first_negative = dense_walk(q, word)[1]
            stop = len(word) if first_negative is None else first_negative
            columns = [col for k in range(stop + 1) for col in zip(*matrix_of_word(q, word[:k]))]
            bound = weyl._height_bound(q, word)
            assert bound == max(abs(sum(col)) for col in columns)
            assert max(abs(x) for col in columns for x in col) <= bound

    def test_height_bound_keeps_a_height_that_shrinks(self):
        # on the A2 component s1 s2 s1 takes column 2 through e1 + e2 to
        # -e1, so the largest height is not among the last columns
        q = A2_AND_KRONECKER
        assert max(abs(sum(col)) for col in zip(*matrix_of_word(q, (1, 2, 1)))) == 1
        assert weyl._height_bound(q, (1, 2, 1)) == 2

    def test_a_walk_along_a_word_is_as_wide_as_its_heights(self):
        # Kronecker roots grow linearly along c^k, so the width grows as
        # log k, where (1 + m)^L would take 1.58 bits a letter
        q, word = KRONECKER, KRONECKER.coxeter_word * 200
        assert weyl._height_bound(q, word) == 801
        assert weyl._width(q, len(word), word=word) == 16
        assert weyl._width(q, len(word)) == 634
        w = weyl_element(q, word)
        assert w.matrix == matrix_of_word(q, word)
        assert inversion_set(q, word).roots == tuple(prefix_roots_by_reflections(q, word))

    def test_sorting_element_with_some_roots_decoded(self):
        # a fresh E6 quiver object has a fresh kept packing: a short walk
        # decodes a few columns, and the inversions of w_0, found on another
        # object, are then partly looked up, partly encoded
        q = Quiver(E6_BIPARTITE.n, E6_BIPARTITE.arrows)
        weyl_element(q, q.coxeter_word[:2])
        word, roots = weyl.longest_element(Quiver(q.n, q.arrows))
        decoded = q.derived["packing"].codes
        assert 0 < sum(r in decoded for r in roots) < len(roots)
        element = weyl.sorting_element(q, set(roots), len(roots))
        assert (element.word, element.matrix) == (word, matrix_of_word(q, word))

    def test_no_packing_outlives_a_walk_off_dynkin(self):
        # each walk of reduce_word's loop is shorter than the last, so off
        # Dynkin type each has its own width; none of them is kept
        q = T10
        assert not q.is_dynkin
        word = (1, 1) * 20 + q.coxeter_word * 3 + (5, 5) * 10
        before = live_packings()
        assert reduce_word(q, word) == q.coxeter_word * 3
        assert weyl_element(q, word).word == q.coxeter_word * 3
        assert len(enumerate_c_sortable(q, 12)) > 1
        assert live_packings() == before
        assert "packing" not in q.derived

    def test_one_bounded_packing_per_dynkin_quiver(self):
        q = Quiver(E6_BIPARTITE.n, E6_BIPARTITE.arrows)  # a fresh object, so a fresh packing
        before = live_packings()
        for k in range(1, 13):
            reduce_word(q, q.coxeter_word * k)
        enumerate_c_sortable(q)
        weyl.longest_element(q)
        assert live_packings() == before + 1
        assert len(q.derived["packing"]) <= 2 * q.dynkin.positive_root_count


def test_weyl_computations_do_not_pin_the_quiver():
    def build():
        # arrows in an order no shared quiver constant uses
        q = Quiver(4, ((3, 4), (3, 2), (1, 2)))
        w = weyl_element(q, (2, 1, 3, 2))
        assert len(inversion_set(q, w.word)) == w.length
        is_c_sortable(q, w)
        assert isinstance(q.derived["packing"], weyl._Packing)
        assert live_packings() == before + 1
        return weakref.ref(q)

    before = live_packings()
    quiver = build()
    gc.collect()
    assert quiver() is None
    assert live_packings() == before
