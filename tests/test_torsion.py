import dataclasses
import gc
import hashlib
import itertools
import random
import time
import weakref
from fractions import Fraction
from math import prod

import pytest

from quivrep import linrep, torsion, weyl
from quivrep.errors import (
    DimensionMismatchError,
    InconclusiveError,
    InternalInvariantError,
    NotSortableError,
    NotTorsionFreeError,
    QuiverMismatchError,
    ResourceGuardError,
    UnsupportedScopeError,
)
from quivrep.linalg import bits
from quivrep.linrep import (
    F2,
    F3,
    DynkinCategory,
    all_indecomposables,
    decompose,
    direct_sum,
    dynkin_category,
    enumerate_subreps,
)
from quivrep.quiver import DynkinType, Quiver, dynkin_graph, orientations, unit_vector
from quivrep.roots import POSITIVE_ROOT_GUARD, positive_real_roots
from quivrep.torsion import (
    TorsionFreeClass,
    _class_masks,
    enumerate_tfc,
    is_torsion_free_class,
    sortable_of_tfc,
    tfc_from_json,
    tfc_of_sortable,
    tfc_to_json,
    verify_bijection,
)
from quivrep.weyl import (
    WeylElement,
    c_sorting_element,
    enumerate_c_sortable,
    identity_element,
    inversion_set,
    is_c_sortable,
    sorting_element,
    weyl_element,
)

from conftest import (
    A2_LEFT,
    A2_PLUS_A1,
    A3_123,
    A3_321,
    A3_MID_SINK,
    D5_BIPARTITE,
    E6_BIPARTITE,
    E7_ZIGZAG,
    E8_ZIGZAG,
    KRONECKER,
    d4_orientations,
    group_elements_by_matrix,
    identity_matrix,
    linear,
    live_packings,
    mat_mul,
    path_orientations,
    reference_class_masks,
    reference_sorting_word,
    simple_reflection_matrix,
)

E1, E2, E12 = (1, 0), (0, 1), (1, 1)


def tfc(q, roots, field=F2):
    return TorsionFreeClass(q, field, frozenset(roots))


def d_path(n):
    """D_n: the path 1 -> ... -> n-1, with n-2 -> n."""
    return Quiver(*dynkin_graph(f"D{n}"))


class TestTfcOfSortable:
    def test_two_vertex_table_row(self):
        w = weyl_element(A2_LEFT, (1, 2))
        assert tfc_of_sortable(A2_LEFT, w).indec_roots == {E1, E12}

    def test_identity_gives_empty_class(self):
        assert tfc_of_sortable(A2_LEFT, identity_element(A2_LEFT)).indec_roots == frozenset()

    def test_longest_element_gives_everything(self):
        w = weyl_element(A2_LEFT, (1, 2, 1))
        assert tfc_of_sortable(A2_LEFT, w).indec_roots == {E1, E2, E12}

    def test_non_sortable_rejected(self):
        with pytest.raises(NotSortableError):
            tfc_of_sortable(A2_LEFT, weyl_element(A2_LEFT, (2, 1)))

    def test_size_is_length(self):
        for w in enumerate_c_sortable(A3_123):
            assert len(tfc_of_sortable(A3_123, w)) == w.length

    def test_element_of_another_quiver_rejected(self):
        # (1, 2, 1) is reduced on both quivers, and sortable on A2
        with pytest.raises(QuiverMismatchError):
            tfc_of_sortable(A2_LEFT, weyl_element(KRONECKER, (1, 2, 1)))


class TestSortableOfTfc:
    def test_single_simple(self):
        assert sortable_of_tfc(A2_LEFT, tfc(A2_LEFT, {E2})).word == (2,)

    def test_empty_class(self):
        assert sortable_of_tfc(A2_LEFT, tfc(A2_LEFT, set())) == identity_element(A2_LEFT)

    def test_full_class(self):
        assert sortable_of_tfc(A2_LEFT, tfc(A2_LEFT, {E1, E2, E12})).word == (1, 2, 1)

    def test_class_of_another_quiver_rejected(self):
        with pytest.raises(QuiverMismatchError):
            sortable_of_tfc(A2_LEFT, tfc(KRONECKER, {E2}))

    def test_membership_reads_the_roots(self):
        c = tfc(A2_LEFT, {E2, E12})
        assert E12 in c and E2 in c
        assert E1 not in c and (2, 0) not in c

    def test_checked_mode_rejects_non_closed_set(self):
        with pytest.raises(NotTorsionFreeError):
            sortable_of_tfc(A2_LEFT, tfc(A2_LEFT, {E12}))

    def test_non_root_member_rejected_at_construction(self):
        with pytest.raises(NotTorsionFreeError):
            tfc(A2_LEFT, {(2, 0)})

    @pytest.mark.parametrize("q", path_orientations(3))
    def test_unchecked_mode_raises_on_every_non_closed_set(self, q):
        roots = positive_real_roots(q).roots
        non_closed = [
            tfc(q, subset)
            for size in range(len(roots) + 1)
            for subset in itertools.combinations(roots, size)
            if not is_torsion_free_class(q, tfc(q, subset))
        ]
        assert len(non_closed) == 50
        for c in non_closed:
            with pytest.raises(NotTorsionFreeError):
                sortable_of_tfc(q, c)


class TestMemberValidation:
    """Every member of every class is checked: by a lookup in the category's
    root index on Dynkin type, by the root test elsewhere."""

    @pytest.mark.parametrize(
        "q,root",
        [(A3_123, (2, 0, 0)), (A3_123, (1, 0, 1)), (KRONECKER, (1, 1)), (KRONECKER, (2, 0))],
        ids=["A3-double-simple", "A3-disconnected", "kronecker-imaginary", "kronecker-double-simple"],
    )
    def test_non_root_member_raises(self, q, root):
        with pytest.raises(NotTorsionFreeError):
            tfc(q, {unit_vector(q.n, 1), root})

    def test_non_root_member_raises_through_json(self):
        data = tfc_to_json(tfc(A3_123, {(1, 0, 0)}))
        data["roots"].append([2, 0, 0])
        with pytest.raises(NotTorsionFreeError):
            tfc_from_json(data)

    def test_wrong_length_member_raises_a_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            tfc(A3_123, {(1, 0)})

    def test_kronecker_real_roots_are_members(self):
        assert len(tfc(KRONECKER, {(1, 0), (2, 1), (3, 2)})) == 3

    def test_a_member_too_high_to_classify_is_inconclusive(self):
        start = time.perf_counter()
        with pytest.raises(InconclusiveError):
            tfc(KRONECKER, {(1, 0), (10**30, 10**30 + 1)})
        assert time.perf_counter() - start < 1.0

    def test_dynkin_members_are_looked_up(self, monkeypatch):
        q = E6_BIPARTITE
        sortables = enumerate_c_sortable(q)
        tests = []
        real_test = torsion.is_positive_real_root
        monkeypatch.setattr(torsion, "is_positive_real_root", lambda *args: tests.append(args) or real_test(*args))
        for w in sortables:
            tfc_of_sortable(q, w)
        assert tests == []
        with pytest.raises(NotTorsionFreeError):
            tfc(q, {(1, 0, 1, 0, 0, 0)})
        assert len(tests) == 1

    def test_members_are_the_category_root_tuples(self):
        q = E6_BIPARTITE
        searched = enumerate_tfc(q)
        classes = searched + [tfc_of_sortable(q, w) for w in enumerate_c_sortable(q)]
        classes += [tfc_from_json(tfc_to_json(c)) for c in searched]
        assert len(classes) == 3 * 833
        for c in classes:
            cat = dynkin_category(c.quiver, c.field)
            assert all(r is cat.roots[cat.index[r]] for r in c.indec_roots)

    @pytest.mark.parametrize("field", [F2, F3])
    def test_the_constructor_builds_no_category(self, field, monkeypatch):
        # members are looked up in the quiver's root record, and kept as
        # its tuples; no category of any field is built
        def refuse(*args):
            raise AssertionError("a category was built")

        monkeypatch.setattr(linrep, "DynkinCategory", refuse)
        q = Quiver(E6_BIPARTITE.n, E6_BIPARTITE.arrows)  # a fresh object, so nothing is kept for it
        record = weyl.dynkin_roots(q)
        given = frozenset(tuple(list(r)) for r in record.roots[::3])  # equal tuples, other objects
        c = TorsionFreeClass(q, field, given)
        assert c.indec_roots == given and len(c) == 12
        assert all(r is record.roots[record.index[r]] for r in c.indec_roots)
        assert field not in q.derived

    @pytest.mark.parametrize("field", [F2, F3])
    @pytest.mark.parametrize("q", [E6_BIPARTITE, D5_BIPARTITE], ids=["E6", "D5"])
    def test_walk_built_classes_equal_checked_ones(self, q, field):
        # tfc_of_sortable keeps the walk's roots unchecked; the constructor
        # checks each one and must build the same class
        for w in enumerate_c_sortable(q):
            built = tfc_of_sortable(q, w, field)
            checked = TorsionFreeClass(q, field, built.indec_roots)
            assert built == checked and hash(built) == hash(checked)
            assert built.sorting_element.word == sortable_of_tfc(q, checked).word == w.word

    def test_kronecker_walk_built_classes_test_no_root(self, monkeypatch):
        tests = []
        real_test = torsion.is_positive_real_root
        monkeypatch.setattr(torsion, "is_positive_real_root", lambda *args: tests.append(args) or real_test(*args))
        sortables = enumerate_c_sortable(KRONECKER, 8)
        built = [tfc_of_sortable(KRONECKER, w) for w in sortables]
        assert tests == []
        for w, c in zip(sortables, built):
            assert TorsionFreeClass(KRONECKER, F2, c.indec_roots) == c
            assert len(tests) == len(c) == w.length
            del tests[:]

    def test_linear_a46_past_the_root_guard(self):
        q = linear(46)
        assert q.dynkin.positive_root_count > POSITIVE_ROOT_GUARD
        e1 = unit_vector(46, 1)
        assert tfc(q, {e1}).indec_roots == {e1}
        assert tfc_of_sortable(q, weyl_element(q, (1,))).indec_roots == {e1}
        with pytest.raises(NotTorsionFreeError):
            tfc(q, {e1, tuple(2 * x for x in e1)})

    def test_linear_a46_lists_on_the_heights_past_the_root_guard(self, monkeypatch):
        # no root record exists here, so the listing keeps no mask and its
        # elements take the decision
        q = linear(46)
        records = []
        real_record = weyl.dynkin_roots
        monkeypatch.setattr(weyl, "dynkin_roots", lambda *args: records.append(args) or real_record(*args))
        sortables = enumerate_c_sortable(q, 2)
        assert len(sortables) == 1082 and records == []
        assert all(w.inversion_mask is None for w in sortables)
        for w in sortables[::97] + sortables[-1:]:
            element, roots = c_sorting_element(q, w)
            assert element.word == w.word and roots == inversion_set(q, w.word).root_set
        assert records == [] and "roots" not in q.derived


CLASS_QUIVERS = [q for n in range(1, 5) for q in path_orientations(n)] + d4_orientations() + [E6_BIPARTITE]


class TestSortingElement:
    """A class holds the element its c-sorting walk spells, and both
    directions of the round trip read it."""

    @pytest.mark.parametrize("q", CLASS_QUIVERS)
    def test_element_is_the_element_of_its_word(self, q):
        for c in enumerate_tfc(q):
            w = sortable_of_tfc(q, c)
            built = weyl_element(q, w.word)
            assert (w.word, w.matrix) == (built.word, built.matrix)

    def test_non_class_raises_on_every_call(self):
        c = tfc(A2_LEFT, {E12})
        for _ in range(3):
            with pytest.raises(NotTorsionFreeError):
                sortable_of_tfc(A2_LEFT, c)

    def test_non_sortable_raises_on_every_call(self):
        w = weyl_element(A3_123, (1, 2))
        for _ in range(3):
            with pytest.raises(NotSortableError):
                tfc_of_sortable(A3_123, w)

    def test_one_sorting_walk_per_round_trip(self, monkeypatch):
        # one entry per walk: the letters a word walk multiplies out, or a group walk;
        # a listed element takes none, the same word built fresh the decision's one
        walks = []
        real_walk, real_group_walk = weyl._walk, weyl._sorting_walk
        q = E6_BIPARTITE
        sortables = enumerate_c_sortable(q)
        monkeypatch.setattr(weyl, "_walk", lambda *args: walks.append(len(args[1])) or real_walk(*args))
        monkeypatch.setattr(weyl, "_sorting_walk", lambda *args: walks.append("group") or real_group_walk(*args))
        for w in sortables:
            del walks[:]
            assert sortable_of_tfc(q, tfc_of_sortable(q, w)) == w
            assert walks == []
            fresh = WeylElement(q, w.word)
            assert sortable_of_tfc(q, tfc_of_sortable(q, fresh)) == fresh
            assert walks == [w.length]


def one_move_away(q, word):
    """Another reduced word for the element of the reduced ``word``, one
    commutation move (s_i s_j = s_j s_i, i and j not joined) or braid move
    (s_i s_j s_i = s_j s_i s_j, i and j joined by one edge) from it; None
    when neither applies, and then ``word`` is the element's only reduced
    word (Matsumoto)."""
    edges = {frozenset(a) for a in q.arrows}
    multiplicity = {e: sum(frozenset(a) == e for a in q.arrows) for e in edges}
    for k in range(len(word) - 1):
        i, j = word[k : k + 2]
        if i != j and frozenset((i, j)) not in edges:
            return word[:k] + (j, i) + word[k + 2 :]
    for k in range(len(word) - 2):
        i, j, l = word[k : k + 3]
        if i == l and multiplicity.get(frozenset((i, j))) == 1:
            return word[:k] + (j, i, j) + word[k + 3 :]
    return None


SMALL_CLASS_QUIVERS = CLASS_QUIVERS[:-1]


@pytest.fixture
def walks(monkeypatch):
    """The words weyl._walk multiplies out from here on, in call order."""
    seen = []
    real_walk = weyl._walk

    def counting_walk(*args, **kwargs):
        seen.append(args[1])
        return real_walk(*args, **kwargs)

    monkeypatch.setattr(weyl, "_walk", counting_walk)
    return seen


class TestCertifiedWalk:
    """weyl.c_sorting_element walks every word once, for its inversions,
    certifies a word that is its element's c-sorting word on its letters
    alone (weyl._nested), and decides every other word by the inversion
    set: the same roots, the same c-sorting word back, the same sortability
    decision."""

    @pytest.mark.parametrize("q", SMALL_CLASS_QUIVERS)
    def test_another_reduced_word_takes_the_fallback(self, q, walks):
        moved = 0
        for c in enumerate_tfc(q):
            w = sortable_of_tfc(q, c)
            word = one_move_away(q, w.word)
            if word is None:
                continue
            other = weyl_element(q, word)
            assert other == w and other.word == word != w.word
            before = len(walks)
            back = tfc_of_sortable(q, other)
            assert len(walks) == before + 1  # the decision's one walk
            assert back.indec_roots == c.indec_roots
            assert sortable_of_tfc(q, back).word == w.word
            moved += 1
        assert moved or q.n == 1

    @pytest.mark.parametrize("q", SMALL_CLASS_QUIVERS + [KRONECKER])
    def test_sortability_decision_matches_the_reference(self, q, walks):
        # the whole group, off Dynkin type up to length 6; each element by a
        # shortest word from the search and by a word one move from it
        elements = group_elements_by_matrix(q, 6 if q is KRONECKER else None)
        lengths = {m: len(word) for m, word in elements.items()}
        decided = {True: 0, False: 0}
        if q is not KRONECKER:
            classes, cat = _class_masks(q, F2), dynkin_category(q, F2)
        for matrix, found in elements.items():
            expected = reference_sorting_word(q, matrix, lengths)
            if q is not KRONECKER:
                # the theorem the verifier's image check rests on: Inv(w) is a
                # class exactly when w is c-sortable
                inversions = sum(1 << cat.index[r] for r in inversion_set(q, found))
                assert (inversions in classes) == (expected is not None)
            for word in {found, one_move_away(q, found) or found}:
                w = weyl_element(q, word)
                decided[expected is not None] += 1
                assert is_c_sortable(q, w) == (expected is not None)
                if expected is None:
                    for _ in range(2):
                        with pytest.raises(NotSortableError):
                            tfc_of_sortable(q, w)
                    continue
                before = len(walks)
                c = tfc_of_sortable(q, w)
                # one _walk, certified or not
                assert len(walks) == before + 1
                assert c.indec_roots == inversion_set(q, word).root_set
                assert sortable_of_tfc(q, c).word == expected
        assert decided[True] and (decided[False] or q.n == 1)

    @pytest.mark.parametrize(
        "q,max_length,count",
        [(q, None, 66) for q in path_orientations(3)]
        + [(linear(4), None, 3061), (Quiver(4, ((1, 2), (3, 2), (3, 4))), None, 3061)]
        + [(d4_orientations()[5], None, 9719), (KRONECKER, 8, 17)],
        ids=[f"A3-{k}" for k in range(4)] + ["A4-linear", "A4-bipartite", "D4", "kronecker"],
    )
    def test_nested_letters_hold_exactly_on_the_c_sorting_word(self, q, max_length, count):
        # the lemma the certificate rests on, over every reduced word of
        # every element (off Dynkin type up to max_length): _nested takes
        # all of a reduced word exactly when it is its element's c-sorting
        # word, and the element is c-sortable
        elements = group_elements_by_matrix(q, max_length)
        lengths = {m: len(word) for m, word in elements.items()}
        expected = {m: reference_sorting_word(q, m, lengths) for m in elements}
        gens = [simple_reflection_matrix(q, i) for i in range(1, q.n + 1)]
        stack, words = [((), identity_matrix(q.n))], 0
        while stack:
            word, m = stack.pop()
            assert weyl._nested(q.coxeter_word, word) == (word == expected[m])
            words += 1
            for i, g in enumerate(gens, 1):
                if lengths.get(longer := mat_mul(m, g)) == len(word) + 1:
                    stack.append((word + (i,), longer))
        assert words == count

    def test_enumerated_sortables_are_multiplied_out_once(self, walks):
        # the decision's walk is the only product taken: no inversion_set,
        # no reduce, one _walk per decision, in the round trip and in
        # is_c_sortable alike; a listed element, which keeps its walk's
        # inversions, takes none
        q = E6_BIPARTITE
        sortables = enumerate_c_sortable(q)
        for w in sortables:
            assert sortable_of_tfc(q, tfc_of_sortable(q, w)) == w
            assert is_c_sortable(q, w)
        assert walks == []
        for w in sortables:
            fresh = WeylElement(q, w.word)
            assert sortable_of_tfc(q, tfc_of_sortable(q, fresh)) == fresh
            assert is_c_sortable(q, fresh)
        assert walks == [w.word for w in sortables for _ in range(2)]
        del walks[:]
        tfc_of_sortable(q, weyl_element(q, one_move_away(q, sortables[-1].word)))
        assert len(walks) == 2  # weyl_element, then the decision's walk


BATCH_QUIVERS = [E7_ZIGZAG] + path_orientations(4) + d4_orientations()


class TestBatchedWalks:
    """weyl.sortable_masks and weyl.sorting_words, the verifier's batched
    walks, against the per-element inversion_set, enumerate_c_sortable and
    sorting_element: the same masks and the same words."""

    @pytest.mark.parametrize(
        "q", BATCH_QUIVERS, ids=["E7-zigzag"] + [f"A4-{k}" for k in range(8)] + [f"D4-{k}" for k in range(8)]
    )
    def test_both_ways_agree(self, q):
        record = weyl.dynkin_roots(q)
        sortables = [w.word for w in enumerate_c_sortable(q)]
        leaves = list(weyl.sortable_masks(q))
        for word, mask in leaves:
            assert mask == sum(1 << record.index[r] for r in inversion_set(q, word))
        assert sorted((word for word, _ in leaves), key=lambda word: (len(word), word)) == sortables
        images = [sum(1 << record.index[r] for r in inversion_set(q, word)) for word in sortables]
        walked = list(weyl.sorting_words(q, images))
        assert sorted(walked) == sorted(zip(images, sortables))
        for mask, word in walked:
            assert sorting_element(q, [record.roots[k] for k in bits(mask)]).word == word

    def test_a_root_missing_from_the_map_adds_no_bit(self):
        # a fresh quiver object holds a record whose bit_of lacks the code
        # of its first root: the leaves come out short, and the verifier
        # on that object fails its image check
        q = Quiver(E6_BIPARTITE.n, E6_BIPARTITE.arrows)
        record = weyl.dynkin_roots(Quiver(q.n, q.arrows))
        missing = next(code for code, bit in record.bit_of.items() if bit == 1)
        bit_of = {code: bit for code, bit in record.bit_of.items() if code != missing}
        q.derived["roots"] = record._replace(bit_of=bit_of)
        short = 0
        for word, mask in weyl.sortable_masks(q):
            full = sum(1 << record.index[r] for r in inversion_set(q, word))
            assert mask == full & ~1
            short += mask.bit_count() < len(word)
        assert short > 0
        report = verify_bijection(q)
        assert not report.image_in_classes and not report.passed


class TestListedInversions:
    """enumerate_c_sortable keeps each leaf's inversion mask on a quiver
    with a root record, and c_sorting_element answers from it: the same
    word, roots and class as the decision on the same word built fresh."""

    @pytest.mark.parametrize("bound", [None, 5], ids=["full", "bound-5"])
    @pytest.mark.parametrize(
        "q",
        [E6_BIPARTITE] + BATCH_QUIVERS,
        ids=["E6-bipartite", "E7-zigzag"] + [f"A4-{k}" for k in range(8)] + [f"D4-{k}" for k in range(8)],
    )
    def test_the_kept_answer_is_the_decision(self, q, bound):
        twin = Quiver(q.n, q.arrows)
        sortables = enumerate_c_sortable(q, bound)
        assert all(w.inversion_mask is not None for w in sortables)
        for w in sortables:
            for on in (q, twin):
                element, roots = c_sorting_element(on, w)
                decided, decided_roots = c_sorting_element(on, WeylElement(on, w.word))
                assert element.word == decided.word == w.word and roots == decided_roots
                assert tfc_of_sortable(on, w) == TorsionFreeClass(on, F2, roots)

    def test_the_mask_stays_outside_equality_and_json(self):
        w = enumerate_c_sortable(A3_123)[-1]
        fresh = WeylElement(A3_123, w.word)
        assert w.inversion_mask == (1 << 6) - 1 and fresh.inversion_mask is None
        assert w == fresh and hash(w) == hash(fresh) and repr(w) == repr(fresh)
        assert weyl.element_to_json(w) == weyl.element_to_json(fresh)

    def test_a_listed_element_on_another_quiver_is_refused(self):
        w = enumerate_c_sortable(A3_123)[-1]
        for call in (c_sorting_element, is_c_sortable, tfc_of_sortable):
            with pytest.raises(QuiverMismatchError):
                call(A3_321, w)

    def test_a_mask_short_of_its_word_takes_the_decision(self):
        # a record whose bit_of lacks a root's code, as in
        # test_a_root_missing_from_the_map_adds_no_bit: the listed masks
        # come out short, and those elements are decided on their words
        q = Quiver(E6_BIPARTITE.n, E6_BIPARTITE.arrows)
        record = weyl.dynkin_roots(Quiver(q.n, q.arrows))
        q.derived["roots"] = record._replace(bit_of={code: bit for code, bit in record.bit_of.items() if bit != 1})
        short = [w for w in enumerate_c_sortable(q) if w.inversion_mask.bit_count() < w.length]
        assert short
        for w in short:
            element, roots = c_sorting_element(q, w)
            assert element.word == w.word and roots == inversion_set(q, w.word).root_set

    def test_kronecker_elements_carry_no_mask(self):
        sortables = enumerate_c_sortable(KRONECKER, 8)
        assert len(sortables) == 10 and all(w.inversion_mask is None for w in sortables)
        assert "roots" not in KRONECKER.derived


class TestSortingWords:
    """The words sortable_of_tfc prints are pinned byte for byte: another
    reduced word for the same element would change `quivrep tfc to-word`.
    They are c-sorting words, leftmost subwords of c^oo: on A3 with c = 123,
    the longest element is 123|12|1."""

    @pytest.mark.parametrize(
        "q,roots,word",
        [
            (A3_321, {(1, 0, 0), (0, 1, 0), (1, 1, 0), (1, 1, 1)}, (1, 2, 3, 1)),
            (A3_321, positive_real_roots(A3_321).roots, (1, 2, 3, 1, 2, 1)),
            (A2_PLUS_A1, positive_real_roots(A2_PLUS_A1).roots, (1, 2, 3, 1)),
        ],
        ids=["A3-321-four-roots", "A3-321-full", "A2+A1-full"],
    )
    def test_literal_words(self, q, roots, word):
        assert sortable_of_tfc(q, tfc(q, roots)).word == word

    def test_digest_of_every_word_on_a1_to_a4_and_d4(self):
        digest = hashlib.sha256()
        count = 0
        for q in [q for n in range(1, 5) for q in path_orientations(n)] + d4_orientations():
            for w in enumerate_c_sortable(q):
                word = sortable_of_tfc(q, tfc_of_sortable(q, w)).word
                digest.update(f"{q.arrows} {word}\n".encode())
                count += 1
        assert count == 804
        assert digest.hexdigest() == "24d273374ee02da2a4e40d49836c083430c39c49cb0527eb2319121ee60e59b4"

    @pytest.mark.parametrize(
        "q",
        [q for n in range(1, 6) for q in path_orientations(n)]
        + d4_orientations()
        + orientations(*dynkin_graph("D5"))
        + [E6_BIPARTITE],
    )
    def test_round_trip_keeps_the_enumerated_word(self, q):
        for w in enumerate_c_sortable(q):
            assert sortable_of_tfc(q, tfc_of_sortable(q, w)).word == w.word


class TestOracle:
    def test_simple_at_sink_is_closed(self):
        assert is_torsion_free_class(A2_LEFT, tfc(A2_LEFT, {E2}))

    def test_class_of_another_quiver_rejected(self):
        with pytest.raises(QuiverMismatchError):
            is_torsion_free_class(A2_LEFT, tfc(KRONECKER, {E2}))

    def test_projective_alone_fails_subrep_leg(self):
        # S1 is a subrepresentation of P2 but e1 is not a member
        assert not is_torsion_free_class(A2_LEFT, tfc(A2_LEFT, {E12}))

    def test_both_simples_fail_extension_leg(self):
        # P2 is a middle term of S2 by S1 but e1+e2 is not a member
        assert not is_torsion_free_class(A2_LEFT, tfc(A2_LEFT, {E1, E2}))

    @pytest.mark.parametrize("field", [F2, F3])
    def test_matches_table_on_two_vertices(self, field):
        expected_members = [
            set(),
            {E1},
            {E2},
            {E1, E12},
            {E1, E2, E12},
        ]
        all_subsets = [
            set(c)
            for size in range(4)
            for c in itertools.combinations([E1, E2, E12], size)
        ]
        for subset in all_subsets:
            verdict = is_torsion_free_class(A2_LEFT, tfc(A2_LEFT, subset, field))
            assert verdict == (subset in expected_members)


class TestEnumerate:
    def test_two_vertex_quiver_has_five_classes(self):
        classes = enumerate_tfc(A2_LEFT)
        assert len(classes) == 5
        assert [c.sorted_roots for c in classes] == [
            (),
            ((0, 1),),
            ((1, 0),),
            ((1, 0), (1, 1)),
            ((0, 1), (1, 0), (1, 1)),
        ]

    def test_single_vertex(self):
        q = Quiver(1)
        classes = enumerate_tfc(q)
        assert [c.sorted_roots for c in classes] == [(), ((1,),)]

    @pytest.mark.parametrize("q", path_orientations(3))
    def test_a3_has_fourteen_classes(self, q):
        assert len(enumerate_tfc(q)) == 14

    def test_non_dynkin_rejected(self):
        with pytest.raises(UnsupportedScopeError):
            enumerate_tfc(KRONECKER)

    @pytest.mark.parametrize("q", path_orientations(3) + d4_orientations()[:1] + path_orientations(4))
    def test_closure_search_matches_exhaustive_oracle_scan(self, q):
        roots = positive_real_roots(q).roots
        accepted = {
            frozenset(subset)
            for size in range(len(roots) + 1)
            for subset in itertools.combinations(roots, size)
            if is_torsion_free_class(q, tfc(q, subset))
        }
        assert {c.indec_roots for c in enumerate_tfc(q)} == accepted

    @pytest.mark.parametrize(
        "q",
        [q for n in range(1, 6) for q in path_orientations(n)]
        + d4_orientations()
        + orientations(*dynkin_graph("D5"))
        + [E6_BIPARTITE],
    )
    def test_subrep_minimal_search_matches_the_unpruned_search(self, q):
        """The torsion-pair search against the subrep-minimal closure search
        (reference_class_masks), over the same category tables."""
        masks = _class_masks(q, F2)
        assert masks == reference_class_masks(dynkin_category(q, F2))

    @pytest.mark.parametrize(
        "q, field",
        [
            pytest.param(E7_ZIGZAG, F2, id="E7-F2"),
            pytest.param(D5_BIPARTITE, F3, id="D5-F3"),
            pytest.param(E6_BIPARTITE, F3, id="E6-F3"),
            pytest.param(E8_ZIGZAG, F2, id="E8-F2", marks=pytest.mark.slow),
        ],
    )
    def test_torsion_pair_search_matches_the_closure_search(self, q, field):
        masks = _class_masks(q, field)
        assert len(masks) == q.dynkin.coxeter_catalan
        assert masks == reference_class_masks(dynkin_category(q, field))

    @pytest.mark.parametrize(
        "q",
        path_orientations(3)
        + path_orientations(4)
        + d4_orientations()
        + [Quiver(1), A2_LEFT, linear(5), D5_BIPARTITE, E6_BIPARTITE],
    )
    def test_a_class_less_its_last_root_in_word_order_is_a_class(self, q):
        """Why only the empty class is checked in full (_class_masks): every
        nonempty class less its last root in word order (hom_order) is a
        class.  Less its first root instead, most are not."""
        masks, cat = _class_masks(q, F2), dynkin_category(q, F2)
        position = {b: k for k, b in enumerate(cat.hom_order)}
        for mask in masks - {0}:
            last = max(bits(mask), key=position.__getitem__)
            assert mask & ~(1 << last) in masks, (q, mask)

    @pytest.mark.parametrize(
        "q", [q for n in range(1, 5) for q in path_orientations(n)] + d4_orientations() + [D5_BIPARTITE]
    )
    def test_a_check_since_a_closed_subset_is_the_full_check(self, q):
        """For every class s and every mask m of s and one more root, the
        check of m's roots outside s answers as the check of all of m."""
        masks, cat = _class_masks(q, F2), dynkin_category(q, F2)
        for s in masks:
            for k in range(len(cat.roots)):
                m = s | 1 << k
                assert torsion._closed(cat, m, s) == torsion._closed(cat, m), (s, k)

    @pytest.mark.parametrize("leg", ["subrep_masks", "extension_masks"])
    def test_a_planted_leg_bit_is_caught(self, leg, monkeypatch):
        """One root planted outside the class {(1, 0)} in one requirement of
        its member: the class is still found, since the search reads only
        the Hom table, and fails the closure check."""
        cat = dynkin_category(A2_LEFT, F2)
        k, planted = cat.index[(1, 0)], 1 << cat.index[(0, 1)]
        table = getattr(cat, leg)
        if leg == "subrep_masks":
            table = table[:k] + (table[k] | planted,) + table[k + 1 :]
        else:
            row = table[k][:k] + (table[k][k] | planted,) + table[k][k + 1 :]
            table = table[:k] + (row,) + table[k + 1 :]
        monkeypatch.setitem(cat.__dict__, leg, table)
        with pytest.raises(InternalInvariantError, match="fails the closure oracle"):
            enumerate_tfc(A2_LEFT)

    def test_the_search_reads_a_checked_table(self, monkeypatch):
        """A Hom rank one too large above the diagonal keeps the support,
        and is caught by the Euler-form check as a fresh category builds
        its table, before the search runs."""
        cat = dynkin_category(A3_MID_SINK, F2)
        b = cat.hom_order[0]
        a = next(a for a, t in enumerate(cat.hom_table[b]) if t and a != b)  # a nonzero rank after b in word order
        ranks = {(cat.roots[j], cat.roots[k]): t for j, row in enumerate(cat.hom_table) for k, t in enumerate(row)}
        wrong = cat.roots[b], cat.roots[a]
        monkeypatch.setitem(A3_MID_SINK.derived, F2, DynkinCategory(A3_MID_SINK, F2))
        monkeypatch.setattr(linrep, "_hom_dim", lambda v, w: ranks[v.dims, w.dims] + ((v.dims, w.dims) == wrong))
        with pytest.raises(InternalInvariantError, match="Euler form"):
            enumerate_tfc(A3_MID_SINK)

    @pytest.mark.parametrize("q", [linear(12), d_path(11)], ids=["A12", "D11"])
    def test_guard_stops_before_any_table(self, q):
        with pytest.raises(ResourceGuardError, match="torsion-free classes exceed the guard"):
            enumerate_tfc(q)
        assert not dynkin_category(q, F2)._indecs
        with pytest.raises(ResourceGuardError):
            enumerate_c_sortable(q)

    @pytest.mark.parametrize("make, n", [(linear, 12), (d_path, 11)], ids=["A12", "D11"])
    def test_a_refused_type_keeps_no_category(self, make, n):
        """The guard reads the type before the category walks w_0, so a
        fresh quiver the search refuses, or verify_bijection reports as a
        gap, holds no category afterwards."""
        q = make(n)
        with pytest.raises(ResourceGuardError, match="torsion-free classes exceed the guard"):
            enumerate_tfc(q)
        assert F2 not in q.derived
        assert verify_bijection(q).gaps
        assert F2 not in q.derived

    @pytest.mark.parametrize("q", [A2_LEFT] + path_orientations(3))
    def test_field_robustness(self, q):
        over_f2 = [c.sorted_roots for c in enumerate_tfc(q, F2)]
        over_f3 = [c.sorted_roots for c in enumerate_tfc(q, F3)]
        assert over_f2 == over_f3


class TestRoundTrips:
    @pytest.mark.parametrize("q", [A2_LEFT] + path_orientations(3))
    def test_both_directions(self, q):
        for w in enumerate_c_sortable(q):
            assert sortable_of_tfc(q, tfc_of_sortable(q, w)) == w
        for c in enumerate_tfc(q):
            assert tfc_of_sortable(q, sortable_of_tfc(q, c)).indec_roots == c.indec_roots

    def test_reflected_class_loses_exactly_one_member(self):
        # the sorting walk starts at the sink 2 and keeps it when e_2 is a member
        q = A3_MID_SINK
        for c in enumerate_tfc(q):
            if unit_vector(3, 2) in c.indec_roots:
                w = sortable_of_tfc(q, c)
                assert w.word[0] == 2


class TestDirectSumClosureSampling:
    """Closure under subreps of direct sums follows from the two oracle legs;
    sample it directly as a cross-check of that reduction."""

    @pytest.mark.parametrize("q", [A2_LEFT, A3_MID_SINK])
    def test_sampled_direct_sums(self, q):
        rng = random.Random(31)
        indecs = all_indecomposables(q, F2)
        for c in enumerate_tfc(q, F2):
            members = list(c.sorted_roots)
            if not members:
                continue
            for _ in range(3):
                a = indecs[rng.choice(members)]
                b = indecs[rng.choice(members)]
                total = direct_sum(a, b)
                for sub, _ in enumerate_subreps(total):
                    assert set(decompose(sub)) <= c.indec_roots

    def test_failing_subset_fails_on_a_direct_sum_too(self):
        bad = tfc(A2_LEFT, {E1, E2})
        indecs = all_indecomposables(A2_LEFT, F2)
        total = direct_sum(indecs[E1], indecs[E2])
        closed = all(
            set(decompose(sub)) <= bad.indec_roots for sub, _ in enumerate_subreps(total)
        )
        # subrep closure alone holds for the semisimple sum...
        assert closed
        # ...so the failure is caught by the extension leg, as the oracle says
        assert not is_torsion_free_class(A2_LEFT, bad)


def coxeter_catalan(h, exponents):
    """prod (h + e + 1) / (e + 1) over the exponents of a Weyl group with
    Coxeter number h."""
    count = prod(Fraction(h + e + 1, e + 1) for e in exponents)
    assert count.denominator == 1
    return int(count)


def exponents_of(label):
    """Coxeter number and exponents of a connected Dynkin type."""
    kind, n = label[0], int(label[1:])
    if kind == "A":
        return n + 1, tuple(range(1, n + 1))
    if kind == "D":
        return 2 * n - 2, tuple(range(1, 2 * n - 2, 2)) + (n - 1,)
    return {
        6: (12, (1, 4, 5, 7, 8, 11)),
        7: (18, (1, 5, 7, 9, 11, 13, 17)),
        8: (30, (1, 7, 11, 13, 17, 19, 23, 29)),
    }[n]


class TestCoxeterCatalanOfType:
    @pytest.mark.parametrize(
        "label",
        [f"A{n}" for n in range(1, 9)] + [f"D{n}" for n in range(4, 9)] + ["E6", "E7", "E8"],
    )
    def test_matches_the_exponent_product(self, label):
        assert DynkinType((label,)).coxeter_catalan == coxeter_catalan(*exponents_of(label))

    def test_components_multiply(self):
        assert A2_PLUS_A1.dynkin.coxeter_catalan == 10 == len(enumerate_c_sortable(A2_PLUS_A1))

    def test_one_guard_separates_the_types(self):
        # both enumerations read this one constant: A11 and D10 verify, A12 and D11 are refused
        within = [DynkinType((label,)).coxeter_catalan for label in ("A11", "D10")]
        past = [DynkinType((label,)).coxeter_catalan for label in ("A12", "D11")]
        assert within == [208_012, 136_136] and past == [742_900, 520_676]
        assert max(within) <= weyl.SORTABLE_GUARD < min(past)
        assert torsion.SORTABLE_GUARD is weyl.SORTABLE_GUARD

    def test_linear_a12_is_refused_before_the_walk(self):
        q = linear(12)
        start = time.perf_counter()
        with pytest.raises(ResourceGuardError):
            enumerate_c_sortable(q)
        assert time.perf_counter() - start < 0.5


class TestVerifyBijection:
    @pytest.mark.parametrize(
        "q,h,exponents",
        [
            (path_orientations(5)[0], 6, (1, 2, 3, 4, 5)),
            (Quiver(5, ((1, 2), (3, 2), (3, 4), (3, 5))), 8, (1, 3, 4, 5, 7)),
        ],
        ids=["A5-linear", "D5-bipartite"],
    )
    def test_rank_five(self, q, h, exponents):
        report = verify_bijection(q, F2)
        assert report.passed, report.gaps
        assert report.sortable_count == report.tfc_count == coxeter_catalan(h, exponents)

    @pytest.mark.parametrize(
        "q,h,exponents",
        [
            (path_orientations(6)[0], 7, (1, 2, 3, 4, 5, 6)),
            (path_orientations(7)[0], 8, (1, 2, 3, 4, 5, 6, 7)),
            (d_path(6), 10, (1, 3, 5, 5, 7, 9)),
            (d_path(7), 12, (1, 3, 5, 6, 7, 9, 11)),
            (E6_BIPARTITE, 12, (1, 4, 5, 7, 8, 11)),
            (E7_ZIGZAG, 18, (1, 5, 7, 9, 11, 13, 17)),
        ],
        ids=["A6-linear", "A7-linear", "D6", "D7-linear", "E6-bipartite", "E7-zigzag"],
    )
    def test_past_rank_five(self, q, h, exponents):
        report = verify_bijection(q, F2)
        assert report.passed, report.gaps
        assert report.sortable_count == report.tfc_count == coxeter_catalan(h, exponents)

    def test_e6_sortable_round_trip(self):
        # the sortable side alone: no representation is built
        q = E6_BIPARTITE
        sortables = enumerate_c_sortable(q)
        assert len(sortables) == coxeter_catalan(12, (1, 4, 5, 7, 8, 11)) == 833
        inversion_sets = set()
        for w in sortables:
            tfc = tfc_of_sortable(q, w)
            assert sortable_of_tfc(q, tfc) == w
            inversion_sets.add(tfc.indec_roots)
        assert len(inversion_sets) == 833

    def test_two_vertex_report(self):
        report = verify_bijection(A2_LEFT)
        assert report.passed
        assert report.sortable_count == report.tfc_count == 5
        data = report.to_json()
        assert data["pass"] and data["sortable_count"] == 5 and data["tfc_count"] == 5

    def test_single_vertex(self):
        report = verify_bijection(Quiver(1))
        assert report.passed and report.sortable_count == 2

    def test_rows_cover_every_class_once(self):
        report = verify_bijection(A3_123)
        assert report.passed
        root_sets = [frozenset(roots) for _, roots in report.rows]
        assert len(set(root_sets)) == 14

    @pytest.mark.parametrize("q", [E6_BIPARTITE, E7_ZIGZAG], ids=["E6-bipartite", "E7-zigzag"])
    def test_the_verifier_reads_no_matrix(self, q, monkeypatch):
        # its round trip compares c-sorting words
        calls, matrix = [], weyl._Packing.matrix
        monkeypatch.setattr(weyl._Packing, "matrix", lambda pack, cols: calls.append(cols) or matrix(pack, cols))
        assert verify_bijection(q).passed
        assert not calls
        weyl_element(q, q.coxeter_word).matrix
        assert len(calls) == 1

    def test_either_build_order_gives_the_same_tables(self):
        q = Quiver(E6_BIPARTITE.n, E6_BIPARTITE.arrows)  # a fresh object, so a fresh category
        assert verify_bijection(q).passed
        cat = dynkin_category(q, F2)
        other = DynkinCategory(q, F2)  # subrep leg first, where the verifier builds it second
        other.hom_table, other._euler
        before = set(vars(other))
        assert (other.subrep_masks, other.extension_masks) == (cat.subrep_masks, cat.extension_masks)
        assert set(vars(other)) - before == {"subrep_masks", "extension_masks"}

    @pytest.mark.slow
    @pytest.mark.parametrize("q, label", [(d_path(10), "D10"), (linear(11), "A11")], ids=["D10", "A11"])
    def test_the_largest_admitted_types(self, q, label):
        report = verify_bijection(q, F2)
        assert report.passed, report.gaps
        assert report.sortable_count == report.tfc_count == coxeter_catalan(*exponents_of(label))

    def test_broken_inverse_walk_fails_the_round_trip(self, monkeypatch):
        # the grouped inverse walk hands every class the identity's word
        monkeypatch.setattr(weyl, "_sorting_walk", lambda q, pack, members, bit_of: ((m, ()) for m in members))
        report = verify_bijection(E6_BIPARTITE)
        assert report.counts_equal and report.injective and report.image_in_classes
        assert report.round_trip is False and report.passed is False

    def test_no_class_objects_in_the_verifier(self, monkeypatch):
        built = []
        real_post_init = TorsionFreeClass.__post_init__

        def counting_post_init(self):
            built.append(self)
            real_post_init(self)

        monkeypatch.setattr(TorsionFreeClass, "__post_init__", counting_post_init)
        for q in (path_orientations(4)[0], E6_BIPARTITE):
            assert verify_bijection(q).passed
        assert built == []
        assert len(enumerate_tfc(A2_LEFT)) == len(built) == 5
        w = enumerate_c_sortable(A2_LEFT)[-1]
        walked = tfc_of_sortable(A2_LEFT, w)
        assert isinstance(walked, TorsionFreeClass) and len(built) == 5
        assert TorsionFreeClass(A2_LEFT, F2, walked.indec_roots) == walked and len(built) == 6

    @staticmethod
    def replant(monkeypatch, edit):
        """Hand the verifier's sortable walk's leaves, as a list, through
        ``edit``."""
        real_walk = weyl._sortable_walk
        monkeypatch.setattr(weyl, "_sortable_walk", lambda *args: edit(list(real_walk(*args))))

    def test_rejected_sortable_fails_the_image_check(self, monkeypatch):
        # a non-sortable reduced word, with its own inversions, listed in
        # place of a sortable of its length; w0, the longest sortable, is the
        # only element of length 6, so the one replaced is the longest of
        # length 5
        q = A3_123
        cat = dynkin_category(q, F2)
        replaced, planted = enumerate_c_sortable(q)[-2].word, (1, 2, 3, 2, 1)
        assert len(planted) == len(replaced) == 5 and not is_c_sortable(q, weyl_element(q, planted))
        mask = sum(1 << cat.index[r] for r in inversion_set(q, planted))
        self.replant(monkeypatch, lambda leaves: [(planted, mask) if leaf[0] == replaced else leaf for leaf in leaves])
        report = verify_bijection(q)
        assert report.image_in_classes is False and report.passed is False
        assert report.sortable_count == report.tfc_count == 14 and len(report.rows) == 13

    def test_a_round_trip_split_on_the_wrong_bit_fails(self, monkeypatch):
        # each root's code tests the bit of the next root's
        real_walk = weyl._sorting_walk

        def wrong_bit(q, pack, members, bit_of):
            codes = list(bit_of)
            return real_walk(q, pack, members, {c: bit_of[d] for c, d in zip(codes, codes[1:] + codes[:1])})

        monkeypatch.setattr(weyl, "_sorting_walk", wrong_bit)
        report = verify_bijection(E6_BIPARTITE)
        assert report.counts_equal and report.injective and report.image_in_classes
        assert report.round_trip is False and report.passed is False

    def test_a_leaf_with_a_letter_too_many_fails_the_image_check(self, monkeypatch):
        # w0's word with its last letter doubled, not reduced, keeps w0's
        # mask, a class with one bit fewer than the word has letters
        q = A3_123
        self.replant(monkeypatch, lambda leaves: [(w + w[-1:], m) if len(w) == 6 else (w, m) for w, m in leaves])
        report = verify_bijection(q)
        assert report.image_in_classes is False and report.passed is False
        assert report.sortable_count == report.tfc_count == 14 and len(report.rows) == 13
        assert all(len(word) < 6 for word, _ in report.rows)

    def test_a_dropped_leaf_fails_the_counts(self, monkeypatch):
        q = A3_123
        self.replant(monkeypatch, lambda leaves: leaves[1:])
        report = verify_bijection(q)
        assert report.counts_equal is False and report.passed is False
        assert report.sortable_count == 13 and report.tfc_count == 14 and len(report.rows) == 13
        assert report.image_in_classes and report.injective and report.round_trip is False

    def test_the_verifier_builds_no_element(self, monkeypatch):
        def refused(*args):
            raise AssertionError("an element was built")

        monkeypatch.setattr(weyl, "enumerate_c_sortable", refused)
        monkeypatch.setattr(weyl, "WeylElement", refused)
        assert verify_bijection(E6_BIPARTITE).passed

    def test_reports_compare_and_hash_by_their_pairs(self):
        q = d4_orientations()[3]
        report, again = verify_bijection(q), verify_bijection(q)
        assert report is not again and report == again and hash(report) == hash(again)
        (word, mask), *rest = report.pairs
        changed = dataclasses.replace(report, pairs=((word, mask ^ 1), *rest))
        assert changed != report and changed.passed

    def test_the_verifier_makes_no_sortability_decision(self, monkeypatch):
        # the round trip certifies sortability; no per-word decision is run
        calls = []
        real_decision, real_nested = weyl.c_sorting_element, weyl._nested
        for module in (weyl, torsion):
            monkeypatch.setattr(module, "c_sorting_element", lambda *args: calls.append(args) or real_decision(*args))
        monkeypatch.setattr(weyl, "_nested", lambda *args: calls.append(args) or real_nested(*args))
        assert verify_bijection(E6_BIPARTITE).passed
        assert calls == []
        listed = enumerate_c_sortable(E6_BIPARTITE)[-1]
        assert is_c_sortable(E6_BIPARTITE, listed) and len(calls) == 1  # no _nested: the listing kept Inv(w)
        del calls[:]
        assert is_c_sortable(E6_BIPARTITE, WeylElement(E6_BIPARTITE, listed.word)) and len(calls) == 2

    def test_non_dynkin_reports_gaps(self):
        report = verify_bijection(KRONECKER)
        assert not report.passed
        assert report.gaps

    def test_sortable_guard_is_reported_as_a_gap(self, monkeypatch):
        monkeypatch.setattr(weyl, "SORTABLE_GUARD", 100)
        report = verify_bijection(path_orientations(5)[0])
        assert not report.passed
        assert report.tfc_count == 132
        assert len(report.gaps) == 1 and report.gaps[0].startswith("sortable enumeration unavailable")

    def test_the_walks_letter_guard_is_reported_as_a_gap(self, monkeypatch):
        # on Dynkin type the letter guard trips only as the leaves are read
        monkeypatch.setattr(weyl, "SORTABLE_LETTER_GUARD", 10)
        report = verify_bijection(A3_123)
        assert report.gaps == ("sortable enumeration unavailable: c-sortable elements exceed the guard 10 letters",)
        assert report.sortable_count == 0 and report.tfc_count == 14 and report.rows == ()
        assert not (report.counts_equal or report.image_in_classes or report.injective or report.round_trip)


class TestSerialization:
    def test_round_trip(self):
        c = tfc(A2_LEFT, {E1, E12})
        data = tfc_to_json(c)
        assert data["roots"] == [[1, 0], [1, 1]]
        assert tfc_from_json(data).indec_roots == c.indec_roots


class TestCategoryLifetime:
    # arrows listed in an order no shared quiver constant uses, so no
    # longer-lived equal quiver holds these categories
    ARROWS = ((3, 2), (1, 2))

    def test_equal_quivers_keep_their_own_categories(self):
        q, twin = Quiver(3, self.ARROWS), Quiver(3, self.ARROWS)
        category = dynkin_category(q, F2)
        assert dynkin_category(q, F2) is category
        assert category.quiver is q
        assert twin == q
        assert dynkin_category(twin, F2) is not category
        assert dynkin_category(twin, F2).quiver is twin
        assert dynkin_category(q, F3) is not category

    def test_one_root_record_for_every_field(self, monkeypatch):
        # the categories of both fields read one record, their word, roots,
        # index and order the record's own objects, and w_0 is walked once
        calls, walk = [], weyl._sortable_walk
        monkeypatch.setattr(weyl, "_sortable_walk", lambda *args: calls.append(args[2]) or walk(*args))
        q = Quiver(3, self.ARROWS)
        f2, f3 = dynkin_category(q, F2), dynkin_category(q, F3)
        record = q.derived["roots"]
        assert f2 is not f3 and weyl.dynkin_roots(q) is record
        assert f2.word is f3.word is record.word and f2.roots is f3.roots is record.roots
        assert f2.index is f3.index is record.index and f2.hom_order is f3.hom_order is record.order
        assert f2.hom_table and f3.hom_table and TorsionFreeClass(q, F3, frozenset(record.roots[:2]))
        assert calls == [len(record.roots)] == [6]

    def test_one_packing_and_one_tuple_per_root(self):
        # a fresh object, so nothing is kept for it yet
        before = live_packings()
        q = Quiver(E6_BIPARTITE.n, E6_BIPARTITE.arrows)
        cat = dynkin_category(q, F2)
        sortables = enumerate_c_sortable(q)
        # (4, 2) is not its c-sorting word, so its decision falls back
        decided = [c_sorting_element(q, w) for w in sortables[::40] + [weyl_element(q, (4, 2))]]
        assert decided[-1][0].word == (2, 4)
        assert live_packings() == before + 1
        assert dynkin_category(q, F2).quiver is q
        for _, roots in decided:
            assert all(r is cat.roots[cat.index[r]] for r in roots)

    def test_category_dies_with_its_quiver(self):
        def build():
            q = Quiver(3, self.ARROWS)
            assert len(enumerate_tfc(q)) == 14
            return weakref.ref(dynkin_category(q, F2))

        category = build()
        gc.collect()
        assert category() is None
