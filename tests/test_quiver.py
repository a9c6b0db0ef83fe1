import pytest
from hypothesis import given, strategies as st

from quivrep.errors import (
    CyclicQuiverError,
    DimensionMismatchError,
    MutationError,
    VertexRangeError,
)
from quivrep.quiver import (
    Quiver,
    VertexKind,
    delete_vertex,
    dynkin_type,
    euler_form,
    mutate_at,
    orientations,
    quiver_from_json,
    quiver_to_json,
    sym_form,
    unit_vector,
    vertex_kind,
)

from conftest import A2_LEFT, A2_RIGHT, A3_123, A3_MID_SINK, KRONECKER, d4_orientations, path_orientations


small_vec = st.tuples(*(st.integers(-9, 9) for _ in range(2)))
vec3 = st.tuples(*(st.integers(-9, 9) for _ in range(3)))


class TestConstruction:
    def test_rejects_oriented_cycle(self):
        with pytest.raises(CyclicQuiverError):
            Quiver(3, ((1, 2), (2, 3), (3, 1)))

    def test_rejects_loop(self):
        with pytest.raises(CyclicQuiverError):
            Quiver(2, ((1, 1),))

    def test_rejects_out_of_range(self):
        with pytest.raises(VertexRangeError):
            Quiver(2, ((1, 3),))

    def test_parallel_arrows_kept_distinct(self):
        assert KRONECKER.arrows == ((1, 2), (1, 2))

    def test_json_round_trip(self):
        data = quiver_to_json(A3_MID_SINK)
        assert data == {"n": 3, "arrows": [[1, 2], [3, 2]]}
        assert quiver_from_json(data) == A3_MID_SINK


class TestEulerForm:
    def test_single_arrow_example(self):
        # 1 -> 2 with beta = (1,1), gamma = (0,1): 1*0 + 1*1 - 1*1 = 0
        assert euler_form(A2_RIGHT, (1, 1), (0, 1)) == 0

    @given(vec3)
    def test_zero_vector_left(self, gamma):
        assert euler_form(A3_123, (0, 0, 0), gamma) == 0

    def test_kronecker_parallel_arrows_count_twice(self):
        assert euler_form(KRONECKER, (1, 0), (0, 1)) == -2

    @given(small_vec, small_vec, small_vec)
    def test_bilinear_in_first_slot(self, a, b, c):
        lhs = euler_form(KRONECKER, tuple(x + y for x, y in zip(a, b)), c)
        assert lhs == euler_form(KRONECKER, a, c) + euler_form(KRONECKER, b, c)

    @given(small_vec, small_vec, small_vec)
    def test_bilinear_in_second_slot(self, a, b, c):
        lhs = euler_form(A2_LEFT, a, tuple(x + y for x, y in zip(b, c)))
        assert lhs == euler_form(A2_LEFT, a, b) + euler_form(A2_LEFT, a, c)

    def test_length_mismatch_rejected(self):
        with pytest.raises(DimensionMismatchError):
            euler_form(A2_LEFT, (1, 0, 0), (0, 1))


class TestSymForm:
    @pytest.mark.parametrize("q", [A2_LEFT, A3_123, KRONECKER])
    def test_simple_roots_have_norm_two(self, q):
        for i in range(1, q.n + 1):
            e = unit_vector(q.n, i)
            assert sym_form(q, e, e) == 2

    def test_adjacent_simples_pair_to_minus_one(self):
        assert sym_form(A2_RIGHT, (1, 0), (0, 1)) == -1

    @given(small_vec, small_vec)
    def test_orientation_invariance(self, a, b):
        assert sym_form(A2_RIGHT, a, b) == sym_form(A2_LEFT, a, b)

    @given(vec3, vec3)
    def test_symmetry(self, a, b):
        assert sym_form(A3_MID_SINK, a, b) == sym_form(A3_MID_SINK, b, a)


class TestVertexKind:
    def test_path_end_is_sink(self):
        assert vertex_kind(A3_123, 3) is VertexKind.SINK

    def test_middle_of_two_in_arrows_is_sink(self):
        assert vertex_kind(A3_MID_SINK, 2) is VertexKind.SINK

    def test_lonely_vertex_is_isolated(self):
        assert vertex_kind(Quiver(1), 1) is VertexKind.ISOLATED

    def test_interior_path_vertex_is_neither(self):
        assert vertex_kind(A3_123, 2) is VertexKind.NEITHER

    def test_source(self):
        assert vertex_kind(A3_123, 1) is VertexKind.SOURCE

    def test_out_of_range(self):
        with pytest.raises(VertexRangeError):
            vertex_kind(A2_LEFT, 5)


class TestMutation:
    def test_sink_mutation_flips_incident_arrows(self):
        assert mutate_at(A3_MID_SINK, 2) == Quiver(3, ((2, 1), (2, 3)))

    @pytest.mark.parametrize("q,i", [(A3_MID_SINK, 2), (A3_123, 3), (A2_LEFT, 1)])
    def test_involution(self, q, i):
        assert mutate_at(mutate_at(q, i), i) == q

    def test_rejected_at_interior_vertex(self):
        with pytest.raises(MutationError):
            mutate_at(A3_123, 2)

    @pytest.mark.parametrize("q", path_orientations(3) + [KRONECKER])
    def test_preserves_underlying_graph_and_type(self, q):
        for i in range(1, q.n + 1):
            if vertex_kind(q, i) is VertexKind.NEITHER:
                continue
            m = mutate_at(q, i)
            assert sorted(tuple(sorted(a)) for a in m.arrows) == sorted(
                tuple(sorted(a)) for a in q.arrows
            )
            assert dynkin_type(m) == dynkin_type(q)


class TestDynkinType:
    @pytest.mark.parametrize("q", path_orientations(3))
    def test_any_path_orientation_is_a3(self, q):
        assert dynkin_type(q).components == ("A3",)

    def test_kronecker_is_not_dynkin(self):
        t = dynkin_type(KRONECKER)
        assert t.components == ("NotDynkin",)
        assert not t.is_dynkin

    @pytest.mark.parametrize("q", d4_orientations())
    def test_three_legged_star_is_d4(self, q):
        assert dynkin_type(q).components == ("D4",)

    def test_e_series(self):
        # E6: path 1-2-3-4-5 with 6 hanging off 3; E7, E8 extend the path
        e6 = Quiver(6, ((1, 2), (2, 3), (3, 4), (4, 5), (3, 6)))
        e7 = Quiver(7, ((1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (3, 7)))
        e8 = Quiver(8, ((1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (3, 8)))
        assert dynkin_type(e6).components == ("E6",)
        assert dynkin_type(e7).components == ("E7",)
        assert dynkin_type(e8).components == ("E8",)

    def test_longer_star_leg_is_d5_not_e(self):
        d5 = Quiver(5, ((1, 3), (2, 3), (3, 4), (4, 5)))
        assert dynkin_type(d5).components == ("D5",)

    def test_underlying_cycle_is_not_dynkin(self):
        square = Quiver(4, ((1, 2), (2, 3), (1, 4), (4, 3)))
        assert dynkin_type(square).components == ("NotDynkin",)

    def test_components_listed_by_smallest_vertex(self):
        q = Quiver(4, ((1, 2),))
        assert dynkin_type(q).components == ("A2", "A1", "A1")

    def test_four_valent_vertex_is_not_dynkin(self):
        star4 = Quiver(5, ((1, 5), (2, 5), (3, 5), (4, 5)))
        assert dynkin_type(star4).components == ("NotDynkin",)


class TestDeleteVertex:
    def test_renumbering(self):
        assert delete_vertex(A3_123, 2) == Quiver(2)
        assert delete_vertex(A3_123, 1) == Quiver(2, ((1, 2),))
        assert delete_vertex(A3_123, 3) == Quiver(2, ((1, 2),))


class TestOrientations:
    def test_path_orientations_in_counting_order(self):
        assert [q.arrows for q in orientations(3, ((1, 2), (2, 3)))] == [
            ((1, 2), (2, 3)),
            ((1, 2), (3, 2)),
            ((2, 1), (2, 3)),
            ((2, 1), (3, 2)),
        ]

    def test_edgeless_graph_has_one_orientation(self):
        assert orientations(2, ()) == [Quiver(2)]
