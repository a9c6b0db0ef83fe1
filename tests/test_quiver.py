import itertools
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import quivrep
from quivrep import quiver
from quivrep.errors import (
    CyclicQuiverError,
    DimensionMismatchError,
    InputFormatError,
    InvalidParameterError,
    MutationError,
    ResourceGuardError,
    UnsupportedScopeError,
    VertexRangeError,
)
from quivrep.quiver import (
    VERTEX_GUARD,
    DynkinType,
    Quiver,
    VertexKind,
    dynkin_graph,
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
from quivrep.weyl import dynkin_roots

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

    def test_rejects_a_negative_vertex_count(self):
        with pytest.raises(VertexRangeError):
            Quiver(-1)

    def test_parallel_arrows_kept_distinct(self):
        assert KRONECKER.arrows == ((1, 2), (1, 2))

    def test_vertex_guard(self):
        assert Quiver(VERTEX_GUARD).n == VERTEX_GUARD
        with pytest.raises(ResourceGuardError):
            Quiver(VERTEX_GUARD + 1)

    def test_vertex_guard_trips_before_any_allocation(self):
        # A fresh interpreter capped at 512 MB of address space: sizing even
        # one list by n = 10**8 needs 800 MB and ends in MemoryError.
        script = (
            "import resource\n"
            "resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))\n"
            "from quivrep.errors import ResourceGuardError\n"
            "from quivrep.quiver import Quiver\n"
            "try:\n"
            "    Quiver(10**8)\n"
            "except ResourceGuardError:\n"
            "    print('guarded')\n"
        )
        src = str(Path(quivrep.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        result = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout == "guarded\n"

    def test_json_round_trip(self):
        data = quiver_to_json(A3_MID_SINK)
        assert data == {"n": 3, "arrows": [[1, 2], [3, 2]]}
        assert quiver_from_json(data) == A3_MID_SINK

    @pytest.mark.parametrize("arrow", [[1], [1, 2, 2]], ids=["one-end", "three-ends"])
    def test_json_arrow_that_is_not_a_pair_is_refused(self, arrow):
        with pytest.raises(InputFormatError):
            quiver_from_json({"n": 2, "arrows": [arrow]})


class TestEquality:
    """Quivers compare and hash on (n, arrows), checking identity first."""

    def test_equal_objects_are_equal_with_equal_hashes(self):
        q, twin = Quiver(3, ((1, 2), (3, 2))), Quiver(3, [[1, 2], [3, 2]])
        assert q is not twin and q == twin and not q != twin
        assert hash(q) == hash(twin) == hash((3, ((1, 2), (3, 2))))

    @pytest.mark.parametrize(
        "other",
        [Quiver(4, ((1, 2), (3, 2))), Quiver(3, ((2, 1), (3, 2))), Quiver(3, ((3, 2), (1, 2))), Quiver(3, ((1, 2),))],
        ids=["other-n", "reversed-arrow", "reordered-arrows", "fewer-arrows"],
    )
    def test_other_n_or_arrows_are_unequal(self, other):
        q = Quiver(3, ((1, 2), (3, 2)))
        assert q != other and not q == other

    def test_another_type_is_not_implemented(self):
        assert Quiver(1).__eq__(1) is NotImplemented
        assert (Quiver(1) == 1) is False and Quiver(1) != 1
        assert Quiver(0) != (0, ())

    def test_a_dict_finds_an_equal_twin(self):
        table = {Quiver(2, ((2, 1),)): "A2"}
        assert table[Quiver(2, ((2, 1),))] == "A2"
        assert Quiver(2, ((1, 2),)) not in table

    def test_equal_quivers_keep_separate_derived_stores(self):
        q, twin = Quiver(2, ((2, 1),)), Quiver(2, ((2, 1),))
        q.derived["key"] = "kept"
        assert q == twin and q.derived is not twin.derived and "key" not in twin.derived


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

    def test_positive_root_count_is_gabriels(self):
        # n h / 2 per component: A2 + A1 + A1, D4, E6, E7, E8
        assert dynkin_type(Quiver(4, ((1, 2),))).positive_root_count == 5
        assert dynkin_type(d4_orientations()[0]).positive_root_count == 12
        e_series = [Quiver(n, tuple((k, k + 1) for k in range(1, n - 1)) + ((3, n),)) for n in (6, 7, 8)]
        assert [dynkin_type(q).positive_root_count for q in e_series] == [36, 63, 120]
        with pytest.raises(UnsupportedScopeError):
            dynkin_type(KRONECKER).positive_root_count

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


DYNKIN_LABELS = [f"A{n}" for n in range(1, 13)] + [f"D{n}" for n in range(4, 13)] + ["E6", "E7", "E8"]


class TestDynkinGraph:
    """dynkin_graph is the inverse of the classifier on A_n, D_n and E6-E8."""

    @pytest.mark.parametrize("label", DYNKIN_LABELS)
    def test_first_and_reversed_orientation_classify_as_the_label(self, label):
        n, edges = dynkin_graph(label)
        reversed_arrows = Quiver(n, tuple((t, s) for s, t in edges))
        assert dynkin_type(orientations(n, edges)[0]).components == (label,)
        assert dynkin_type(reversed_arrows).components == (label,)

    @pytest.mark.parametrize("label", DYNKIN_LABELS)
    def test_longest_element_inverts_every_positive_root(self, label):
        q = Quiver(*dynkin_graph(label))
        assert len(dynkin_roots(q).order) == DynkinType((label,)).positive_root_count

    def test_no_coxeter_catalan_number_off_dynkin_type(self):
        with pytest.raises(UnsupportedScopeError):
            dynkin_type(KRONECKER).coxeter_catalan

    @pytest.mark.parametrize("label", ["", "A0", "D3", "E5", "E9", "B6", "C4", "a3", "A-1", f"A{VERTEX_GUARD + 1}"])
    def test_malformed_label_is_refused_by_the_graph_and_both_counts(self, label):
        with pytest.raises(InvalidParameterError):
            dynkin_graph(label)
        with pytest.raises(InvalidParameterError):
            DynkinType((label,)).positive_root_count
        with pytest.raises(InvalidParameterError):
            DynkinType((label,)).coxeter_catalan


def reference_dynkin_type(q: Quiver) -> tuple[str, ...]:
    """The classifier's labels found another way: components by union-find
    over the arrows, each Dynkin exactly when its Cartan matrix 2I - A is
    positive definite, and then named by its rank m and determinant: m + 1
    for A_m, 4 for D_m, and 3, 2, 1 for E6, E7, E8."""
    root = list(range(q.n + 1))

    def find(v):
        while root[v] != v:
            v = root[v]
        return v

    for s, t in q.arrows:
        root[find(s)] = find(t)
    comps: dict[int, list[int]] = {}
    for v in range(1, q.n + 1):
        comps.setdefault(find(v), []).append(v)
    labels = []
    for verts in sorted(comps.values()):
        index = {v: k for k, v in enumerate(verts)}
        m = len(verts)
        cartan = [[Fraction(2 * (r == c)) for c in range(m)] for r in range(m)]
        for s, t in q.arrows:
            if s in index:
                cartan[index[s]][index[t]] -= 1
                cartan[index[t]][index[s]] -= 1
        # Positive definite exactly when every pivot of elimination without
        # row swaps is positive (the pivots are ratios of leading minors).
        det = Fraction(1)
        for k in range(m):
            if cartan[k][k] <= 0:
                labels.append("NotDynkin")
                break
            det *= cartan[k][k]
            for r in range(k + 1, m):
                f = cartan[r][k] / cartan[k][k]
                cartan[r] = [x - f * y for x, y in zip(cartan[r], cartan[k])]
        else:
            if det == m + 1:
                labels.append(f"A{m}")
            elif det == 4:
                labels.append(f"D{m}")
            else:
                labels.append({(6, 3): "E6", (7, 2): "E7", (8, 1): "E8"}[m, det])
    return tuple(labels)


def _relabelled(n: int, edges, rng: random.Random) -> Quiver:
    """The graph under a random vertex permutation, each edge pointing by a
    random total order of the vertices, so the quiver is acyclic."""
    perm, rank = rng.sample(range(1, n + 1), n), rng.sample(range(n), n)
    arrows = [(perm[s - 1], perm[t - 1]) for s, t in edges]
    return Quiver(n, tuple((s, t) if rank[s - 1] < rank[t - 1] else (t, s) for s, t in arrows))


class TestDynkinTypeAgainstCartanOracle:
    """dynkin_type agrees with reference_dynkin_type, which shares no code
    with it or with dynkin_graph's literal graphs."""

    def test_every_simple_graph_on_at_most_five_vertices(self):
        for n in range(6):
            pairs = list(itertools.combinations(range(1, n + 1), 2))
            for mask in range(1 << len(pairs)):
                q = Quiver(n, tuple(p for k, p in enumerate(pairs) if mask >> k & 1))
                assert dynkin_type(q).components == reference_dynkin_type(q), q

    @pytest.mark.parametrize(
        "label", [f"A{n}" for n in range(1, 10)] + [f"D{n}" for n in range(4, 10)] + ["E6", "E7", "E8"]
    )
    def test_relabelled_and_reoriented_dynkin_graphs(self, label):
        rng = random.Random(label)
        for _ in range(20):
            q = _relabelled(*dynkin_graph(label), rng)
            assert reference_dynkin_type(q) == (label,)
            assert dynkin_type(q).components == (label,), q

    def test_relabelled_three_legged_stars(self):
        # legs (1, 1, k) are D, (1, 2, k <= 4) are E, and the rest, such as
        # (1, 2, 5), (1, 3, 3) and (2, 2, 2), are not Dynkin
        rng = random.Random(3)
        for legs in itertools.combinations_with_replacement(range(1, 7), 3):
            edges, n = [], 1
            for length in legs:
                edges += [(1 if k == 0 else n + k, n + k + 1) for k in range(length)]
                n += length
            q = _relabelled(n, edges, rng)
            assert dynkin_type(q).components == reference_dynkin_type(q), legs

    def test_random_multigraphs_with_parallel_arrows(self):
        rng = random.Random(38)
        for _ in range(400):
            n = rng.randint(2, 12)
            edges = [(v, rng.randint(1, v - 1)) for v in range(2, n + 1) if rng.random() < 0.8]
            edges += [rng.choice(edges) for _ in range(rng.randint(0, 2))] if edges else []
            edges += [tuple(rng.sample(range(1, n + 1), 2)) for _ in range(rng.randint(0, 2))]
            q = _relabelled(n, edges, rng)
            assert dynkin_type(q).components == reference_dynkin_type(q), q


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

    def test_guard_refuses_a40_before_listing(self):
        start = time.perf_counter()
        with pytest.raises(ResourceGuardError):
            orientations(*dynkin_graph("A40"))
        assert time.perf_counter() - start < 0.5

    def test_guard_admits_its_count_and_refuses_before_building(self, monkeypatch):
        monkeypatch.setattr(quiver, "ORIENTATION_GUARD", 8)
        assert len(orientations(4, ((4, 1), (4, 2), (4, 3)))) == 8
        built = []
        monkeypatch.setattr(quiver, "Quiver", lambda *args: built.append(args))
        with pytest.raises(ResourceGuardError):
            orientations(*dynkin_graph("A5"))
        assert built == []
