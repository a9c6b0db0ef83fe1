import json

import pytest
from click.testing import CliRunner
from hypothesis import given, strategies as st

from quivrep.cli import cli
from quivrep.errors import QuivrepError
from quivrep.linrep import rep_from_json
from quivrep.quiver import quiver_from_json
from quivrep.torsion import tfc_from_json

from conftest import A2_LEFT, A3_123, KRONECKER

A2 = {"n": 2, "arrows": [[2, 1]]}  # 1 <- 2
A3 = {"n": 3, "arrows": [[1, 2], [2, 3]]}
A4 = {"n": 4, "arrows": [[1, 2], [2, 3], [3, 4]]}
KRON = {"n": 2, "arrows": [[1, 2], [1, 2]]}
P2_REP = {"field": 2, "dims": [1, 1], "mats": {"0": [[1]]}}
S1_REP = {"field": 2, "dims": [1, 0], "mats": {"0": []}}
S2_REP = {"field": 2, "dims": [0, 1], "mats": {"0": []}}


@pytest.fixture
def run(tmp_path):
    runner = CliRunner()
    files = {}

    def write(obj):
        key = json.dumps(obj, sort_keys=True)
        if key not in files:
            path = tmp_path / f"file{len(files)}.json"
            path.write_text(key)
            files[key] = str(path)
        return files[key]

    def invoke(*args):
        argv = [write(a) if isinstance(a, dict) else a for a in args]
        return runner.invoke(cli, argv, catch_exceptions=False)

    return invoke


def out_json(result):
    assert result.exit_code == 0, result.output
    return json.loads(result.output)


class TestGoldenOutputs:
    def test_weyl_inv_matches_table(self, run):
        result = run("weyl", "inv", "--quiver", A2, "--word", "1,2")
        assert result.output == "[[1,0],[1,1]]\n"

    def test_sortable_count_a4(self, run):
        result = run("sortable", "count", "--quiver", A4)
        assert result.output == "42\n"

    def test_tfc_verify_a3(self, run):
        data = out_json(run("tfc", "verify", "--quiver", A3))
        assert data["sortable_count"] == 14
        assert data["tfc_count"] == 14
        assert data["pass"] is True

    def test_byte_identical_across_runs(self, run):
        first = run("tfc", "enumerate", "--quiver", A3).output
        second = run("tfc", "enumerate", "--quiver", A3).output
        assert first == second


class TestQuiverCommands:
    def test_show(self, run):
        data = out_json(run("quiver", "show", "--quiver", A2))
        assert data["arrows"] == [[2, 1]]
        assert data["vertex_kinds"] == {"1": "sink", "2": "source"}

    def test_mutate(self, run):
        data = out_json(run("quiver", "mutate", "--quiver", A2, "--vertex", "1"))
        assert data == {"arrows": [[1, 2]], "n": 2}

    def test_type(self, run):
        data = out_json(run("quiver", "type", "--quiver", KRON))
        assert data == {"components": ["NotDynkin"], "is_dynkin": False}

    def test_mutate_at_interior_vertex_is_domain_error(self, run):
        result = run("quiver", "mutate", "--quiver", A3, "--vertex", "2")
        assert result.exit_code == 1
        err = json.loads(result.stderr)
        assert err["error"] == "mutation-not-admissible"


class TestFormCommands:
    def test_euler(self, run):
        result = run("form", "euler", "--quiver", KRON, "--beta", "1,0", "--gamma", "0,1")
        assert result.output == "-2\n"

    def test_sym(self, run):
        result = run("form", "sym", "--quiver", A2, "--beta", "1,0", "--gamma", "0,1")
        assert result.output == "-1\n"

    def test_dimension_error_tagged(self, run):
        result = run("form", "euler", "--quiver", A2, "--beta", "1,0,0", "--gamma", "0,1")
        assert result.exit_code == 1
        assert json.loads(result.stderr)["error"] == "dimension-mismatch"


class TestWeylCommands:
    def test_reduce(self, run):
        result = run("weyl", "reduce", "--quiver", A2, "--word", "1,1,2")
        assert result.output == "[2]\n"

    def test_descent(self, run):
        assert run("weyl", "descent", "--quiver", A2, "--word", "1,2", "--vertex", "1").output == "true\n"
        assert run("weyl", "descent", "--quiver", A2, "--word", "1,2", "--vertex", "2").output == "false\n"

    def test_non_reduced_word_tagged(self, run):
        result = run("weyl", "inv", "--quiver", A2, "--word", "1,1")
        assert result.exit_code == 1
        assert json.loads(result.stderr)["error"] == "non-reduced-word"


class TestRootsCommands:
    def test_list(self, run):
        data = out_json(run("roots", "list", "--quiver", A2))
        assert data == {"complete": True, "roots": [[0, 1], [1, 0], [1, 1]]}

    def test_list_with_bound(self, run):
        data = out_json(run("roots", "list", "--quiver", KRON, "--height-bound", "5"))
        assert data["complete"] is False
        assert [1, 0] in data["roots"] and [3, 2] in data["roots"]

    def test_classify(self, run):
        assert run("roots", "classify", "--quiver", KRON, "--vector", "1,1").output == '"Imaginary"\n'
        assert run("roots", "classify", "--quiver", A2, "--vector", "2,0").output == '"NotARoot"\n'
        assert run("roots", "classify", "--quiver", A2, "--vector", "1,1").output == '"RealPositive"\n'


class TestSortableCommands:
    def test_check(self, run):
        assert run("sortable", "check", "--quiver", A2, "--word", "2,1").output == "false\n"
        assert run("sortable", "check", "--quiver", A2, "--word", "1,2,1").output == "true\n"

    def test_enumerate_serializes_elements(self, run):
        data = out_json(run("sortable", "enumerate", "--quiver", A2))
        assert len(data) == 5
        assert data[0] == {"word": [], "matrix": [[1, 0], [0, 1]]}

    def test_unbounded_enumeration_off_dynkin_is_tagged(self, run):
        result = run("sortable", "count", "--quiver", KRON)
        assert result.exit_code == 1
        assert json.loads(result.stderr)["error"] == "unsupported-scope"

    def test_bounded_enumeration_off_dynkin(self, run):
        assert run("sortable", "count", "--quiver", KRON, "--length-bound", "4").output == "6\n"


class TestRepCommands:
    def test_hom_and_ext(self, run):
        # on 1 <- 2 the projective P2 surjects onto S2 but admits no map back
        assert run("rep", "hom", "--quiver", A2, "--rep", P2_REP, "--rep", S2_REP).output == "1\n"
        assert run("rep", "hom", "--quiver", A2, "--rep", S2_REP, "--rep", P2_REP).output == "0\n"
        assert run("rep", "ext", "--quiver", A2, "--rep", S2_REP, "--rep", S1_REP).output == "1\n"

    def test_reflect(self, run):
        data = out_json(
            run("rep", "reflect", "--quiver", A2, "--rep", P2_REP, "--vertex", "1")
        )
        assert data["quiver"] == {"arrows": [[1, 2]], "n": 2}
        assert data["rep"]["dims"] == [0, 1]

    def test_decompose(self, run):
        sum_rep = {"field": 2, "dims": [2, 1], "mats": {"0": [[0], [1]]}}
        data = out_json(run("rep", "decompose", "--quiver", A2, "--rep", sum_rep))
        assert data == [
            {"multiplicity": 1, "root": [1, 0]},
            {"multiplicity": 1, "root": [1, 1]},
        ]

    def test_indec(self, run):
        data = out_json(run("rep", "indec", "--quiver", A2, "--root", "1,1"))
        assert data["dims"] == [1, 1]
        assert data["mats"]["0"] == [[1]]

    def test_hom_requires_two_reps(self, run):
        result = run("rep", "hom", "--quiver", A2, "--rep", P2_REP)
        assert result.exit_code == 1
        assert json.loads(result.stderr)["error"] == "input-format"


class TestTfcCommands:
    def test_of_word(self, run):
        data = out_json(run("tfc", "of-word", "--quiver", A2, "--word", "1,2"))
        assert data == {"quiver": {"arrows": [[2, 1]], "n": 2}, "roots": [[1, 0], [1, 1]]}

    def test_to_word(self, run):
        cls = {"quiver": A2, "roots": [[1, 0], [1, 1]]}
        data = out_json(run("tfc", "to-word", "--class", cls))
        assert data["word"] == [1, 2]

    def test_enumerate(self, run):
        data = out_json(run("tfc", "enumerate", "--quiver", A2))
        assert len(data["classes"]) == 5

    def test_table_mode_lists_the_correspondence(self, run):
        result = run("tfc", "verify", "--quiver", A2, "--format", "table")
        assert result.exit_code == 0
        assert "sortable elements: 5" in result.output
        assert "1,2,1" in result.output


class TestUsageErrors:
    def test_unknown_subcommand(self, run):
        result = run("frobnicate")
        assert result.exit_code == 2

    def test_unknown_flag(self, run):
        result = run("quiver", "show", "--quiver", A2, "--frobnicate")
        assert result.exit_code == 2

    def test_missing_required_flag(self, run):
        result = run("quiver", "show")
        assert result.exit_code == 2

    def test_unreadable_file_is_a_domain_error(self, run):
        result = run("quiver", "show", "--quiver", "/nonexistent/q.json")
        assert result.exit_code == 1
        assert json.loads(result.stderr)["error"] == "input-format"


class TestMalformedInput:
    @pytest.mark.parametrize(
        "args",
        [
            ("rep", "decompose", "--quiver", A2, "--rep", {"field": 2, "dims": [1, 1], "mats": [1]}),
            ("rep", "decompose", "--quiver", A3, "--rep", {"field": 2, "dims": [1, 1], "mats": {}}),
            ("rep", "decompose", "--quiver", A2, "--rep", {"field": 2, "dims": [2, 2], "mats": {"0": [[1], [1, 0]]}}),
            ("tfc", "to-word", "--class", {"quiver": A2, "roots": 5}),
            ("tfc", "to-word", "--class", {"quiver": A2, "roots": [["a", 1]]}),
        ],
        ids=["mats-not-object", "dims-too-short", "ragged-matrix", "roots-not-list", "root-not-integers"],
    )
    def test_tagged_input_format_error(self, run, args):
        result = run(*args)
        assert result.exit_code == 1
        assert json.loads(result.stderr)["error"] == "input-format"

    json_values = st.recursive(
        st.none() | st.booleans() | st.integers(-3, 6) | st.floats() | st.text(max_size=3),
        lambda inner: st.lists(inner, max_size=4)
        | st.dictionaries(
            st.sampled_from(["n", "arrows", "field", "dims", "mats", "quiver", "roots", "0", "1"]),
            inner,
            max_size=5,
        ),
        max_leaves=20,
    )

    @given(json_values, json_values)
    def test_loaders_return_or_raise_tagged(self, data, nested):
        # ``nested`` also reaches the loaders through the keys they read first
        for payload in (data, {"quiver": A2, "roots": nested}, {"field": 2, "dims": [1, 1], "mats": nested}):
            for load in (quiver_from_json, lambda d: rep_from_json(A2_LEFT, d), tfc_from_json):
                try:
                    load(payload)
                except QuivrepError:
                    pass
