import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

import quivrep
from quivrep import weyl
from quivrep.cli import cli
from quivrep.errors import InputFormatError, QuivrepError
from quivrep.linrep import rep_from_json
from quivrep.quiver import quiver_from_json
from quivrep.roots import CLASSIFY_STEP_GUARD
from quivrep.torsion import tfc_from_json
from quivrep.weyl import element_from_json

from conftest import A2_LEFT, A3_123, KRONECKER

A2 = {"n": 2, "arrows": [[2, 1]]}  # 1 <- 2
A3 = {"n": 3, "arrows": [[1, 2], [2, 3]]}
A4 = {"n": 4, "arrows": [[1, 2], [2, 3], [3, 4]]}
A5 = {"n": 5, "arrows": [[1, 2], [2, 3], [3, 4], [4, 5]]}
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

    @pytest.mark.parametrize("n", [10**8, 10**30], ids=["1e8", "1e30"])
    def test_vertex_count_guard(self, run, n):
        result = run("quiver", "show", "--quiver", {"n": n, "arrows": []})
        assert result.exit_code == 1
        assert json.loads(result.stderr)["error"] == "input-format"
        assert result.stdout == ""

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

    def test_reduction_guard_is_tagged(self, run):
        word = (2, 1) * 2000
        start = time.perf_counter()
        result = run("weyl", "reduce", "--quiver", KRON, "--word", ",".join(map(str, word + word[::-1])))
        assert time.perf_counter() - start < 1.0
        assert result.exit_code == 1
        assert json.loads(result.stderr)["error"] == "resource-guard"
        assert result.stdout == ""
        assert run("weyl", "reduce", "--quiver", KRON, "--word", ",".join(map(str, word))).output == (
            json.dumps(list(word), separators=(",", ":")) + "\n"
        )

    def test_descent(self, run):
        assert run("weyl", "descent", "--quiver", A2, "--word", "1,2", "--vertex", "1").output == "true\n"
        assert run("weyl", "descent", "--quiver", A2, "--word", "1,2", "--vertex", "2").output == "false\n"

    def test_inv_table_prints_roots_as_the_other_tables_do(self, run):
        a1 = {"n": 1, "arrows": []}
        assert run("weyl", "inv", "--quiver", a1, "--word", "1", "--format", "table").output == "(1,)\n"
        assert run("weyl", "inv", "--quiver", a1, "--word", "", "--format", "table").output == "(empty)\n"
        result = run("weyl", "inv", "--quiver", A2, "--word", "1,2", "--format", "table")
        assert result.output == "(1, 0)\n(1, 1)\n"

    def test_non_reduced_word_tagged(self, run):
        result = run("weyl", "inv", "--quiver", A2, "--word", "1,1")
        assert result.exit_code == 1
        assert json.loads(result.stderr)["error"] == "non-reduced-word"


class TestRootsCommands:
    def test_list(self, run):
        data = out_json(run("roots", "list", "--quiver", A2))
        assert data == {"complete": True, "roots": [[0, 1], [1, 0], [1, 1]]}

    def test_list_table_on_the_empty_quiver(self, run):
        result = run("roots", "list", "--quiver", {"n": 0, "arrows": []}, "--format", "table")
        assert result.output == "(empty)\ncomplete\n"

    def test_list_with_bound(self, run):
        data = out_json(run("roots", "list", "--quiver", KRON, "--height-bound", "5"))
        assert data["complete"] is False
        assert [1, 0] in data["roots"] and [3, 2] in data["roots"]

    def test_list_guard_is_tagged(self, run):
        a1000 = {"n": 1000, "arrows": [[k, k + 1] for k in range(1, 1000)]}
        result = run("roots", "list", "--quiver", a1000)
        assert result.exit_code == 1
        assert json.loads(result.stderr)["error"] == "resource-guard"
        assert result.stdout == ""

    def test_list_guard_off_dynkin_is_tagged(self, run):
        k4 = {"n": 4, "arrows": [[s, t] for s in range(1, 5) for t in range(s + 1, 5)]}
        start = time.perf_counter()
        result = run("roots", "list", "--quiver", k4, "--height-bound", "1000000000")
        assert time.perf_counter() - start < 1.0
        assert result.exit_code == 1
        assert json.loads(result.stderr)["error"] == "resource-guard"
        assert result.stdout == ""

    def test_classify(self, run):
        assert run("roots", "classify", "--quiver", KRON, "--vector", "1,1").output == '"Imaginary"\n'
        assert run("roots", "classify", "--quiver", A2, "--vector", "2,0").output == '"NotARoot"\n'
        assert run("roots", "classify", "--quiver", A2, "--vector", "1,1").output == '"RealPositive"\n'

    def test_classify_negative_imaginary_root(self, run):
        assert run("roots", "classify", "--quiver", KRON, "--vector=-1,-1").output == '"Imaginary"\n'

    @pytest.mark.parametrize(
        "options, tag",
        [((), "inconclusive"), (("--search-bound", str(CLASSIFY_STEP_GUARD + 1)), "resource-guard")],
        ids=["default-bound", "bound-past-the-guard"],
    )
    def test_classify_guard_is_tagged(self, run, options, tag):
        start = time.perf_counter()
        result = run("roots", "classify", "--quiver", KRON, "--vector", f"{10**30},{10**30 + 1}", *options)
        assert time.perf_counter() - start < 1.0
        assert result.exit_code == 1
        assert json.loads(result.stderr)["error"] == tag
        assert result.stdout == ""


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

    def test_letter_guard_is_tagged(self, run):
        result = run("sortable", "count", "--quiver", KRON, "--length-bound", "1000000000")
        assert result.exit_code == 1
        assert json.loads(result.stderr)["error"] == "resource-guard"
        assert result.stdout == ""

    def test_sortable_guard_is_tagged(self, run, monkeypatch):
        monkeypatch.setattr(weyl, "SORTABLE_GUARD", 100)
        assert run("sortable", "count", "--quiver", A4).output == "42\n"
        result = run("sortable", "count", "--quiver", A5)
        assert result.exit_code == 1
        assert json.loads(result.stderr)["error"] == "resource-guard"
        assert result.stdout == ""


@pytest.mark.parametrize(
    "args",
    [
        ("sortable", "count", "--quiver", A3, "--length-bound", "-1"),
        ("sortable", "enumerate", "--quiver", KRON, "--length-bound", "-1"),
        ("roots", "list", "--quiver", KRON, "--height-bound", "-5"),
        ("roots", "classify", "--quiver", A3, "--vector", "1,0,0", "--search-bound", "-1"),
    ],
    ids=["length-bound-count", "length-bound-enumerate", "height-bound", "search-bound"],
)
def test_negative_bound_is_an_invalid_parameter(run, args):
    result = run(*args)
    assert result.exit_code == 1
    assert json.loads(result.stderr)["error"] == "invalid-parameter"
    assert result.stdout == ""


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

    def test_indec_on_linear_a13(self, run):
        a13 = {"n": 13, "arrows": [[k, k + 1] for k in range(1, 13)]}
        root = [0, 0, 1, 1] + [0] * 9
        data = out_json(run("rep", "indec", "--quiver", a13, "--root", ",".join(map(str, root))))
        assert data["dims"] == root

    def test_indec_past_the_root_guard(self, run):
        a46 = {"n": 46, "arrows": [[k, k + 1] for k in range(1, 46)]}
        result = run("rep", "indec", "--quiver", a46, "--root", ",".join(["1"] + ["0"] * 45))
        assert result.exit_code == 1 and result.stdout == ""
        assert json.loads(result.stderr)["error"] == "resource-guard"

    def test_indec_over_an_unsupported_prime(self, run):
        result = run("rep", "indec", "--quiver", A2, "--root", "1,1", "--field", "7")
        assert result.exit_code == 1 and result.stdout == ""
        assert json.loads(result.stderr)["error"] == "invalid-parameter"

    def test_classes_past_the_root_guard(self, run):
        # the class guard trips before the category's root guard; both are resource guards
        a46 = {"n": 46, "arrows": [[k, k + 1] for k in range(1, 46)]}
        result = run("tfc", "enumerate", "--quiver", a46)
        assert result.exit_code == 1 and result.stdout == ""
        assert json.loads(result.stderr)["error"] == "resource-guard"

    @pytest.mark.parametrize(
        "command, v_dims, w_dims",
        [
            ("hom", [400, 400], [400, 400]),  # 160,000 matrix entries each
            ("ext", [400, 400], [400, 400]),
            ("hom", [45, 0], [45, 0]),  # 2,025 unknowns
            ("ext", [45, 0], [45, 0]),
            ("ext", [0, 45], [45, 0]),  # no unknowns, so Hom needs no system, but 2,025 rows
        ],
        ids=["entries-hom", "entries-ext", "unknowns-hom", "unknowns-ext", "rows-ext"],
    )
    def test_hom_system_guard(self, run, command, v_dims, w_dims):
        v, w = ({"field": 3, "dims": dims} for dims in (v_dims, w_dims))
        start = time.perf_counter()
        result = run("rep", command, "--quiver", A2, "--rep", v, "--rep", w)
        assert time.perf_counter() - start < 1.0
        assert result.exit_code == 1 and result.stdout == ""
        assert json.loads(result.stderr)["error"] == "resource-guard"

    @pytest.mark.parametrize(
        "direction, vertex, dims",
        [("plus", "1", [201, 0]), ("minus", "2", [0, 201])],
        ids=["plus-at-sink", "minus-at-source"],
    )
    def test_reflect_guard(self, run, direction, vertex, dims):
        # on 1 <- 2 the summed map at the reflected vertex is 0 x 201 or 201 x 0
        v = {"field": 2, "dims": dims}
        result = run("rep", "reflect", "--quiver", A2, "--rep", v, "--vertex", vertex, "--direction", direction)
        assert result.exit_code == 1 and result.stdout == ""
        assert json.loads(result.stderr)["error"] == "resource-guard"

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

    def test_to_word_rejects_a_root_set_that_is_not_a_class(self, run):
        # (1,1,0) is a root of 1 -> 2 <- 3, but its subrepresentation S2 is missing
        cls = {"quiver": {"n": 3, "arrows": [[1, 2], [3, 2]]}, "roots": [[1, 1, 0]]}
        result = run("tfc", "to-word", "--class", cls)
        assert result.exit_code == 1
        assert json.loads(result.stderr)["error"] == "not-torsion-free"
        assert result.stdout == ""

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
            ("rep", "decompose", "--quiver", A3, "--rep", {"field": 2, "dims": [1, 1, 0], "mats": {"7": [[1]]}}),
            ("tfc", "to-word", "--class", {"quiver": A2, "roots": 5}),
            ("tfc", "to-word", "--class", {"quiver": A2, "roots": [["a", 1]]}),
            ("weyl", "reduce", "--quiver", A2, "--word", "\u0661"),
            ("roots", "classify", "--quiver", A2, "--vector", "1_0,1"),
            pytest.param(
                ("weyl", "reduce", "--quiver", A2, "--word", "1" * 5000),
                marks=pytest.mark.skipif(
                    not hasattr(sys, "get_int_max_str_digits"), reason="int() reads any number of digits"
                ),
            ),
        ],
        ids=[
            "mats-not-object",
            "dims-too-short",
            "ragged-matrix",
            "mats-unknown-arrow",
            "roots-not-list",
            "root-not-integers",
            "word-non-ascii-digit",
            "vector-underscore",
            "word-past-int-digits",
        ],
    )
    def test_tagged_input_format_error(self, run, args):
        result = run(*args)
        assert result.exit_code == 1
        assert json.loads(result.stderr)["error"] == "input-format"

    @pytest.mark.parametrize(
        "payload",
        [
            {"word": 5},
            {"word": ["a"]},
            {"word": [None]},
            {"word": [1], "matrix": 5},
            {"word": [1], "matrix": [[1, "x"]]},
        ],
    )
    def test_element_loader_tags_malformed_payloads(self, payload):
        with pytest.raises(InputFormatError):
            element_from_json(A2_LEFT, payload)

    # Each loader reads one JSON integer from the given value; int() would
    # accept all four (as 1, 2, 1 and 1), giving a valid object.
    STRICT_INT_LOADERS = {
        "quiver-n": lambda v: quiver_from_json({"n": v, "arrows": []}),
        "quiver-arrow": lambda v: quiver_from_json({"n": 2, "arrows": [[v, 2]]}),
        "rep-field": lambda v: rep_from_json(A2_LEFT, {"field": v, "dims": [1, 1], "mats": {}}),
        "rep-dims": lambda v: rep_from_json(A2_LEFT, {"field": 2, "dims": [v, 1], "mats": {}}),
        "rep-entry": lambda v: rep_from_json(A2_LEFT, {"field": 2, "dims": [1, 1], "mats": {"0": [[v]]}}),
        "tfc-root": lambda v: tfc_from_json({"quiver": A2, "roots": [[v, 0]]}),
        "tfc-quiver": lambda v: tfc_from_json({"quiver": {"n": v, "arrows": []}, "roots": []}),
        "element-word": lambda v: element_from_json(A2_LEFT, {"word": [v]}),
        "element-matrix": lambda v: element_from_json(A2_LEFT, {"word": [1], "matrix": [[-1, 1], [0, v]]}),
    }

    @pytest.mark.parametrize("value", [1.5, "2", "\u0661", True], ids=["float", "digit-string", "arabic-indic-one", "bool"])
    @pytest.mark.parametrize("load", STRICT_INT_LOADERS.values(), ids=STRICT_INT_LOADERS.keys())
    def test_loaders_take_only_json_integers(self, load, value):
        with pytest.raises(InputFormatError):
            load(value)

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
        payloads = (
            data,
            {"quiver": A2, "roots": nested},
            {"field": 2, "dims": [1, 1], "mats": nested},
            {"word": nested},
            {"word": [1], "matrix": nested},
        )
        loaders = (
            quiver_from_json,
            lambda d: rep_from_json(A2_LEFT, d),
            tfc_from_json,
            lambda d: element_from_json(A2_LEFT, d),
        )
        for payload in payloads:
            for load in loaders:
                try:
                    load(payload)
                except QuivrepError:
                    pass


@pytest.fixture(scope="module")
def a2_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "a2.json"
    path.write_text(json.dumps(A2))
    return str(path)


@settings(deadline=None)
@given(st.text() | st.text(alphabet="0123456789,+- _\t\u0661", max_size=16))
def test_integer_list_options_exit_cleanly(a2_path, text):
    runner = CliRunner()
    for args in (
        ["weyl", "reduce", "--quiver", a2_path, f"--word={text}"],
        ["roots", "classify", "--quiver", a2_path, f"--vector={text}"],
    ):
        result = runner.invoke(cli, args, catch_exceptions=False)
        assert result.exit_code in (0, 1), result.output
        if result.exit_code == 1:
            assert json.loads(result.stderr)["error"]
            assert result.stdout == ""


def run_process(*args):
    """``python -m quivrep.cli`` with ``args`` in a fresh interpreter, as the
    console script runs it, with this tree's package first on the path."""
    src = str(Path(quivrep.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run(
        [sys.executable, "-m", "quivrep.cli", *args], env=env, capture_output=True, text=True, timeout=60
    )


def test_the_module_runs_as_a_process(a2_path):
    result = run_process("sortable", "count", "--quiver", a2_path)
    assert (result.returncode, result.stdout, result.stderr) == (0, "5\n", "")
    result = run_process("weyl", "inv", "--quiver", a2_path, "--word", "1,1")
    assert (result.returncode, result.stdout) == (1, "")
    assert json.loads(result.stderr)["error"] == "non-reduced-word"
    result = run_process("weyl", "inv", "--quiver", a2_path)
    assert result.returncode == 2 and result.stdout == ""
    assert "Missing option '--word'" in result.stderr
