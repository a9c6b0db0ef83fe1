"""Golden outputs of every ``quivrep`` subcommand.

Each subcommand runs in json and table format, on a cyclic quiver (a tagged
input error) and with ``--help``; every group and the root command show
their help too.  The pinned record of a case is its exit code, its stdout
and its stderr: the error tag of a domain failure (exit 1), the text itself
otherwise.  A moved option changes a help text, so option order is pinned
along with the output.

After an intended change of output, rewrite the golden file with
``PYTHONPATH=src python tests/test_cli_golden.py`` and review its diff.
"""

import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from quivrep.cli import cli

GOLDEN = Path(__file__).with_name("cli_golden.json")

A2 = {"n": 2, "arrows": [[2, 1]]}  # 1 <- 2
A3 = {"n": 3, "arrows": [[1, 2], [2, 3]]}  # 1 -> 2 -> 3
A3_MID_SINK = {"n": 3, "arrows": [[1, 2], [3, 2]]}  # 1 -> 2 <- 3
D4 = {"n": 4, "arrows": [[4, 1], [4, 2], [4, 3]]}
KRON = {"n": 2, "arrows": [[1, 2], [1, 2]]}
CYCLIC = {"n": 2, "arrows": [[1, 2], [2, 1]]}
P2_REP = {"field": 2, "dims": [1, 1], "mats": {"0": [[1]]}}
S1_REP = {"field": 2, "dims": [1, 0], "mats": {"0": []}}
S2_REP = {"field": 2, "dims": [0, 1], "mats": {"0": []}}
SUM_REP = {"field": 2, "dims": [2, 1], "mats": {"0": [[0], [1]]}}
ZERO_REP = {"field": 2, "dims": [0, 0], "mats": {"0": []}}

# One call per subcommand; its table and cyclic-quiver cases derive from it.
COMMANDS = {
    ("quiver", "show"): ("--quiver", A3),
    ("quiver", "mutate"): ("--quiver", A3, "--vertex", "1"),
    ("quiver", "type"): ("--quiver", D4),
    ("form", "euler"): ("--quiver", KRON, "--beta", "1,0", "--gamma", "0,1"),
    ("form", "sym"): ("--quiver", A3, "--beta", "1,1,0", "--gamma", "0,1,1"),
    ("weyl", "inv"): ("--quiver", A3, "--word", "1,2,1"),
    ("weyl", "reduce"): ("--quiver", A3, "--word", "1,2,2,3"),
    ("weyl", "descent"): ("--quiver", A3, "--word", "1,2", "--vertex", "1"),
    ("roots", "list"): ("--quiver", A3),
    ("roots", "classify"): ("--quiver", KRON, "--vector", "1,1"),
    ("sortable", "check"): ("--quiver", A3, "--word", "3,2,3"),
    ("sortable", "enumerate"): ("--quiver", A2),
    ("sortable", "count"): ("--quiver", A3),
    ("rep", "hom"): ("--quiver", A2, "--rep", P2_REP, "--rep", S2_REP),
    ("rep", "ext"): ("--quiver", A2, "--rep", S2_REP, "--rep", S1_REP),
    ("rep", "reflect"): ("--quiver", A2, "--rep", P2_REP, "--vertex", "1"),
    ("rep", "decompose"): ("--quiver", A2, "--rep", SUM_REP),
    ("rep", "indec"): ("--quiver", A3, "--root", "1,1,1", "--field", "3"),
    ("tfc", "of-word"): ("--quiver", A3, "--word", "3,2,3"),
    ("tfc", "to-word"): ("--class", {"quiver": A3, "roots": [[0, 0, 1], [0, 1, 1]]}),
    ("tfc", "enumerate"): ("--quiver", A2),
    ("tfc", "verify"): ("--quiver", A3),
}

# Edge cases beyond the derived ones: empty outputs, bounds, scope and
# input errors, and usage errors.
EXTRA = {
    "weyl-reduce-identity-table": ("weyl", "reduce", "--quiver", A3, "--word", "1,1", "--format", "table"),
    "weyl-inv-non-reduced": ("weyl", "inv", "--quiver", A3, "--word", "1,1"),
    "quiver-mutate-interior": ("quiver", "mutate", "--quiver", A3, "--vertex", "2"),
    "quiver-show-isolated-table": ("quiver", "show", "--quiver", {"n": 2, "arrows": []}, "--format", "table"),
    "form-euler-dimension": ("form", "euler", "--quiver", A3, "--beta", "1,0", "--gamma", "0,1,0"),
    "roots-list-bound-table": ("roots", "list", "--quiver", KRON, "--height-bound", "3", "--format", "table"),
    "roots-classify-bad-vector": ("roots", "classify", "--quiver", A3, "--vector", "1_0,1,1"),
    "sortable-count-kronecker": ("sortable", "count", "--quiver", KRON),
    "sortable-enumerate-bound-table": (
        "sortable", "enumerate", "--quiver", KRON, "--length-bound", "2", "--format", "table"
    ),
    "rep-hom-one-rep": ("rep", "hom", "--quiver", A2, "--rep", P2_REP),
    "rep-decompose-zero-table": ("rep", "decompose", "--quiver", A2, "--rep", ZERO_REP, "--format", "table"),
    "rep-decompose-ragged": (
        "rep", "decompose", "--quiver", A2, "--rep", {"field": 2, "dims": [2, 2], "mats": {"0": [[1], [1, 0]]}}
    ),
    "rep-reflect-minus-table": (
        "rep", "reflect", "--quiver", A2, "--rep", S2_REP, "--vertex", "2", "--direction", "minus", "--format", "table"
    ),
    "tfc-of-word-not-sortable": ("tfc", "of-word", "--quiver", A3, "--word", "1,2"),
    "tfc-to-word-not-a-class": ("tfc", "to-word", "--class", {"quiver": A3_MID_SINK, "roots": [[1, 1, 0]]}),
    "tfc-to-word-not-a-root": ("tfc", "to-word", "--class", {"quiver": A3, "roots": [[2, 0, 0]]}),
    "tfc-to-word-empty-table": ("tfc", "to-word", "--class", {"quiver": A2, "roots": []}, "--format", "table"),
    "tfc-enumerate-kronecker": ("tfc", "enumerate", "--quiver", KRON),
    "tfc-verify-kronecker": ("tfc", "verify", "--quiver", KRON),
    "quiver-show-unreadable": ("quiver", "show", "--quiver", "/nonexistent/q.json"),
    "usage-missing-option": ("quiver", "show"),
    "usage-bad-choice": ("quiver", "show", "--quiver", A3, "--format", "yaml"),
    "usage-unknown-command": ("frobnicate",),
}


def _cyclic(arg):
    if isinstance(arg, dict) and "arrows" in arg:
        return CYCLIC
    if isinstance(arg, dict) and "quiver" in arg:
        return dict(arg, quiver=CYCLIC)
    return arg


def corpus() -> dict[str, tuple]:
    cases = {"help": ("--help",)}
    for group in dict.fromkeys(group for group, _ in COMMANDS):
        cases[f"{group}-help"] = (group, "--help")
    for command, args in COMMANDS.items():
        name = "-".join(command)
        cases[f"{name}-json"] = (*command, *args)
        cases[f"{name}-table"] = (*command, *args, "--format", "table")
        cases[f"{name}-cyclic"] = (*command, *map(_cyclic, args))
        cases[f"{name}-help"] = (*command, "--help")
    cases.update(EXTRA)
    return cases


def observe(args: tuple, tmp_path: Path) -> dict:
    """Run one case; dict arguments are written to JSON files first."""
    argv = []
    for arg in args:
        if isinstance(arg, dict):
            path = tmp_path / f"input{len(argv)}.json"
            path.write_text(json.dumps(arg))
            arg = str(path)
        argv.append(arg)
    result = CliRunner().invoke(cli, argv, prog_name="quivrep", terminal_width=80, catch_exceptions=False)
    stderr = result.stderr
    if result.exit_code == 1:
        stderr = json.loads(stderr)["error"]
    return {"exit": result.exit_code, "stdout": result.stdout, "stderr": stderr}


CASES = corpus()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("case", CASES)
def test_matches_golden(case, golden, tmp_path):
    assert observe(CASES[case], tmp_path) == golden[case]


def test_golden_file_lists_exactly_the_corpus(golden):
    assert sorted(golden) == sorted(CASES)


def test_corpus_covers_every_subcommand():
    registered = {
        (group_name, name)
        for group_name, group in cli.commands.items()
        for name in group.commands
    }
    assert registered == set(COMMANDS)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        records = {case: observe(args, Path(tmp)) for case, args in CASES.items()}
    GOLDEN.write_text(json.dumps(records, indent=1, sort_keys=True, ensure_ascii=False) + "\n")
