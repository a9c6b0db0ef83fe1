"""scripts/bench.py summarises alternating parent/change pairs: gains,
regressions, and metrics too noisy to call."""

import importlib.util
import subprocess
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench.py"
_spec = importlib.util.spec_from_file_location("bench_script", SCRIPT)
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)

METRICS = [m["name"] for m in bench.BENCH["end_to_end"]]


def pairs_of(parent: list[float], change: list[float], metric: str = "items_per_ref_s") -> list[dict]:
    """Synthetic pairs: ``metric`` takes the given values, every other
    end-to-end metric reads 1.0 on both sides."""
    out = []
    for b, c in zip(parent, change):
        base = {name: 1.0 for name in METRICS} | {metric: b}
        new = {name: 1.0 for name in METRICS} | {metric: c}
        out.append({"parent": base, "change": new})
    return out


def test_clear_gain_is_claimed():
    parent = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3, 9.7, 10.0, 10.1]
    change = [2 * x for x in parent]
    m = bench.summarise(pairs_of(parent, change))["items_per_ref_s"]
    assert m["wins"] == 10 and m["losses"] == 0
    assert m["gain"] and not m["unresolved"] and m["within_bound"]
    assert m["median_ratio"] == pytest.approx(2.0)


def test_regression_beyond_bound_is_out_of_bound():
    parent = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3, 9.7, 10.0, 10.1]
    change = [0.5 * x for x in parent]
    m = bench.summarise(pairs_of(parent, change))["items_per_ref_s"]
    assert m["losses"] == 10 and not m["gain"]
    assert not m["unresolved"] and not m["within_bound"]


def test_lower_is_better_metric_wins_when_it_falls():
    parent = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 102.0, 98.0, 100.0, 101.0]
    change = [x / 3 for x in parent]
    m = bench.summarise(pairs_of(parent, change, "item_p50_ref_ms"))["item_p50_ref_ms"]
    assert m["wins"] == 10 and m["gain"] and m["within_bound"]
    assert bench.summarise(pairs_of(parent, change, "item_p50_ref_ms"))["items_per_ref_s"]["ties"] == 10


def test_noisy_parent_is_unresolved_and_never_within_bound():
    # Parent IQR is about half its median, wider than the 0.24 bound.
    parent = [5.0, 15.0, 6.0, 14.0, 10.0, 4.0, 16.0, 10.0, 7.0, 13.0]
    change = [x * 1.05 for x in reversed(parent)]
    m = bench.summarise(pairs_of(parent, change))["items_per_ref_s"]
    assert m["unresolved"] and not m["within_bound"]


def test_noisy_parent_is_resolved_when_every_change_run_is_better():
    parent = [5.0, 15.0, 6.0, 14.0, 10.0, 4.0, 16.0, 10.0, 7.0, 13.0]
    change = [x + 20.0 for x in parent]
    m = bench.summarise(pairs_of(parent, change))["items_per_ref_s"]
    assert not m["unresolved"] and m["within_bound"] and m["gain"]


def make_tree(root: Path, files: dict) -> Path:
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return root


def test_src_lines_counts_python_under_src_only(tmp_path):
    parent = make_tree(tmp_path / "parent", {"src/pkg/a.py": "x = 1\ny = 2\n", "src/pkg/sub/b.py": "z = 3\n"})
    change = make_tree(
        tmp_path / "change",
        {
            "src/pkg/a.py": "x = 1\n",
            "src/top.py": "",
            "src/pkg/notes.txt": "not\ncounted\n",
            "tests/test_a.py": "also not counted\n",
        },
    )
    assert bench.src_lines(parent, change) == {"parent": 3, "change": 1, "net": -2}


def test_src_files_counts_each_python_file_under_src(tmp_path):
    parent = make_tree(
        tmp_path / "parent", {"src/pkg/a.py": "x = 1\ny = 2\n", "src/pkg/gone.py": "z = 3\n", "scripts/s.py": "w\n"}
    )
    change = make_tree(
        tmp_path / "change", {"src/pkg/a.py": "x = 1\n", "src/pkg/new.py": "a\nb\nc\n", "src/pkg/notes.txt": "n\n"}
    )
    files = bench.src_files(parent, change)
    assert files == {
        "src/pkg/a.py": {"parent": 2, "change": 1, "net": -1},
        "src/pkg/gone.py": {"parent": 1, "change": 0, "net": -1},
        "src/pkg/new.py": {"parent": 0, "change": 3, "net": 3},
    }
    assert sum(f["net"] for f in files.values()) == bench.src_lines(parent, change)["net"]


def test_compile_src_caches_every_source_file(tmp_path):
    """Bytecode for each file under src/ is written, so a run that may not
    write its own reads it rather than compiling."""
    tree = make_tree(tmp_path / "tree", {"src/pkg/a.py": "x = 1\n", "src/pkg/sub/b.py": "y = 2\n", "tests/t.py": "z\n"})
    bench.compile_src(tree)
    for rel in ("src/pkg/a.py", "src/pkg/sub/b.py"):
        assert Path(importlib.util.cache_from_source(str(tree / rel))).is_file()
    assert not (tree / "tests" / "__pycache__").exists()
    (tree / "src" / "pkg" / "bad.py").write_text("def (:\n")
    with pytest.raises(RuntimeError, match="does not compile"):
        bench.compile_src(tree)


def test_import_rss_reads_each_trees_own_package(tmp_path):
    """A package that fills 40 MB on import reads about that much more than
    one that holds nothing, whatever this process holds."""
    small = make_tree(tmp_path / "small", {"src/quivrep/__init__.py": "x = 1\n"})
    large = make_tree(tmp_path / "large", {"src/quivrep/__init__.py": "x = b'x' * (40 * 2**20)\n"})
    rss = bench.import_rss(small), bench.import_rss(large)
    assert 0 < rss[0] < 30 and 38 < rss[1] - rss[0] < 45


def test_working_tree_export_holds_what_git_would_commit(tmp_path):
    repo, dest = tmp_path / "repo", tmp_path / "export"
    (repo / "pkg" / "__pycache__").mkdir(parents=True)
    (repo / ".gitignore").write_text("__pycache__/\n")
    (repo / "pkg" / "kept.py").write_text("committed\n")
    (repo / "pkg" / "gone.py").write_text("deleted later\n")
    git = ["git", "-c", "user.name=bench", "-c", "user.email=bench@example.com"]
    subprocess.run(["git", "init", "-q"], cwd=repo, check=True)
    subprocess.run(["git", "add", "-A"], cwd=repo, check=True)
    subprocess.run([*git, "commit", "-q", "-m", "base"], cwd=repo, check=True)
    (repo / "pkg" / "kept.py").write_text("edited, not committed\n")
    (repo / "pkg" / "gone.py").unlink()
    (repo / "pkg" / "new.py").write_text("untracked\n")
    (repo / "pkg" / "__pycache__" / "kept.cpython.pyc").write_bytes(b"ignored")

    bench.export_working_tree(dest, repo)
    files = sorted(str(f.relative_to(dest)) for f in dest.rglob("*") if f.is_file())
    assert files == [".gitignore", "pkg/kept.py", "pkg/new.py"]
    assert (dest / "pkg" / "kept.py").read_text() == "edited, not committed\n"

    bench.export_tree("HEAD", tmp_path / "committed", repo)
    assert (tmp_path / "committed" / "pkg" / "kept.py").read_text() == "committed\n"
    assert (tmp_path / "committed" / "pkg" / "gone.py").exists()
