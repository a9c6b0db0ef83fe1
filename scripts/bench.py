#!/usr/bin/env python3
"""Alternating parent/change pairs of the benchmark, summarised in one file.

    python3 scripts/bench.py --label NAME [--base REV] [--seed 1] [--tmp DIR]

The change is this checkout's working tree and the parent the committed
tree of ``--base`` (default HEAD).  Both are exported into fresh temporary
directories, so the two sides run from like trees and no worktree is left
behind in the repository: the parent with ``git archive``, the change as
the files git would commit from the checkout (tracked files as they are on
disk and untracked files that are not ignored, without deleted files or
build leftovers such as ``__pycache__/``).  For every workload of BENCHMARK.json,
pair k of PAIRS runs ``perfbench/run.py --workload W --seed SEED+k`` once
in each tree, the parent first in even pairs and the change first in odd
ones, each in a fresh interpreter with the benchmark's own run length.

BENCH_<NAME>.json at the root of the checkout records every run and, per
workload and end-to-end metric of BENCHMARK.json: both sides' medians and
quartiles, the per-pair ratios change / parent, win/loss/tie counts (a win
is the change reading better), whether a gain may be claimed (wins in at
least nine tenths of the pairs and medians further apart than the parent's
interquartile range), whether the metric is unresolved (the parent's
interquartile range, as a fraction of its median, is wider than the
metric's regression bound, and not every change run reads better than
every parent run) and whether the change stays within that bound (never
when unresolved).  It also records ``src_lines``: the lines of
``src/**/*.py`` in the parent tree and in the change, and the net change;
``src_files``, the same three numbers for each of those files; and
``import_rss_mb``, the peak RSS of a fresh ``import quivrep`` from each
tree's ``src/`` in this environment.  Both trees' ``src/`` is byte-compiled
before the pairs, so no run compiles it, also where the interpreter writes
no bytecode of its own (PYTHONDONTWRITEBYTECODE): compiling in the run
would make ``peak_rss_mb`` move with the length of the source as well as
with the work the run does.
"""

from __future__ import annotations

import argparse
import compileall
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
# Alternating parent/change pairs per workload; a gain needs nine wins in ten.
PAIRS = 10


def export_tree(rev: str, dest: Path, repo: Path = ROOT) -> str:
    """Extract the committed tree of ``rev`` into ``dest``; return its sha."""
    sha = subprocess.run(["git", "rev-parse", rev], cwd=repo, check=True, capture_output=True, text=True).stdout.strip()
    archive = subprocess.run(["git", "archive", "--format=tar", sha], cwd=repo, check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest)
    return sha


def export_working_tree(dest: Path, repo: Path = ROOT) -> None:
    """Copy into ``dest`` the checkout's tracked files as they are on disk
    and its untracked files that are not ignored; deleted files stay out."""
    listed = ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"]
    names = subprocess.run(listed, cwd=repo, check=True, capture_output=True, text=True).stdout
    for name in filter(None, names.split("\0")):
        if (repo / name).is_file():  # a deleted tracked file is still listed
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(repo / name, dest / name)


def compile_src(tree: Path) -> None:
    """Write the bytecode of every ``src/**/*.py`` file of ``tree`` into its
    ``__pycache__``, which an import reads whether or not it may write."""
    if not compileall.compile_dir(tree / "src", quiet=1):
        raise RuntimeError(f"{tree / 'src'} does not compile")


def line_counts(tree: Path) -> dict[str, int]:
    """Lines of each ``src/**/*.py`` file of ``tree``, by path within it."""
    return {f.relative_to(tree).as_posix(): len(f.read_bytes().splitlines()) for f in tree.glob("src/**/*.py")}


def src_lines(parent: Path, change: Path) -> dict:
    """Line counts of ``src/**/*.py`` in both trees, and change - parent."""
    counts = [sum(line_counts(tree).values()) for tree in (parent, change)]
    return {"parent": counts[0], "change": counts[1], "net": counts[1] - counts[0]}


def src_files(parent: Path, change: Path) -> dict:
    """src_lines for each file of either tree, a missing file counting 0."""
    before, after = line_counts(parent), line_counts(change)
    out = {}
    for name in sorted(before.keys() | after.keys()):
        b, c = before.get(name, 0), after.get(name, 0)
        out[name] = {"parent": b, "change": c, "net": c - b}
    return out


def import_rss(tree: Path) -> float:
    """Peak RSS in MB of a fresh interpreter that imports quivrep from the
    ``src/`` of ``tree``: its own high-water mark (VmHWM, in kB as
    ru_maxrss), which unlike ru_maxrss leaves out the RSS of the process
    that starts it."""
    code = "import sys; sys.path.insert(0, 'src'); import quivrep; "
    code += "print(next(l.split()[1] for l in open('/proc/self/status') if l.startswith('VmHWM:')))"
    out = subprocess.run([sys.executable, "-c", code], cwd=tree, check=True, capture_output=True, text=True).stdout
    return int(out) / 1024


def run_once(tree: Path, workload: str, seed: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    out = subprocess.run(cmd, cwd=tree, check=True, capture_output=True, text=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    return {name: m["value"] for name, m in result["metrics"].items()} | {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
    }


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarise(pairs: list[dict]) -> dict:
    out = {}
    for metric in BENCH["end_to_end"]:
        name, higher = metric["name"], metric["better"] == "higher"
        parent = [p["parent"][name] for p in pairs]
        change = [p["change"][name] for p in pairs]
        wins = sum((c > b) if higher else (c < b) for b, c in zip(parent, change))
        ties = sum(c == b for b, c in zip(parent, change))
        base, new = spread(parent), spread(change)
        gap = (new["median"] - base["median"]) * (1 if higher else -1)
        limit = base["median"] * (1 - metric["bound"] if higher else 1 + metric["bound"])
        all_better = min(change) > max(parent) if higher else max(change) < min(parent)
        unresolved = (base["q3"] - base["q1"]) > metric["bound"] * base["median"] and not all_better
        out[name] = {
            "better": metric["better"],
            "bound": metric["bound"],
            "parent": base,
            "change": new,
            "median_ratio": new["median"] / base["median"],
            "ratios": [c / b for b, c in zip(parent, change)],
            "wins": wins,
            "losses": len(pairs) - wins - ties,
            "ties": ties,
            "gain": wins >= 0.9 * len(pairs) and gap > base["q3"] - base["q1"],
            "unresolved": unresolved,
            "within_bound": not unresolved and (new["median"] >= limit if higher else new["median"] <= limit),
        }
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--label", required=True, help="names the output file BENCH_<label>.json")
    parser.add_argument("--base", default="HEAD", help="parent revision (default HEAD)")
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    parser.add_argument("--tmp", help="directory for the exported trees")
    args = parser.parse_args()

    report = {
        "label": args.label,
        "machine": {"python": platform.python_version(), "platform": platform.platform(), "cpus": os.cpu_count()},
        "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(dir=args.tmp) as tmp:
        trees = {"parent": Path(tmp, "parent"), "change": Path(tmp, "change")}
        report["base"] = export_tree(args.base, trees["parent"])
        export_working_tree(trees["change"])
        report["change"] = "working tree"
        report["src_lines"] = src_lines(trees["parent"], trees["change"])
        report["src_files"] = src_files(trees["parent"], trees["change"])
        for tree in trees.values():
            compile_src(tree)
        report["import_rss_mb"] = {side: import_rss(tree) for side, tree in trees.items()}
        for workload in (w["name"] for w in BENCH["workloads"]):
            pairs = []
            for k in range(PAIRS):
                seed = args.seed + k
                order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = run_once(trees[side], workload, seed)
                pairs.append(pair)
                print(f"{workload} seed {seed}: " + ", ".join(
                    f"{side} {pair[side]['items_per_ref_s']:.4g}" for side in ("parent", "change")), flush=True)
            failed = {side: sum(p[side]["failed"] for p in pairs) for side in trees}
            report["workloads"][workload] = {"pairs": pairs, "failed": failed, "metrics": summarise(pairs)}
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
