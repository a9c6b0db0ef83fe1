#!/usr/bin/env python3
"""Checks on the benchmark itself.

    python3 perfbench/selfcheck.py            # completeness check on A3
    python3 perfbench/selfcheck.py --smoke    # plus every workload on two seeds

Completeness: on A3 quivers, run every traced layer (the bijection over F_2,
oracle tables over F_3, the sortable round trip, one ext1_dim) with the
tracer installed and cProfile running at once, and require the traced call
count of each wrapped function to equal cProfile's ncalls for the original
(for a generator, cProfile counts each resumption, so compare resumptions),
and require a function missing from the program to be recorded as absent.

Smoke: run each workload untraced on two different seeds and require
``correct`` with every golden gate passed.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import pstats
import subprocess
import sys
from pathlib import Path

import run

SMOKE_SEEDS = (11, 12)


def completeness() -> bool:
    Q = run.import_quivrep()
    from tracer import Tracer

    tracer = Tracer(run.layer_targets())
    originals = {}
    for module_name, func_name in tracer.targets:
        module = sys.modules[f"quivrep.{module_name}"]
        originals[f"{module_name}.{func_name}"] = getattr(module, func_name)
    tracer.install()

    profile = cProfile.Profile()
    profile.enable()
    for bits in range(4):
        q = Q.Quiver(3, ((1, 2) if bits & 1 else (2, 1), (2, 3) if bits & 2 else (3, 2)))
        Q.verify_bijection(q, Q.F2)
        indecs = Q.all_indecomposables(q, Q.F3)
        for rep in indecs.values():
            for sub, _ in Q.enumerate_subreps(rep):
                Q.decompose(sub)
            for other in indecs.values():
                Q.ext1_dim(rep, other)
                for mid in Q.enumerate_extensions(rep, other):
                    Q.decompose(mid)
        for w in Q.enumerate_c_sortable(q):
            Q.sortable_of_tfc(q, Q.tfc_of_sortable(q, w))
    profile.disable()

    stats = pstats.Stats(profile).stats
    ok = True
    for key, original in originals.items():
        code = original.__code__
        entry = stats.get((code.co_filename, code.co_firstlineno, code.co_name))
        profiled = entry[1] if entry else 0
        stat = tracer.stats[key]
        traced = stat.resumes if stat.resumes else stat.calls
        match = traced == profiled and traced > 0
        ok &= match
        print(f"{'ok ' if match else 'BAD'} {key:34} traced {traced:7d}  cProfile {profiled:7d}")
    missing = Tracer([("linrep", "no_such_function")])
    missing.install()
    absent_ok = missing.absent == ["linrep.no_such_function"] and missing.metric("linrep.no_such_function.calls") == 0
    ok &= absent_ok
    print(f"{'ok ' if absent_ok else 'BAD'} a missing function is recorded as absent, its metrics read 0")
    return ok


def smoke() -> bool:
    ok = True
    for workload in run.BENCH["workloads"]:
        for seed in SMOKE_SEEDS:
            cmd = [sys.executable, str(Path(run.__file__).resolve()), "--workload", workload["name"],
                   "--seed", str(seed), "--setup-samples", "1"]
            lines = subprocess.run(cmd, check=True, cwd=run.ROOT, capture_output=True, text=True).stdout.splitlines()
            info = json.loads(lines[-2])["info"]
            result = json.loads(lines[-1])
            passed = result["correct"] and result["failed"] == 0 and all(info["gates"].values())
            ok &= passed
            print(f"{'ok ' if passed else 'BAD'} {workload['name']:20} seed {seed}: "
                  f"{result['attempted']} items, gates {info['gates']}, arrows {info.get('arrows', '-')}")
    return ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--smoke", action="store_true", help="also run every workload on two seeds")
    args = parser.parse_args()
    ok = completeness()
    if args.smoke:
        ok &= smoke()
    print("selfcheck:", "pass" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
