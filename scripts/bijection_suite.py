#!/usr/bin/env python3
"""Run the sortable <-> torsion-free bijection check over the Dynkin zoo
(all orientations of A1..A5, D4 and D5) and print a summary table.

    python3 scripts/bijection_suite.py [--field P] [--max-path N]
"""

import argparse
import time

from quivrep.linrep import FieldSpec
from quivrep.quiver import orientations
from quivrep.torsion import verify_bijection


def path_edges(n):
    return tuple((k, k + 1) for k in range(1, n))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--field", type=int, default=2, help="prime field characteristic")
    parser.add_argument("--max-path", type=int, default=5, help="largest path length to test")
    args = parser.parse_args()
    field = FieldSpec(args.field)

    zoo = []
    for n in range(1, args.max_path + 1):
        zoo += [(f"A{n}", q) for q in orientations(n, path_edges(n))]
    for n in (4, 5):
        # D_n: the path 1 - ... - (n-1) with vertex n attached to n-2
        zoo += [(f"D{n}", q) for q in orientations(n, path_edges(n - 1) + ((n - 2, n),))]

    print(f"{'type':6} {'arrows':34} {'sortable':>8} {'classes':>8} {'pass':>6} {'time':>8}")
    all_ok = True
    for label, q in zoo:
        start = time.perf_counter()
        report = verify_bijection(q, field)
        elapsed = time.perf_counter() - start
        arrows = " ".join(f"{s}>{t}" for s, t in q.arrows) or "-"
        print(
            f"{label:6} {arrows:34} {report.sortable_count:8d} {report.tfc_count:8d}"
            f" {str(report.passed).lower():>6} {elapsed:7.2f}s"
        )
        all_ok &= report.passed
    print("overall:", "pass" if all_ok else "FAIL")
    raise SystemExit(0 if all_ok else 1)


if __name__ == "__main__":
    main()
