#!/usr/bin/env python3
"""Run the sortable <-> torsion-free bijection check on every orientation of
the named Dynkin types and print a summary table.

    python3 scripts/bijection_suite.py [--field {2,3}] [LABEL ...]

A label is A<n> (n >= 1), D<n> (n >= 4), E6, E7 or E8, its graph as
quivrep.quiver.dynkin_graph builds it.  With no label the zoo is A1..A5,
D4, D5, D6 and E6, 119 quivers.  The script exits 1 if any quiver fails,
and prints under a failing quiver's row the checks it failed and the gaps
of its report.

A type whose Coxeter-Catalan count passes SORTABLE_GUARD, the one guard of
both enumerations, is refused before any orientation is listed, and the
script exits 1 without running a quiver: A11 (208,012) and D10 (136,136)
are the largest A and D types admitted, A12 and D11 are refused.

``A8`` runs 128 orientations, ``A9`` 256, ``A10`` 512 and ``A11`` 1,024.
Over F_2 on a 2-core Xeon VM with Python 3.11.7, from a fresh process
and timed as this script times a quiver, linear A8 took 0.16 s, A9 0.56 s
and A10 1.9 s in one run each, and A11 6.7 s, the median of three, with a
peak RSS of 111 MB; the default zoo took 3.8 s, and all 64 orientations of
E7 28 s over F_2 and 37 s over F_3.  Such a VM has run up to twice
as fast on some days as on others, so compare ratios rather than absolute
times.
"""

import argparse
import time

from quivrep.errors import InvalidParameterError
from quivrep.linrep import ENUMERATION_PRIMES, FieldSpec
from quivrep.quiver import DynkinType, dynkin_graph, orientations
from quivrep.torsion import SORTABLE_GUARD, verify_bijection

ZOO = ("A1", "A2", "A3", "A4", "A5", "D4", "D5", "D6", "E6")
CHECKS = ("counts_equal", "image_in_classes", "injective", "round_trip")


def dynkin_label(text):
    try:
        dynkin_graph(text)
    except InvalidParameterError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return text


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--field", type=int, default=2, choices=ENUMERATION_PRIMES, help="prime field characteristic")
    parser.add_argument("labels", nargs="*", type=dynkin_label, default=ZOO, metavar="LABEL", help="a Dynkin type")
    args = parser.parse_args()
    field = FieldSpec(args.field)

    counts = {label: DynkinType((label,)).coxeter_catalan for label in args.labels}
    refused = [label for label, count in counts.items() if count > SORTABLE_GUARD]
    for label in refused:
        print(f"{label}: refused, {counts[label]:,} c-sortables exceed SORTABLE_GUARD = {SORTABLE_GUARD:,}")
    if refused:
        raise SystemExit(1)

    print(f"{'type':6} {'arrows':34} {'sortable':>8} {'classes':>8} {'pass':>6} {'time':>8}")
    all_ok = True
    zoo_start = time.perf_counter()
    for label in args.labels:
        for q in orientations(*dynkin_graph(label)):
            start = time.perf_counter()
            report = verify_bijection(q, field)
            elapsed = time.perf_counter() - start
            arrows = " ".join(f"{s}>{t}" for s, t in q.arrows) or "-"
            print(
                f"{label:6} {arrows:34} {report.sortable_count:8d} {report.tfc_count:8d}"
                f" {str(report.passed).lower():>6} {elapsed:7.2f}s"
            )
            if not report.passed:
                print("  failed:", ", ".join(name for name in CHECKS if not getattr(report, name)) or "-")
                for gap in report.gaps:
                    print("  gap:", gap)
            all_ok &= report.passed
    print("overall:", "pass" if all_ok else "FAIL", f"in {time.perf_counter() - zoo_start:.2f}s")
    raise SystemExit(0 if all_ok else 1)


if __name__ == "__main__":
    main()
