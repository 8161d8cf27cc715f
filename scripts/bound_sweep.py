#!/usr/bin/env python3
"""Sweep the vanishing-probability bound over a range of n and emit a CSV
series: exact P_n (where the full table is feasible), Q_n, R_n, and the
lower bound, for a configurable threshold constant.

Example:
    python3 scripts/bound_sweep.py --n-min 5 --n-max 500 --exact-max 20
"""

import argparse
import csv
import os
import sys

from snchar import vanishing as vn


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n-min", type=int, default=5)
    ap.add_argument("--n-max", type=int, default=30)
    ap.add_argument("--exact-max", type=int, default=20,
                    help="largest n for which exact P_n is computed")
    ap.add_argument("--C", type=float, default=vn.DEFAULT_C, dest="c")
    ap.add_argument("--strict", action="store_true")
    ap.add_argument("--out", help="output CSV path (default stdout)")
    args = ap.parse_args(argv)
    if args.n_min < 2:
        ap.error("--n-min must be >= 2")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = vn.OmegaSpec(c=args.c, strict=args.strict)
    sink = open(args.out, "w", newline="") if args.out else sys.stdout
    writer = csv.writer(sink)
    writer.writerow([
        "n", "p_n", "omega_count", "threshold", "q_n", "r_n",
        "lower_bound", "exact_p",
    ])
    for n in range(args.n_min, args.n_max + 1):
        rep = vn.lemma_bound(n, spec, compute_exact=n <= args.exact_max)
        writer.writerow([
            rep.n, rep.p_n, rep.omega_count, spec.min_first_part(n),
            f"{float(rep.q_n):.10f}", f"{float(rep.r_n):.10f}",
            f"{float(rep.lower_bound):.10f}",
            f"{float(rep.exact_p):.10f}" if rep.exact_p is not None else "",
        ])
    if args.out:
        sink.close()
    return 0


if __name__ == "__main__":
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early (say, `| head`): stop quietly, and
        # point stdout at devnull so the flush at exit raises nothing either
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    raise SystemExit(code)
