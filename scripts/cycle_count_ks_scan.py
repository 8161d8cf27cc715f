#!/usr/bin/env python3
"""Scan the Kolmogorov-Smirnov distance between the normalized
cycle-count sample and its continuous limit law across n.

The distance plateaus near the exact lattice floor rather than falling
to zero: the statistic (m - log n)/sqrt(2 log n) sits on a grid of
spacing 1/sqrt(2 log n) because cycle counts are integers, so the
empirical CDF keeps macroscopic jumps however many samples are drawn.
The scan emits both the sampled KS distance and the exact distance of
the true lattice law (computed from the exact distribution of the
number of cycles) so the two can be compared directly.

Example:
    python3 scripts/cycle_count_ks_scan.py --samples 20000
"""

import argparse
import csv
import math
import os
import sys

from snchar import sampling as sp
from snchar import vanishing as vn


def exact_lattice_ks(n: int) -> float:
    """KS distance between the exact law of the cycle count (normalized)
    and the continuous limit. The exact law of m is the coefficient
    sequence of prod_{i<=n} ((i-1) + x)/i, evaluated in floats here since
    only ~1e-15 accuracy is needed. It is kept to its first
    64 + 4 log n terms and updated in place, so a factor costs O(log n)
    rather than O(n): the mass past that is far below 1e-15.
    """
    width = 64 + int(4 * math.log(n))
    poly = [1.0] + [0.0] * width
    for i in range(1, n + 1):
        stay, move = (i - 1) / i, 1 / i
        for m in range(min(i, width), 0, -1):
            poly[m] = poly[m] * stay + poly[m - 1] * move
        poly[0] *= stay
    center = math.log(n)
    scale = math.sqrt(2 * center)
    acc = 0.0
    dist = 0.0
    for m, mass in enumerate(poly):
        if mass == 0.0:
            continue
        x = (m - center) / scale
        f = vn.limit_cdf(x)
        dist = max(dist, abs(acc - f), abs(acc + mass - f))
        acc += mass
    return dist


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, nargs="*",
                    default=[100, 1000, 10_000, 100_000])
    ap.add_argument("--samples", type=int, default=20_000)
    ap.add_argument("--seed", type=int, default=sp.DEFAULT_SEED)
    ap.add_argument("--out", help="output CSV path (default stdout)")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    sink = open(args.out, "w", newline="") if args.out else sys.stdout
    writer = csv.writer(sink)
    writer.writerow(["n", "samples", "ks_sampled", "ks_exact_lattice",
                     "lattice_spacing"])
    for n in args.n:
        g = vn.goncharov_experiment(n, args.samples, args.seed)
        writer.writerow([
            n, args.samples,
            f"{g.ks_distance:.6f}",
            f"{exact_lattice_ks(n):.6f}",
            f"{1.0 / math.sqrt(2 * math.log(n)):.6f}",
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
