#!/usr/bin/env python3
"""Which short cat-map orbits equidistribute?

Scans all rational periodic orbits up to a period and denominator bound
and ranks them by weak-* distance to Lebesgue over the Fourier modes
of bound 3.
"""

import argparse
import time

from symshadow.measures import LebesgueTorus, fourier_family, rational_orbit_distances
from symshadow.systems import cat_map


def run(args):
    start = time.time()
    ranked = sorted((d, len(orbit), q, (i, j)) for (i, j, q), orbit, d in
                    rational_orbit_distances(LebesgueTorus(), cat_map(), fourier_family(3),
                                             args.max_period, args.max_denominator))
    print(f"{len(ranked)} orbits of period <= {args.max_period} with "
          f"denominator <= {args.max_denominator} in {time.time() - start:.1f}s")
    print(f"{'distance':>10} {'period':>7} {'q':>4}  start")
    for d, period, q, start_pt in ranked[:args.top]:
        print(f"{d:>10.5f} {period:>7} {q:>4}  ({start_pt[0]}/{q}, {start_pt[1]}/{q})")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-period", type=int, default=30)
    parser.add_argument("--max-denominator", type=int, default=40)
    parser.add_argument("--top", type=int, default=10)
    run(parser.parse_args())


if __name__ == "__main__":
    main()
