"""Print the scalability table for generated trees.

Usage: python3 demos/sweep.py [--full]

Without --full only the depth-2 and depth-3 rows run (the full sweep is 48
rows; all of them finish in seconds, this just keeps the default output
short).
"""

import sys

from adtsched.generator import BENCH_ROWS, run_scalability


def main():
    rows = BENCH_ROWS if "--full" in sys.argv[1:] else \
        [r for r in BENCH_ROWS if r[0] <= 3]
    table = run_scalability(rows)
    for line in table.strip().splitlines():
        print("  ".join("%7s" % cell for cell in line.strip().split(",")))


if __name__ == "__main__":
    main()
