"""Benchmark entry point; run from the root of a dicut checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

dicut is imported from the checkout's ``src/``; without it the benchmark
exits with code 2 and prints no result.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def main() -> int:
    if not os.path.isfile(os.path.join(SRC, "dicut", "__init__.py")):
        print(f"perfbench: no dicut package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import bench

    return bench.main(sys.argv[1:], ROOT)


if __name__ == "__main__":
    sys.exit(main())
