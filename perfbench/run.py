"""Run one benchmark workload and print its result as the last line.

    python3 perfbench/run.py --workload oscillatory_tail --seed 1 --seconds 15 --trace 0

With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` they are the per-layer counts and self times of a traced
run.  See perfbench/README.md.
"""

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import harness  # noqa: E402


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="besselquad benchmark")
    p.add_argument("--workload", required=True, choices=harness.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        result = harness.run(args.workload, args.seed, args.seconds, bool(args.trace))
    except harness.LibraryMissing as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
