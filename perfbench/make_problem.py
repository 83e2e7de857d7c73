"""Set-up step of the CLI workload: a fresh interpreter imports poisson_kam,
builds the workload's problem from the seed and writes the problem file.

    python3 perfbench/make_problem.py --workload cli_benchmark --seed 0 --out problem.json
"""

import argparse
import sys


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    import workloads

    workloads.build(args.workload, args.seed).save(args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
