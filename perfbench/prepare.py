"""Benchmark set-up step: write one workload's input CSV and run manifest.

It runs as its own process, so its wall time covers interpreter start,
``import robust_coords``, synthetic-data generation and the writes:

    python3 perfbench/prepare.py --workload roll-desk --seed 0 --out DIR [--toy]
"""

import argparse
from pathlib import Path

import workloads


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--toy", action="store_true")
    args = parser.parse_args()
    workloads.write_inputs(workloads.spec_for(args.workload, args.seed, args.toy), args.out)


if __name__ == "__main__":
    main()
