#!/usr/bin/env python3
"""Conditioning experiment: sgd / rmsprop / prong on the small tanh
classifier, with per-layer Fisher condition-number series and the exact
middle-layer Fisher block before and after whitening, saved as float64
``fisher_middle_before.npy`` and ``fisher_middle_after.npy`` (read them with
``numpy.load``).

Usage: python scripts/run_conditioning.py [--out runs/conditioning] [--seed N]
"""

import argparse
import sys

from whitenet.cli import main as cli_main


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="runs/conditioning")
    parser.add_argument("--seed", type=int, default=None)
    args = parser.parse_args()
    argv = ["diagnose-fisher", "--preset", "cond-mlp-desk", "--out", args.out]
    if args.seed is not None:
        argv += ["--seed", str(args.seed)]
    return cli_main(argv)


if __name__ == "__main__":
    sys.exit(main())
