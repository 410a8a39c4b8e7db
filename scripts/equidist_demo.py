#!/usr/bin/env python3
"""Small-scale equidistribution demo.

Runs the Cesàro fibre distribution of the capped shortest-vector observable
against the one-period law of its closed diagonal orbit at a reduced sample
size and prints the comparison.  Artifacts land in ./equidist-demo/.
"""

import sys

from flagwalk.cli import main as cli_main


def main():
    return cli_main(["equidist", "--example", "ex-reducible",
                     "--steps", "20000", "--trials", "40",
                     "--ks-tol", "0.1", "--corr-tol", "0.1",
                     "--out", "equidist-demo"])


if __name__ == "__main__":
    sys.exit(main())
