#!/usr/bin/env python3
"""Classify every canned example and print a one-line verdict for each.

Exits 1 if any example is classified other than as expected, else 0.
"""

import sys

from flagwalk.classifier import classify
from flagwalk.examples import list_examples


def main():
    code = 0
    for ex in list_examples():
        label = classify(ex.flag, ex.embedding)
        status = "ok"
        if label.label != ex.expected_case:
            status, code = "MISMATCH", 1
        print(f"{ex.name:<20} {label.label:<9} expected {ex.expected_case:<9}"
              f" [{status}]  {ex.description}")
    return code


if __name__ == "__main__":
    sys.exit(main())
