"""Golden report digests of the eleven canned CLI runs in
scripts/report_digests.py.

Byte-stability is a same-environment contract, so tests/report_digests.json
records the python and numpy versions, numpy's SIMD dispatch (the enabled
entries of numpy's __cpu_dispatch__; NPY_DISABLE_CPU_FEATURES changes them)
and the core OpenBLAS picked its kernels for at load (OPENBLAS_CORETYPE
changes it) it was written under, and the test skips under any other, as
the script itself reads them.  A change that alters a report on purpose
rewrites the file with

    python3 scripts/report_digests.py --json > tests/report_digests.json

and says which digests moved and why.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "report_digests.json")

pytestmark = pytest.mark.slow


def test_report_digests_match_the_golden_file():
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    out = json.loads(subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "report_digests.py"),
         "--json"], capture_output=True, text=True, check=True,
        timeout=600).stdout)
    env = ("python", "numpy", "dispatch", "blas_core")
    if any(out[k] != golden[k] for k in env):
        pytest.skip("digests written under " + ", ".join(
            f"{k} {golden[k]}" for k in env) + "; this is " + ", ".join(
            f"{k} {out[k]}" for k in env))
    assert out["digests"] == golden["digests"]
