"""Golden report digests of the eleven canned CLI runs in
scripts/report_digests.py.

Byte-stability is a same-environment contract, so tests/report_digests.json
records the python and numpy versions and numpy's SIMD dispatch (the
enabled entries of numpy's __cpu_dispatch__; NPY_DISABLE_CPU_FEATURES
changes them) it was written under, and the test skips under any other.
The BLAS kernel OpenBLAS picks at load also moves some digests and is not
recorded.  A change that alters a report on purpose rewrites the file with

    python3 scripts/report_digests.py --json > tests/report_digests.json

and says which digests moved and why.
"""

import json
import os
import platform
import subprocess
import sys

import numpy as np
import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "report_digests.json")

pytestmark = pytest.mark.slow


def _dispatch():
    """numpy's enabled SIMD dispatch targets, sorted, as the script's
    dispatch() records them."""
    umath = np._core._multiarray_umath
    return sorted(t for t in umath.__cpu_dispatch__
                  if umath.__cpu_features__.get(t))


def test_report_digests_match_the_golden_file():
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    here = {"python": platform.python_version(), "numpy": np.__version__,
            "dispatch": _dispatch()}
    if {k: golden.get(k) for k in here} != here:
        pytest.skip(f"digests written under python {golden['python']}, "
                    f"numpy {golden['numpy']}, dispatch "
                    f"{golden.get('dispatch')}; this is python "
                    f"{here['python']}, numpy {here['numpy']}, dispatch "
                    f"{here['dispatch']}")
    out = json.loads(subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "report_digests.py"),
         "--json"], capture_output=True, text=True, check=True,
        timeout=600).stdout)
    assert out["dispatch"] == here["dispatch"]
    assert out["digests"] == golden["digests"]
