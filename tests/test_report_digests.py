"""Golden report digests of the eleven canned CLI runs in
scripts/report_digests.py.

Byte-stability is a same-environment contract, so tests/report_digests.json
records the python and numpy versions it was written under, and the test
skips under any other pair.  A change that alters a report on purpose
rewrites the file with

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


def test_report_digests_match_the_golden_file():
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    here = {"python": platform.python_version(), "numpy": np.__version__}
    if {k: golden[k] for k in here} != here:
        pytest.skip(f"digests written under python {golden['python']}, "
                    f"numpy {golden['numpy']}; this is python "
                    f"{here['python']}, numpy {here['numpy']}")
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "report_digests.py"),
         "--json"], capture_output=True, text=True, check=True, timeout=600)
    assert json.loads(out.stdout)["digests"] == golden["digests"]
