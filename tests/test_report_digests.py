"""Golden report digests of the eleven canned CLI runs in
scripts/report_digests.py, under each numpy dispatch class of SETTINGS.

Byte-stability is a same-environment contract, so each set in
tests/report_digests.json records the python and numpy versions, numpy's
SIMD dispatch (the enabled entries of numpy's __cpu_dispatch__;
NPY_DISABLE_CPU_FEATURES changes them) and the core OpenBLAS picked its
kernels for at load (OPENBLAS_CORETYPE changes it) it was written under,
as the script itself reads them.  The file is a JSON list of such sets, one
per class.  The test runs the script under each setting and compares every
run with the set of its own environment; it skips, saying why, when no run
has one.  A change that alters a report on purpose replaces each set with

    python3 scripts/report_digests.py --json

run under that set's setting, and says which digests moved and why.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "report_digests.json")
ENV = ("python", "numpy", "dispatch", "blas_core")
# this process's environment, and numpy's X86_V3 loops on an AVX-512 host
SETTINGS = ({}, {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"})

pytestmark = pytest.mark.slow


def test_report_digests_match_the_golden_file():
    with open(GOLDEN) as fh:
        golden = {tuple(map(str, (s[k] for k in ENV))): s["digests"]
                  for s in json.load(fh)}
    checked, other = 0, set()
    for setting in SETTINGS:
        run = subprocess.run(
            [sys.executable, os.path.join(ROOT, "scripts", "report_digests.py"),
             "--json"], capture_output=True, text=True, timeout=600,
            env={**os.environ, **setting}, check=not setting)
        if run.returncode:   # a setting numpy on this host cannot take
            other.add(f"{setting}: {run.stderr.strip()}")
            continue
        out = json.loads(run.stdout)
        env = tuple(map(str, (out[k] for k in ENV)))
        if env not in golden:
            other.add(", ".join(f"{k} {v}" for k, v in zip(ENV, env)))
            continue
        assert out["digests"] == golden[env], setting
        checked += 1
    if not checked:
        pytest.skip("no digest set for this host's environments: "
                    + "; ".join(sorted(other)))
