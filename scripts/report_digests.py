#!/usr/bin/env python3
"""Digest the reports of eleven canned CLI runs.

    python3 scripts/report_digests.py [--json] [CHECKOUT]

Runs each case below through flagwalk.cli.main with one BLAS thread, in a
temporary directory, and prints one line per case: the first 12 hex digits
of the SHA-256 of report.json followed by series.csv, then the case name.
Two checkouts whose lines agree write byte-identical reports.  CHECKOUT is
the root of the checkout whose src/ is imported (default: this one).  With
--json it prints one JSON object instead: the python and numpy versions,
numpy's SIMD dispatch (dispatch()), the OpenBLAS core numpy's BLAS runs
on (blas_core()) and the digest of each case, the format of each set in
tests/report_digests.json.
"""

import contextlib
import ctypes
import glob
import hashlib
import io
import json
import os
import platform
import sys
import tempfile

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

JSON = "--json" in sys.argv[1:]
_ARGS = [a for a in sys.argv[1:] if a != "--json"]
ROOT = os.path.abspath(_ARGS[0] if _ARGS else
                       os.path.join(os.path.dirname(__file__), os.pardir))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

from flagwalk.cli import main as cli_main  # noqa: E402
from flagwalk.examples import mixed_sign_measure, volatile_measure  # noqa: E402


def _spec(mu):
    return [{"weight": w, "matrix": g.tolist()} for w, g in mu.atoms]


MIXED, VOLATILE = _spec(mixed_sign_measure()), _spec(volatile_measure())

# (name, config); the measure is default_measure() unless "mu" is set
CASES = [
    ("equidist ex-reducible", {"kind": "equidist", "example": "ex-reducible",
                               "n": 2500, "trials": 200, "seed": 5}),
    ("equidist mixed_sign", {"kind": "equidist", "mu": MIXED, "n": 2000,
                             "trials": 20, "seed": 6}),
    ("decompose ex-principal-sl3", {"kind": "decompose",
                                    "example": "ex-principal-sl3",
                                    "n": 2000, "trials": 50, "seed": 7}),
    ("walk default", {"kind": "walk", "n": 2000, "trials": 30, "seed": 8}),
    ("walk mixed_sign", {"kind": "walk", "mu": MIXED, "n": 2000,
                         "trials": 30, "seed": 9}),
    ("lyapunov default", {"kind": "lyapunov", "n": 2000, "trials": 300,
                          "seed": 4}),
    ("lyapunov volatile", {"kind": "lyapunov", "mu": VOLATILE, "n": 2000,
                           "trials": 1000, "seed": 1}),
    ("ldp volatile", {"kind": "ldp", "mu": VOLATILE, "trials": 5000,
                      "seed": 2}),
    ("renewal volatile", {"kind": "renewal", "mu": VOLATILE, "t": 25.0,
                          "trials": 6000, "k_max": 2600, "seed": 3}),
    ("classify ex-reducible", {"kind": "classify",
                               "example": "ex-reducible"}),
    ("drift default", {"kind": "drift"}),
]


def dispatch():
    """The SIMD targets numpy dispatches to in this process, sorted: the
    entries of its __cpu_dispatch__ that the CPU and NPY_DISABLE_CPU_FEATURES
    enable."""
    umath = np._core._multiarray_umath
    return sorted(t for t in umath.__cpu_dispatch__
                  if umath.__cpu_features__.get(t))


def blas_core():
    """The name of the core OpenBLAS picked its kernels for at load (it
    reads the CPU, or OPENBLAS_CORETYPE), from the OpenBLAS that numpy's
    wheel bundles; None where there is none or it cannot be read."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                        "numpy.libs", "libscipy_openblas64_*")
    for path in glob.glob(libs):   # the copy numpy has loaded already
        get = getattr(ctypes.CDLL(path), "scipy_openblas_get_corename64_",
                      None)
        if get is not None:
            get.restype = ctypes.c_char_p
            return get().decode()
    return None


def digest(config, work):
    path = os.path.join(work, "config.json")
    with open(path, "w") as fh:
        json.dump(config, fh)
    out = os.path.join(work, "out")
    with contextlib.redirect_stdout(io.StringIO()):   # the CLI summary line
        code = cli_main([config["kind"], "--config", path, "--out", out])
    if code == 1:
        raise SystemExit(f"configuration error in {config}")
    h = hashlib.sha256()
    for name in ("report.json", "series.csv"):
        with open(os.path.join(out, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:12]


def main():
    digests = {}
    for name, config in CASES:
        with tempfile.TemporaryDirectory() as work:
            digests[name] = digest(config, work)
        if not JSON:
            print(f"{digests[name]}  {name}", flush=True)
    if JSON:
        print(json.dumps({"python": platform.python_version(),
                          "numpy": np.__version__, "dispatch": dispatch(),
                          "blas_core": blas_core(), "digests": digests},
                         indent=2))


if __name__ == "__main__":
    main()
