"""Host-speed reference for every end-to-end time the benchmark reports.

The benchmark runs on a few virtual cores of a shared host.  The same code
there runs at speeds up to about 1.8x apart: the core switches between a fast
and a slow state, for spans from milliseconds to minutes, with no steal time
and with CPU time slowing as much as wall time.  A median over one run cannot
remove that, because whole runs can fall in a slow spell.

So, while the benchmark times an op, a SIGALRM interval timer runs a small
fixed reference kernel every PERIOD_S seconds, in the same thread, and
records how long it took.  The kernel is benchmark code only: Python
bytecode, small-matrix numpy calls and vector arithmetic, the mix the
program's ops are made of.  An op's time is then reported as

    wall seconds * REFERENCE_S / (mean kernel time sampled during the op)

that is, in seconds on a host where the kernel takes REFERENCE_S, close to
this host's fast state.  A change to the program moves the op's wall time
and not the kernel, so it shows in full; a slow spell of the host moves both.
The handler runs between bytecodes, so a sample falls after a native call
that was running when the timer fired; it still measures the host at that
moment.  The kernel adds about 1 % to each op's wall time.
"""

import bisect
import signal
import time
from array import array

import numpy as np

PERIOD_S = 0.02
# The kernel's time on the host in its fast state (2-vCPU VM, Python 3.11,
# numpy 2.4, 2.1 GHz); scaled times are seconds on such a host.
REFERENCE_S = 2.0e-4

_M = np.array([[0.9, 0.3], [0.2, 0.8]])
_V = np.linspace(0.5, 1.5, 4096)


def kernel():
    x = _M
    s = 0.0
    for i in range(40):
        x = x @ _M
        x = x / abs(x[0, 0])
        s += i * 0.5
    y = _V
    for _ in range(4):
        y = np.log(y * _V + 1.0) + np.sqrt(_V)
    n = 0
    for i in range(600):
        n += i * i % 7
    return s + float(y[0]) + n


class Pace:
    """Samples the reference kernel on a timer while running() is active."""

    def __init__(self):
        self.at = array("d")
        self.took = array("d")

    def _sample(self, signum, frame):
        t = time.perf_counter()
        kernel()
        self.at.append(t)
        self.took.append(time.perf_counter() - t)

    def start(self):
        kernel()  # first call pays for lazy numpy set-up
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, start, end):
        """REFERENCE_S over the mean kernel time sampled in [start, end];
        with no sample inside, the first one after it (or the last one)."""
        lo = bisect.bisect_left(self.at, start)
        hi = bisect.bisect_right(self.at, end)
        if hi > lo:
            took = self.took[lo:hi]
            return REFERENCE_S * len(took) / sum(took)
        if not self.took:
            raise RuntimeError("no host-speed sample was taken")
        return REFERENCE_S / self.took[min(lo, len(self.took) - 1)]

    def slowdown(self):
        """Quartiles of kernel time / REFERENCE_S over every sample."""
        vals = sorted(t / REFERENCE_S for t in self.took)
        if not vals:
            return []
        return [vals[int(q * (len(vals) - 1))] for q in (0.25, 0.5, 0.75)]
