"""How fast the host runs this process right now.

On the shared machine the README describes, the same code runs up to 1.8x
slower for seconds to minutes at a time, in CPU time as much as in wall
time, because of load outside the VM. A fixed loop of small LAPACK calls
slows down with it (and slows the way chamberwalk's small-matrix Python
code does), so timing that loop gives the host's slowdown: its time over
its time at full speed on that machine. The benchmark divides measured
times by the slowdown measured while they ran.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

CAL_MATRIX = np.arange(9.0).reshape(3, 3) + np.eye(3)
#: one qr call of the loop at full host speed on the reference machine
REF_CALL_S = 18.75e-6
#: calls per sample taken during a pass, and the sampling interval
SAMPLE_CALLS = 100
SAMPLE_INTERVAL_S = 0.1


def _loop(calls: int) -> float:
    t = time.perf_counter()
    for _ in range(calls):
        np.linalg.qr(CAL_MATRIX)
    return time.perf_counter() - t


class HostMeter:
    """Samples the slowdown every SAMPLE_INTERVAL_S while a pass runs.

    Samples run from SIGALRM in the main thread, between bytecodes of the
    pass; ``spent`` is the time they took, to be taken off the pass's
    wall and CPU time.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0

    def _sample(self, signum=None, frame=None) -> None:
        took = _loop(SAMPLE_CALLS)
        self.samples.append(took)
        self.spent += took

    def __enter__(self) -> "HostMeter":
        self.samples.clear()
        self._sample()
        self.spent = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def slowdown(self) -> float:
        return statistics.fmean(self.samples) / (SAMPLE_CALLS * REF_CALL_S)
