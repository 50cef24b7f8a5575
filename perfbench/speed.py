"""Machine-speed probe: scene times in reference seconds.

The reference machine is a share of a busy host: a fixed pure-Python
loop there runs in phases near 0.21 s and near 0.31 s, lasting seconds to
minutes, so two runs of the same code minutes apart differ by 20-30% in
wall time.  lmcanal is interpreter-bound in the same way as that loop
(measured on the reference machine: interleaving 15 ms of the loop with
28 ms of ``evaluate_point`` calls for 40 s, 4-second windows of lmcanal
time spread 0.15-0.22 IQR over median, the ratio of the two 0.02-0.06).

So every timed interval runs a short fixed ``kernel`` now and then and
converts its wall time to *reference seconds*: the time the interval would
have taken on a machine that runs the kernel in ``REFERENCE_S``.  A change
to lmcanal moves reference seconds exactly as it moves wall seconds; a
change in the host's speed moves both the interval and the kernel, and
cancels.  Wall times are printed alongside.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time

#: Kernel wall time on the reference machine (its median over one run
#: ranged 3.6-4.3 ms).  Only the unit depends on it: on a machine that
#: runs the kernel in this time, reference seconds are wall seconds.
REFERENCE_S = 0.0040
#: Kernel loop length: about 4 ms per probe on the reference machine.
KERNEL_ITERS = 25_000
#: Seconds between probes while an interval is being timed.
INTERVAL_S = 0.1
#: Probes right before and right after a timed interval, so that short
#: intervals are covered too.
EDGE_PROBES = 3


def _step(acc: float, x: float) -> float:
    return acc * 0.5 + x * 0.25


def kernel() -> float:
    """Fixed pure-Python work: float arithmetic and function calls."""
    acc = 0.0
    for i in range(KERNEL_ITERS):
        acc = _step(acc, float(i))
    return acc


def reference_s(wall_s: float, samples) -> float:
    """``wall_s`` in reference seconds, at the mean speed of the kernel
    probes that took ``samples`` seconds each.

    Probes are spread evenly over the interval, so the mean of the
    per-probe speeds is the time-average of the machine's speed."""
    return wall_s * statistics.fmean(REFERENCE_S / s for s in samples)


class SpeedProbe:
    """Times ``kernel`` probes; ``reference_s`` converts wall time.

    ``periodic()`` is a context manager that also probes every
    ``INTERVAL_S`` seconds from a SIGALRM handler, which the interpreter
    runs between bytecodes of whatever code is being timed.  The probes'
    own wall time is kept in ``probe_s`` so that it can be taken out of the
    interval that contains them.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.probe_s = 0.0

    def probe(self, n: int = 1) -> None:
        for _ in range(n):
            start = time.perf_counter()
            kernel()
            elapsed = time.perf_counter() - start
            self.samples.append(elapsed)
            self.probe_s += elapsed

    def _on_alarm(self, signum, frame):
        self.probe()

    @contextlib.contextmanager
    def periodic(self):
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def reference_s(self, wall_s: float) -> float:
        return reference_s(wall_s, self.samples)
