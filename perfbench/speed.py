"""Machine-speed sampling, to take shared-host slowdowns out of timings.

On a shared host the same instructions can run 1.5x slower for seconds at
a time: other tenants load the same physical cores.  Wall time and CPU
time slow alike, so neither can serve as the cure.  `SpeedProbe` times a
fixed reference kernel every PERIOD_S seconds from a SIGALRM handler.
The handler runs in the benchmark's main thread, between the program's
bytecodes, so the samples see the machine state the program sees.  A
call's own time is its wall time minus the handler time inside it.
`scaled()` multiplies that by REFERENCE_NS over the mean kernel CPU time
around the call: a call's time is the sum of its moments, so it slows by
the mean of the machine's slowdowns while it runs, not by their median.
The result is the call's time at reference machine speed.  The kernel is
the benchmark's own code, so no change to the package can move it.

Calls that run pool workers are not scaled: kernel samples taken while
the workers run would count the program's own load as machine slowdown.
"""

import bisect
import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.02
# kernel CPU time at the host's fast state (Intel Xeon, 2 vCPU, numpy 2.4)
REFERENCE_NS = 150_000
_X = np.random.default_rng(0).normal(size=2048)


def kernel() -> int:
    """Fixed mix of numpy FFTs and interpreted arithmetic."""
    acc = 0
    for _ in range(2):
        acc += int(np.fft.irfft(np.fft.rfft(_X))[0] > 0)
    for i in range(1500):
        acc += i * i
    return acc


def slowdown_now(samples: int = 20) -> float:
    """Machine slowdown right now, for intervals too short to sample inside."""
    kernel()
    cpus = []
    for _ in range(samples):
        start = time.thread_time_ns()
        kernel()
        cpus.append(time.thread_time_ns() - start)
    return statistics.fmean(cpus) / REFERENCE_NS


class SpeedProbe:
    def __init__(self):
        self.starts = []        # perf_counter_ns at each sample start
        self.walls = []         # wall ns spent in the handler
        self.cpus = []          # kernel thread-CPU ns
        self._previous = None

    def _sample(self, signum, frame):
        start = time.perf_counter_ns()
        cpu = time.thread_time_ns()
        kernel()
        self.cpus.append(time.thread_time_ns() - cpu)
        self.starts.append(start)
        self.walls.append(time.perf_counter_ns() - start)

    def start(self) -> None:
        kernel()                                  # warm the kernel's code paths
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def scaled(self, start_ns: int, end_ns: int) -> float:
        """Seconds the interval [start, end] would take at reference speed."""
        lo = bisect.bisect_left(self.starts, start_ns)
        hi = bisect.bisect_left(self.starts, end_ns)
        own = (end_ns - start_ns) - sum(self.walls[lo:hi])
        pad = int(PERIOD_S * 1e9)
        near = self.cpus[bisect.bisect_left(self.starts, start_ns - pad):
                         bisect.bisect_left(self.starts, end_ns + pad)]
        factor = statistics.fmean(near) / REFERENCE_NS if near else 1.0
        return own / factor / 1e9

    def factor(self) -> float:
        """Median machine slowdown over the whole run (1.0 = reference speed)."""
        return statistics.median(self.cpus) / REFERENCE_NS if self.cpus else 1.0
