"""The host's speed, sampled on a timer while a pass runs.

On a shared host the same work can take 1.5 times as long for minutes
at a time: a fixed pure-Python loop timed 0.041 s for a minute and a
half, then 0.060 s for the next four, on a 2-vCPU Intel Xeon VM.  Raw
timings of passes minutes apart then differ by that much, whatever the
program does.  So every pass samples the speed while it runs, and the
end-to-end times are scaled to a reference speed.  The same host also
stops the VM's CPUs outright now and then (steal time, 4% of a busy
8 s there); ``stolen`` counts that time so that callers can leave it
out of wall-clock times.

Every ``INTERVAL_S`` a SIGALRM handler times ``kernel``, a fixed
pure-Python loop.  ``KERNEL_REF_S`` over its measured time is the host's
speed at that moment, and the mean over samples spread evenly in time
is the speed averaged over the interval: a time measured over the
interval, multiplied by that mean, is the time the same work would have
taken at the reference speed.  The handler's own time is kept in
``spent``; callers leave it out of the times they measure.

Imports only the standard library, so it can time the package import.
"""

import os
import signal
import statistics
import time

INTERVAL_S = 0.05
#: The kernel's time at the reference speed.  It took 0.54 to 0.9 ms on
#: the VM above, so scaled times are close to raw ones there.
KERNEL_REF_S = 0.6e-3


def kernel() -> None:
    total = 0
    for i in range(8000):
        total += i * i % 7


def stolen_s() -> float:
    """Seconds the hypervisor has kept this VM's CPUs from running, summed over them.

    Read from the ``steal`` column of ``/proc/stat``; 0 where the kernel
    does not report it.
    """
    try:
        with open("/proc/stat") as handle:
            fields = handle.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


class HostSpeed:
    """Context manager that samples ``kernel`` every ``INTERVAL_S`` while it is open."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        self.stolen = 0.0

    @staticmethod
    def _time_kernel() -> float:
        start = time.perf_counter()
        kernel()
        return time.perf_counter() - start

    def _sample(self, _signum, _frame):
        entered = time.perf_counter()
        self.samples.append(self._time_kernel())
        self.spent += time.perf_counter() - entered

    def __enter__(self):
        self.stolen = -stolen_s()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *_exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.stolen += stolen_s()
        if not self.samples:  # open for less than one interval
            self.samples.append(self._time_kernel())

    def speed(self) -> float:
        """Mean speed relative to the reference: above 1 is faster."""
        return statistics.mean(KERNEL_REF_S / sample for sample in self.samples)

    def kernel_ms(self) -> float:
        return statistics.median(self.samples) * 1e3
