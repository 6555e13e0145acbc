"""A clock that runs at a fixed reference CPU speed.

Each vCPU of the shared 2-CPU guest the benchmark was built on switches,
every few seconds, between a fast and a slow mode about 1.5 times slower;
the two vCPUs switch independently. Plain wall time of a 7 s op therefore
moves by up to 50% with the mix of modes it ran in, whatever the program
does. The reference clock takes that mix out. While running, it samples
the current CPU speed every 25 ms of process CPU time (``SIGPROF``): the
signal handler times a short fixed Python loop, in the process's own
thread and so on the CPU the program is running on. Each stretch of wall
time between two samples is scaled by ``SPIN_REF_S / loop time`` of the
sample that ends it (or of the one before, if faster), so ``now()``
advances by the seconds a CPU running the loop in ``SPIN_REF_S`` would
have taken. The samples cost about 2% of the run, and they run on both
commits a comparison covers.
"""

import signal
import time

SPIN_ITERATIONS = 10_000
SPIN_REF_S = 4e-4  # the loop's time in the fast mode of the guest it was built on
INTERVAL_S = 0.025


def _spin() -> None:
    total = 0
    for i in range(SPIN_ITERATIONS):
        total += i


class RefClock:
    """``now()`` is a monotonic time in reference seconds, as
    ``time.perf_counter()`` is one in wall seconds."""

    def __init__(self):
        self._last = time.perf_counter()
        self._ref = 0.0
        self._factor = 1.0
        self._spin_s = float("inf")

    def _sample(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        _spin()
        t1 = time.perf_counter()
        # the faster of two neighbouring samples: an interrupt only ever
        # makes a sample slower, a mode switch shows one sample later
        spin_s, self._spin_s = self._spin_s, t1 - t0
        self._factor = SPIN_REF_S / min(spin_s, self._spin_s)
        self._ref += (t0 - self._last) * self._factor + SPIN_REF_S
        self._last = t1

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        # SIGPROF's default action ends the process; one may still be pending
        signal.signal(signal.SIGPROF, signal.SIG_IGN)

    def now(self) -> float:
        # a sample taken between the two reads would be counted twice
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGPROF})
        try:
            return self._ref + (time.perf_counter() - self._last) * self._factor
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGPROF})
