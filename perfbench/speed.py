"""Machine-speed calibration: scales measured times to a reference speed.

The benchmark runs on CPUs shared with other work.  On the 2-vCPU Xeon it
was written on, the fastest of ~130 runs of a fixed Python loop in each
second ranged from 6.3 to 10.2 ms over 150 s, in slow spells of 1 to 30 s,
so a whole 25 s run could be 30-50 % slow.  A short calibration kernel is
therefore timed again and again, and each op's time t is reported as
t * REF_S / c, where c is the mean kernel time of the samples taken during
the op and just before and after it: the time the op would take on the
machine at its reference speed.  The scaled times of ops of 10 ms to 0.1 s track the
kernel with a slope of 1.0 (log op time against log kernel time over
repeats of the same op).  Runs on one machine compare with each
other; the raw times are printed too.

Ops that run in this thread are sampled from inside, by a timer signal whose
handler runs the kernel between two bytecodes of the op; the handler's time
is taken out of the op's time.  Ops that wait on other processes (a process
pool, a cold start) are sampled before and after only, because a sample
taken while they run would compete with them for the CPU.
"""

from __future__ import annotations

import bisect
import contextlib
import math
import os
import signal
from time import perf_counter

import numpy as np

REF_S = 0.000400   # kernel time at the reference speed
EVERY_S = 0.05     # timer period while sampling inside ops
SAMPLE_RUNS = 3    # a sample is the fastest of this many kernel runs
_EYE = np.eye(6)


def kernel() -> int:
    """Interpreter-bound integer work plus small-matrix numpy calls, the two
    kinds of work tnm's ops consist of."""
    s = 0
    for i in range(1, 1500):
        s += math.gcd(i * 7919, 104729 * i + 1)
    a = _EYE * 0.5
    for _ in range(60):
        a = (a @ a) * 0.3 + _EYE * 0.1
    return s


def _fastest_kernel() -> float:
    """The fastest of SAMPLE_RUNS kernel runs, which keeps an interrupt or a
    garbage collection inside one run out of the sample."""
    best = math.inf
    for _ in range(SAMPLE_RUNS):
        t0 = perf_counter()
        kernel()
        best = min(best, perf_counter() - t0)
    return best


class Speed:
    """A time series of kernel samples, and the scaled time of an interval.

    cpus: the CPUs the ops run on; with more than one, a sample is the mean
    over them, taken by moving this process from one to the next.
    in_op: sample from a timer signal while ops run, not only between them.
    """

    def __init__(self, cpus, in_op: bool) -> None:
        self.cpus = sorted(cpus)
        self.in_op = in_op
        self.starts: list[float] = []
        self.stamps: list[float] = []
        self.samples: list[float] = []

    def take(self, *_signal_args) -> None:
        start = perf_counter()
        if len(self.cpus) > 1:
            times = []
            for cpu in self.cpus:
                os.sched_setaffinity(0, {cpu})
                times.append(_fastest_kernel())
            os.sched_setaffinity(0, self.cpus)
            sample = sum(times) / len(times)
        else:
            sample = _fastest_kernel()
        self.starts.append(start)
        self.stamps.append(perf_counter())
        self.samples.append(sample)

    @contextlib.contextmanager
    def sampling(self):
        """Sample at the start and the end, and every EVERY_S in between
        when in_op is set."""
        self.take()
        if self.in_op:
            previous = signal.signal(signal.SIGALRM, self.take)
            signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        try:
            yield
        finally:
            if self.in_op:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
            self.take()

    def between_ops(self) -> None:
        if not self.in_op:
            self.take()

    def scaled(self, t0: float, t1: float) -> tuple[float, float]:
        """(time, time at reference speed) of the interval t0..t1, without
        the samples taken inside it.  The speed is the mean over the last
        sample before the interval, those inside it and the first after it."""
        i = bisect.bisect_right(self.stamps, t0) - 1
        j = bisect.bisect_left(self.stamps, t1)
        inside = sum(self.stamps[k] - self.starts[k] for k in range(i + 1, min(j, len(self.stamps))))
        around = self.samples[max(i, 0): j + 1]
        net = t1 - t0 - inside
        return net, net * REF_S * len(around) / sum(around)

    def factors(self) -> list[float]:
        return [REF_S / c for c in self.samples]
