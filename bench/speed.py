"""CPU speedometer: converts measured wall time into reference seconds.

The machines this benchmark runs on are shared, and the speed of one CPU
can change two- to threefold within seconds as other tenants come and go;
a wall time alone then says more about the neighbours than about primerec.
The speedometer runs a fixed kernel of big-integer and interpreter work
every ``PERIOD_S`` from a SIGALRM handler, in the thread being measured,
and records the kernel's thread CPU time.  Scaling a wall time by the mean
of ``REF_NS / sample`` gives the time the same work would take on a CPU
where the kernel takes ``REF_NS``.  The kernel costs about 1% of the
measured time (5% during set-up, which is sampled every 10 ms).
"""

from __future__ import annotations

import signal
import time

PERIOD_S = 0.05
REF_NS = 700_000  # kernel time at the reference speed

_X = 3**1300
_D = {i: (i, str(i)) for i in range(64)}


def _step(a: int, b: int) -> int:
    return (a + b) & 1023


def kernel() -> int:
    """Fixed work in the mix primerec does: big-integer products, then
    dict lookups, calls and small tuples."""
    acc = 0
    for i in range(60):
        acc += (_X * (_X + i)) >> 4000
    items = []
    for i in range(900):
        t = _D[i & 63]
        acc = _step(acc, t[0])
        if i & 7 == 0:
            items.append((acc, i))
    return acc + len(items)


def sample() -> int:
    t = time.thread_time_ns()
    kernel()
    return time.thread_time_ns() - t


class Speedometer:
    """Samples the kernel while running; ``factor`` is mean(REF_NS / sample)."""

    def __init__(self, period_s: float = PERIOD_S):
        self.period_s = period_s
        self.samples: list[int] = []

    def _tick(self, signum, frame) -> None:
        self.samples.append(sample())

    def __enter__(self) -> "Speedometer":
        self.samples.append(sample())
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)
        self.samples.append(sample())

    @property
    def factor(self) -> float:
        return sum(REF_NS / s for s in self.samples) / len(self.samples)
