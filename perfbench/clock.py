"""Reference-scaled timing: wall time corrected for the host's momentary speed.

On a shared virtual machine the same call's wall time can swing by 1.5x
for a tenth of a second up to tens of seconds at a time, when another
tenant loads the host.  A ``ScaledClock`` therefore times, next to each
call, a fixed reference kernel: right before the call, right after it and,
while it runs, every ``INTERVAL_S`` from a SIGALRM handler.  The call's
scaled time is its wall time (less the handler's) times (``REFERENCE_S``
over the kernel's mean time) to the power ``ELASTICITY``.  A slower program
makes the scaled time larger; a busier host slows the call and the kernel
together and cancels out.

The power is there because a busy host slows the kernel more than most
solvers: regressing log(call time) on log(kernel time) for one call
repeated through a busy spell gave slopes of 0.72-0.88 for the oracle and
the DPs, the default ``ELASTICITY``, but 0.86-1.21 for the simulator, whose
tight interpreter loops resemble the kernel (2-vCPU Xeon host, Python
3.11).  Each workload states its own power (``workloads.WORKLOADS``).
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import Any, Callable

# The kernel's time on an undisturbed 2.1 GHz Xeon vCPU (Python 3.11), so
# that scaled times read about as wall times on that machine.
REFERENCE_S = 0.0003
ELASTICITY = 0.8
INTERVAL_S = 0.01

_TABLE = {i: (i * 7919) % 1009 for i in range(512)}


def reference() -> int:
    """Dict lookups and integer arithmetic, the staple of the program's
    solvers.  It allocates nothing the garbage collector tracks, so running
    it inside a timed call never moves the call's collections."""
    table = _TABLE
    acc = 0
    for i in range(1200):
        acc += min(table.get(i & 511, 0), table.get((i * 31) & 511, 0))
    return acc


def reference_time() -> float:
    start = time.perf_counter()
    reference()
    return time.perf_counter() - start


class ScaledClock:
    """Times calls; after ``call``, ``elapsed`` is the call's wall time and
    ``scaled`` its reference-scaled time, both in seconds.

    With ``sampling`` off only the kernel runs before and after the call,
    so nothing runs inside it (the traced run's spans stay clean).  The
    SIGALRM handler is installed while the clock is open.
    """

    def __init__(self, sampling: bool = True, elasticity: float = ELASTICITY) -> None:
        self.sampling = sampling
        self.elasticity = elasticity
        self.armed = False
        self.samples: list[float] = []
        self.elapsed = 0.0
        self.scaled = 0.0
        self._previous = None

    def __enter__(self) -> "ScaledClock":
        if self.sampling:
            self._previous = signal.signal(signal.SIGALRM, self._sample)
        return self

    def __exit__(self, *exc) -> None:
        if self.sampling:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, signum, frame) -> None:
        # a signal that arrives after the call has ended is dropped
        if self.armed:
            self.samples.append(reference_time())

    def call(self, fn: Callable[[], Any]) -> Any:
        """``fn()``, timed; exceptions pass through with the times set."""
        before = reference_time()
        self.samples = []
        if self.sampling:
            self.armed = True
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        start = time.perf_counter()
        try:
            return fn()
        finally:
            stop = time.perf_counter()
            if self.sampling:
                signal.setitimer(signal.ITIMER_REAL, 0, 0)
                self.armed = False
            after = reference_time()
            self.elapsed = stop - start - sum(self.samples)
            speed = statistics.fmean([before, *self.samples, after])
            self.scaled = self.elapsed * (REFERENCE_S / speed) ** self.elasticity
