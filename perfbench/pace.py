"""Host pace: a fixed probe timed all through a run, to scale its times.

The benchmark shares a host whose speed for interpreter-bound work drifts by
up to 60% within a minute.  A run's raw times carry that drift.  This module
times a small fixed probe, a mix of interpreter loops and short numpy calls
like the ones the package's metric functions make, every ``INTERVAL_S``
while the workload runs, from a SIGALRM handler in the main thread.  The
probe is timed in thread CPU time: while the sweep pool's workers run, the
main thread may wait for the GIL or a core, and that wait is not host speed.

A timed operation has the probe's wall time inside it taken out (see
``Pace.spent``).  ``scale(samples)`` is ``REFERENCE_S`` over the median of
the probe times taken while a class of requests ran, so a time multiplied
by it reads as on a host where the probe takes ``REFERENCE_S``.  The probe
never changes and is not the package's code, so a change to the package
moves the scaled times about as much as the raw ones; README.md says
where not.
"""

from __future__ import annotations

import contextlib
import math
import signal
import statistics
import time

import numpy as np

# the probe's median on the 2-core host the reference numbers in README.md
# were taken on; it only sets the scale in which times read
REFERENCE_S = 0.375e-3
INTERVAL_S = 0.05
MIN_SAMPLES = 8

_PHASES = np.linspace(0.0, 1.0, 16)


def probe() -> float:
    acc = 0.0
    for i in range(300):
        acc += math.sin(i * 0.01) * (i % 7)
    for k in range(20):
        acc += float(np.max(np.abs(np.exp(1j * (k + 1) * _PHASES) + 0.5)))
    return acc


class Pace:
    """Probe times of one run, and the probe time spent so far."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0
        self._busy = False

    def _probe(self) -> None:
        if self._busy:
            return
        self._busy = True
        start, cpu = time.perf_counter(), time.thread_time()
        probe()
        self.samples.append(time.thread_time() - cpu)
        self.spent += time.perf_counter() - start
        self._busy = False

    def _on_alarm(self, signum, frame) -> None:
        self._probe()

    @contextlib.contextmanager
    def running(self):
        """Probe every INTERVAL_S while the block runs."""
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def scale(self, samples: list[float] | None = None) -> float:
        """REFERENCE_S over the median of samples, or of the whole run's
        probes when samples has fewer than MIN_SAMPLES."""
        if samples is None or len(samples) < MIN_SAMPLES:
            while len(self.samples) < MIN_SAMPLES:  # a run too short for the timer
                self._probe()
            samples = self.samples
        return REFERENCE_S / statistics.median(samples)
