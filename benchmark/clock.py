"""Operation timing at a fixed reference speed.

On a shared, frequency-scaled host the CPU speed seen by one process can
drift by up to 2x within seconds, so every duration is scaled to a
reference speed.  While an operation runs, a timer signal interrupts it
every SAMPLE_EVERY_S to time a fixed pure-Python probe; the operation's
duration, minus the probes, is multiplied by PROBE_REF_S over the median
probe time (padded with the latest earlier probes when the operation is
too short to hold MIN_SAMPLES).  Times read as if the probe took exactly
PROBE_REF_S.
"""

import gc
import signal
import statistics
from time import perf_counter

PROBE_REF_S = 0.0002
SAMPLE_EVERY_S = 0.005
MIN_SAMPLES = 5


def _probe_work() -> int:
    # Allocation, hashing, tuple keys and a keyed sort: of the probes tried,
    # the one whose speed tracked the package's own code most closely.
    table = {}
    for i in range(400):
        table[(i, i * 7 & 31)] = [i, i + 1]
    return len(sorted(table.items(), key=lambda kv: kv[0][1]))


class Clock:
    """Measures durations at reference speed; use as a context manager."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0  # probe time inside the measured interval
        self.probe_s = 0.0  # probe time since the clock was entered

    def _sample(self, signum, frame) -> None:
        # The probe's garbage is freed by reference counting; with the
        # collector paused its speed does not depend on the heap around it.
        collecting = gc.isenabled()
        gc.disable()
        t0 = perf_counter()
        _probe_work()
        t1 = perf_counter()
        if collecting:
            gc.enable()
        self.samples.append(t1 - t0)
        self.spent += t1 - t0
        self.probe_s += t1 - t0

    def __enter__(self) -> "Clock":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        for _ in range(MIN_SAMPLES):
            self._sample(None, None)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def measure(self, fn) -> tuple[float, float, object, bool]:
        """Run ``fn``: (raw seconds, seconds at reference speed, result or
        the exception it raised, whether it raised)."""
        first, self.spent = len(self.samples), 0.0
        t0 = perf_counter()
        try:
            out, raised = fn(), False
        except Exception as exc:  # the caller counts it as a failed operation
            out, raised = exc, True
        raw = perf_counter() - t0 - self.spent
        probes = self.samples[min(first, len(self.samples) - MIN_SAMPLES):]
        del self.samples[:-MIN_SAMPLES]
        return raw, raw * PROBE_REF_S / statistics.median(probes), out, raised


def timed(fn) -> tuple[float, object]:
    """Run ``fn``; its duration at reference speed and its result."""
    with Clock() as clock:
        _, dt, out, raised = clock.measure(fn)
    if raised:
        raise out
    return dt, out


