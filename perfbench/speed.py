"""Machine-speed probe.

The speed of a shared virtual machine drifts: the same pure-Python loop
takes 12 ms in one phase and 21 ms in another, and a phase can last longer
than a whole run.  Medians over passes cannot remove that, so the
benchmark times a fixed loop of its own right before and right after each
job, and every ``INTERVAL`` seconds during it (from a ``SIGALRM`` handler,
whose time is taken out of the job's), and scales the job's time to a
reference machine on which that loop takes ``REFERENCE_S``.  turansep
never runs the loop, so a change to turansep moves the scaled times as it
moves the raw ones; only the machine's drift cancels.  Raw times are
recorded beside the scaled ones.
"""

from __future__ import annotations

import signal
import statistics
import time
from itertools import combinations

REFERENCE_S = 0.00035  # the loop's time on the reference machine
ROUNDS = 9  # one probe takes about 3 ms
INTERVAL = 0.05  # seconds between samples during a job

_BIT = [1 << v for v in range(40)]
_ROW = [(v * 2654435761) & ((1 << 40) - 1) for v in range(1600)]


def _loop() -> int:
    # the kind of work turansep's hot paths do: subset iteration, integer
    # masks, popcounts and list indexing
    total = 0
    for a, b, c in combinations(range(18), 3):
        m = _BIT[a] | _BIT[b] | _BIT[c]
        total += (_ROW[a * 40 + b] & m).bit_count() + (_ROW[b * 40 + c] & m).bit_count()
    return total


def probe() -> float:
    """Median seconds of one run of the loop, over ``ROUNDS`` runs."""
    times = []
    for _ in range(ROUNDS):
        start = time.perf_counter()
        _loop()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class Sampler:
    """Times one run of the loop every ``INTERVAL`` seconds while open."""

    def __enter__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, signum, frame):
        start = time.perf_counter()
        _loop()
        took = time.perf_counter() - start
        self.samples.append(took)
        self.spent += took


def factor(before: float, after: float, samples=()) -> float:
    """Scale for a time measured between two probes, with the loop times
    sampled in between."""
    loop_s = (before + after) / 2
    if samples:
        loop_s = (loop_s + statistics.median(samples)) / 2
    return REFERENCE_S / loop_s
