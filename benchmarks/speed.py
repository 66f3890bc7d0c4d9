"""The host's speed, sampled while the benchmark runs.

A shared host's speed changes by up to half for minutes at a time, and by
a third from one second to the next, for all code on a core alike. A
SpeedProbe thread times a short fixed pure-Python loop every EVERY_S
seconds; the median loop time inside an interval is the host's speed
during it. A timing is rescaled to a fixed speed with

    seconds at reference speed = measured seconds x REF_S / median loop time

where REF_S is about the loop's time on an idle core of the 2-core x86-64
host the benchmark was tuned on. The loop holds the GIL for about a
millisecond, so the timed code pauses for it: about 2 % of every body,
the same on every commit.
"""

from __future__ import annotations

import threading
from statistics import median

EVERY_S = 0.05
LOOP = 20000
REF_S = 0.00075


def _loop():
    total = 0
    for i in range(LOOP):
        total += i
    return total


class SpeedProbe:
    """Context manager: samples the loop time from a background thread
    between __enter__ and __exit__, which stops and joins the thread."""

    def __init__(self, clock):
        self.clock = clock
        self.samples = []    # (start, duration)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def _run(self):
        while not self._stop.wait(EVERY_S):
            t0 = self.clock()
            _loop()
            self.samples.append((t0, self.clock() - t0))

    def loop_s(self, start, end):
        """Median loop time of the samples that started in [start, end)."""
        inside = [d for t, d in self.samples if start <= t < end]
        if not inside:
            raise RuntimeError(f"no speed sample in a {end - start:.3f} s "
                               "interval")
        return median(inside)


def rescale(seconds, loop_s):
    """`seconds` measured while the loop took `loop_s`, at reference speed."""
    return seconds * REF_S / loop_s
