"""The host's speed, measured by a fixed pure-Python probe.

The shared host runs each core at full speed or at about two thirds of
it, switching every few seconds and sometimes staying slow for minutes.
The benchmark reports the time t of a timed round as
``t * PROBE_NOMINAL_S / s``, where s is what ``probe()`` returns next to
the round: the time the round would have taken on the reference machine
at full speed.
"""

from __future__ import annotations

import time

# The probe's time on the reference machine at full speed.
PROBE_NOMINAL_S = 0.0054


def _probe_loop() -> int:
    acc = 0
    table = {}
    for i in range(40000):
        acc = (acc * 31 + i) % 1000003
        table[acc & 1023] = i
    return max(table.values()) + acc


def probe() -> float:
    """The host's current speed: fastest of three runs of a fixed
    pure-Python loop, in seconds, on the CPU this process runs on."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        _probe_loop()
        best = min(best, time.perf_counter() - t0)
    return best
