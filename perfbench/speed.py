"""CPU-speed normalisation of wall times.

Usage as a calibration process: python perfbench/speed.py BLOCKS

The benchmark's host is shared, and the speed of each of its CPUs drifts
by up to about 1.5x, in phases lasting from a second to minutes.  A run
cannot outlast the slow phases, so raw wall times of the same code
spread by more than a regression bound from run to run.

The benchmark therefore pins itself, and every process it starts, to
one CPU (``pin``) and times a calibration right before and right after
each timed stretch.  A wall time ``t`` measured while the calibration
took ``c`` seconds on average is reported as ``t * ref / c``: the time
the same work would take on a CPU whose calibration takes ``ref``.
Reported times keep their units and scale one to one with the program's
own cost; no calibration runs mpnspace code, so a change to the program
cannot move it.

Host slowdowns hit computation and process start-up by different
amounts (the pure-Python block can slow 1.8x while a cli op, mostly
start-up, slows 1.3x), so each kind of op is scaled by a calibration
made of the same kind of work:

* query ops, computation inside a warm process: ``calibrate``, a fixed
  block of pure-Python work (dict and tuple traffic, small function
  calls, Fraction arithmetic) in the same process;
* bundle ops, a process start followed by a long computation: one fresh
  ``python speed.py BUSY_BLOCKS``;
* cli ops and set-up probes, mostly interpreter start and imports: one
  fresh ``python -c pass``.

The process calibrations are spawned by ``Bench.start_time`` in
``run.py``, exactly as ops are.  Measured on bundle ops over 8-op
windows: raw wall medians ranged over 1.59x, scaled by the in-process
block over 1.6x (it does not track them), scaled by a bare start over
1.21x and scaled by the busy process over 1.17x.
"""

from __future__ import annotations

import os
import statistics
import sys
import time
from fractions import Fraction

# Calibration times on the reference CPU, about what they take on a
# 2-vCPU Xeon VM in its faster phases: one pure-Python block, one
# ``python speed.py BUSY_BLOCKS`` and one ``python -c pass``
# (interpreter start with ``site``).
BLOCK_REF_S = 0.002
BUSY_BLOCKS = 20
BUSY_REF_S = 0.1
START_REF_S = 0.075


def pin() -> None:
    """Pin this process, and so the children it starts later, to the
    lowest CPU it may run on."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def _mix(a: int, b: int) -> int:
    return (a * 31 + b) & 1023


def _block() -> int:
    table: dict = {}
    acc = 0
    for i in range(3000):
        key = (i & 63, i % 7)
        table[key] = table.get(key, 0) + _mix(i, acc)
        acc = (acc + len(key) + table[key]) & 0xFFFF
    odd = [v * 3 for v in table.values() if v & 1]
    q = Fraction(0)
    for i in range(1, 40):
        q += Fraction(acc % i + 1, i)
    return acc + len(odd) + q.denominator % 7


def calibrate() -> float:
    """Seconds one calibration block takes now on this CPU: the median
    of three timed runs after one untimed run, which refills the caches
    a stretch of program work has evicted."""
    _block()
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        _block()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Meter:
    """Scales wall times by calibrations taken around them.

    Call ``ready`` right before a timed stretch and ``scale`` right after
    it.  The calibration ``scale`` takes serves as the next stretch's
    "before", so back-to-back stretches pay for one calibration each.
    """

    def __init__(self, calibrate, ref: float):
        self._calibrate = calibrate
        self.ref = ref
        self._before = None
        self.raw_s = 0.0
        self.scaled_s = 0.0

    def ready(self) -> None:
        if self._before is None:
            self._before = self._calibrate()

    def factor(self) -> float:
        """Close the stretch: the scale for wall times measured in it."""
        after = self._calibrate()
        f = self.ref / (0.5 * (self._before + after))
        self._before = after
        return f

    def scale(self, seconds: float) -> float:
        scaled = seconds * self.factor()
        self.raw_s += seconds
        self.scaled_s += scaled
        return scaled


if __name__ == "__main__":
    for _ in range(int(sys.argv[1])):
        _block()
