"""Measures the machine's speed while a measured child runs next to it.

    python3 perfbench/calibrator.py   (started by run.py, never by hand)

``run.py`` starts this process pinned to the CPU the measured child is
pinned to, at the lowest priority (nice 19).  The scheduler then gives it a
short slice every few tens of milliseconds, about 2% of the CPU, so it
samples the CPU's speed at the same moments the child runs, while barely
slowing the child.  The shared machine's speed drifts by tens of percent
within seconds; dividing the child's CPU time by this process's time per
unit of fixed work removes that drift.

Prints ``ready`` once running, then repeats ``unit()`` until SIGTERM (or
until its parent is gone), and prints one JSON list of samples
``[monotonic_s, units_done, cpu_s]``: one at the start and one every
``UNITS_PER_SAMPLE`` units.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import time
from fractions import Fraction

UNITS_PER_SAMPLE = 8
_stop = False


def unit() -> None:
    """About 0.13 ms of a fixed mix of the operations cmreduce's pure-Python
    code spends its time on: integers modulo a 127-bit prime, Fraction
    arithmetic, dict stores, list appends and sorts, function calls."""
    modulus = (1 << 127) - 1
    x = 12345678901234567890
    f = Fraction(1, 3)
    table: dict[int, int] = {}
    batch: list[tuple[int, int]] = []
    for i in range(200):
        x = (x * x + i) % modulus
        table[x & 255] = i
        if i % 25 == 0:
            f = f * Fraction(i + 3, i + 7) + Fraction(1, i + 2)
        batch.append((x >> 64, i))
        if len(batch) > 32:
            batch.sort()
            batch.clear()


def _on_term(signum, frame) -> None:
    global _stop
    _stop = True


def main() -> None:
    signal.signal(signal.SIGTERM, _on_term)
    parent = os.getppid()
    unit()
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    clock, cpu = time.monotonic, time.process_time
    samples = [[clock(), 0, cpu()]]
    done = 0
    while not _stop:
        for _ in range(UNITS_PER_SAMPLE):
            unit()
        done += UNITS_PER_SAMPLE
        samples.append([clock(), done, cpu()])
        if os.getppid() != parent:
            break
    sys.stdout.write(json.dumps(samples) + "\n")


if __name__ == "__main__":
    main()
