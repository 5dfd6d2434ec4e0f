"""Machine-speed probe for the end-to-end times.

    python3 perfbench/speed.py SAMPLES_FILE

The benchmark is meant for a shared 2-vCPU machine whose speed drifts by
tens of percent over tens of seconds, longer than a run.  While a run
measures, this script runs as a separate process: every ``INTERVAL_S`` it
times ``machine_loop()``, a fixed pure-Python loop, and appends
``<time.perf_counter()> <loop seconds>`` to SAMPLES_FILE.  It shares no
interpreter, allocator or collector with the package being measured, so a
change to the package does not move the loop; only the machine does.
``time.perf_counter()`` reads the system-wide monotonic clock on Linux, so
the benchmark can place each sample against its own request times.
"""

from __future__ import annotations

import bisect
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

# A typical ``machine_loop`` time on the machine the baseline was recorded on
# (2 vCPUs of a shared Intel Xeon, Python 3.11.7), so there the scaled
# figures stay near wall times.
REFERENCE_S = 0.00075
INTERVAL_S = 0.02
# Samples, at least, behind the speed estimate for one interval.
NEAREST = 10


def _pair(a, b):
    return a & b, a | b


def machine_loop() -> float:
    """Seconds for a fixed loop of calls, small tuples and set updates."""
    seen, start = set(), time.perf_counter()
    for i in range(1200):
        pair = _pair(*(i, i >> 1))
        if pair in seen or (pair[0], i & 7) == (1, 2):
            continue
        seen.add((pair[0] & 63, pair[1] & 63))
    return time.perf_counter() - start


class SpeedProbe:
    """Starts the probe process; after ``stop()``, gives a speed factor for any interval."""

    def __init__(self, path: Path):
        self.path = path
        self.proc = subprocess.Popen([sys.executable, __file__, str(path)])
        self.times: list[float] = []
        self.loops: list[float] = []
        deadline = time.perf_counter() + 30
        while self._lines() < NEAREST and time.perf_counter() < deadline:
            time.sleep(INTERVAL_S)

    def _lines(self) -> int:
        try:
            return self.path.read_bytes().count(b"\n")
        except FileNotFoundError:
            return 0

    def stop(self):
        """Stop the probe process, wait for it, and read its samples."""
        self.proc.terminate()
        self.proc.wait(timeout=30)
        for line in self.path.read_text(encoding="utf-8").splitlines():
            t, loop = line.split()
            self.times.append(float(t))
            self.loops.append(float(loop))
        if len(self.loops) < NEAREST:
            sys.exit(f"perfbench: the speed probe took {len(self.loops)} samples")

    def loop(self, start=None, end=None) -> float:
        """Median loop time over [start, end], widened to the ``NEAREST`` samples around it.

        Without an interval, the median over the whole run.
        """
        if start is None:
            return statistics.median(self.loops)
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_right(self.times, end)
        while hi - lo < NEAREST:
            lo, hi = max(0, lo - 1), min(len(self.times), hi + 1)
        return statistics.median(self.loops[lo:hi])

    def factor(self, start, end, sensitivity) -> float:
        """Factor that brings a time measured over [start, end] to the reference speed."""
        return (REFERENCE_S / self.loop(start, end)) ** sensitivity


def main(path) -> int:
    parent = os.getppid()
    with open(path, "w", encoding="utf-8") as out:
        while os.getppid() == parent:  # stop with the benchmark, also if it is killed
            t = time.perf_counter()
            out.write(f"{t!r} {machine_loop()!r}\n")
            out.flush()
            time.sleep(INTERVAL_S)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
