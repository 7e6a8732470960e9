"""The benchmark's yardstick: a fixed piece of pure-Python work.

Run as a program, it is a calibration worker: for each line read from
standard input it runs `calibration_s` and writes the time on a line of
standard output; it exits at the end of its input.  `run.py` starts these
workers in fresh interpreters, so that the yardstick does not depend on the
heap or the garbage collector of the code under test.
"""

from __future__ import annotations

import statistics
import sys
import time


def calibration_s() -> float:
    """Median wall time of five runs of a fixed piece of pure-Python work:
    tuple and string building, dict updates and a sort, as in the solver, in
    under 1 MB."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        for _ in range(8):
            rows, acc = [], {}
            for i in range(5_000):
                key = (i % 97, i % 89)
                acc[key] = acc.get(key, 0) + i
                rows.append((i * 7 % 1013, key, f"x{i}"))
            rows.sort()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def main() -> int:
    for _ in sys.stdin:
        print(repr(calibration_s()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
