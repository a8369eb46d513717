"""A fixed computation that measures how fast the machine runs right now.

Usage: python3 bench/reference.py  -> prints the mean seconds of two timed
runs of `reference()` after one warm-up run.

The benchmark runs it in its own process between repetitions, so nothing the
program under test does can change it.  It mixes the three kinds of work the
workloads do: an interpreter loop, elementwise numpy over 32 MB arrays (large
enough that every allocation maps fresh pages, as the oracle's chunks do) and
many small-array numpy calls.
"""

import statistics
import sys
import time

import numpy as np


def reference() -> float:
    start = time.perf_counter()
    values = []
    for i in range(400_000):
        x = (i % 97) * 0.01
        values.append(x * x + 1.0)
    a = np.linspace(0.0, 1.0, 4_000_000)
    b = np.exp(-a) * a + np.sqrt(a + 1.0)
    small = np.ones(4)
    for _ in range(30_000):
        small = np.minimum(small * 1.0001, 2.0)
    if not (sum(values) > 0 and b.sum() > 0 and small.sum() > 0):
        raise AssertionError("reference computation went wrong")
    return time.perf_counter() - start


def main() -> int:
    reference()  # warm-up: first touch of the arrays
    print(statistics.mean(reference() for _ in range(2)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
