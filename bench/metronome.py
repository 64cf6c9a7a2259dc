"""Reference loop for rescaling the benchmark's times, run in a process of its own.

    python3 bench/metronome.py

Each line read from standard input runs the loop once and prints its wall
time in seconds; the process ends when its input closes.  It imports numpy
but never the robust_assortment package, so nothing the package does to the
benchmark's process (threads, numpy settings, a large heap, collection
pauses) changes these times: they follow only the host's speed.
"""
from __future__ import annotations

import math
import sys
import time

import numpy as np

POINTS = [0.001 * i for i in range(400)]
CHUNKS = 5
ROUNDS_PER_CHUNK = 6


def reference_seconds() -> float:
    """Wall time of a fixed loop of float math and small numpy calls.

    The loop runs in chunks and the median chunk, times the chunk count, is
    returned, so one chunk that the host paused does not count.
    """
    chunks = []
    for _ in range(CHUNKS):
        start = time.perf_counter()
        acc = 0.0
        for _ in range(ROUNDS_PER_CHUNK):
            acc += math.fsum([math.exp(-x / 0.3) * x for x in POINTS])
            acc += float(np.sum(np.expm1(np.asarray(POINTS))))
        chunks.append(time.perf_counter() - start)
    return CHUNKS * sorted(chunks)[CHUNKS // 2]


def main() -> None:
    for _ in sys.stdin:
        print(repr(reference_seconds()), flush=True)


if __name__ == "__main__":
    main()
