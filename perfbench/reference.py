"""Fixed reference work, timed beside every round of a run.

This machine's speed drifts by a fifth or more over minutes, the same
for runs a few seconds apart and whatever a run's length (README, "Why
times are divided by a reference").  So each round's time, and each
op's, is divided by the time of a fixed piece of work of the kind that
round spends its time on, taken just before and just after the round in
the same process.  The work does not call covjac and never changes, so
the quotient moves when covjac's cost moves, not when the machine's
speed does.

``seconds(workload)`` is the median of ``REPEATS`` timings of that
workload's reference, about 0.1 s each, with the garbage collector off
so that the objects a run keeps alive do not slow it.
"""

from __future__ import annotations

import gc
import statistics
import time

import numpy as np

REPEATS = 3
PRIME = 16_777_213  # below 2^24, as covjac's CRT primes
MODULUS = (1 << 256) - 189


def python_work() -> int:
    """An interpreted loop of big-integer multiply-and-reduce steps: the
    mix of bytecode and integer arithmetic in corpus's group-ring
    determinants and HNF and in zeta's enumeration."""
    x = 1
    for i in range(300_000):
        x = (x * 0x9E3779B97F4A7C15 + i) % MODULUS
    return x


# A fixed full matrix with entries below PRIME (numpy.random is not
# imported, so the reference adds nothing to the peak memory).
_MATRIX = (np.arange(320 * 320, dtype=np.int64).reshape(320, 320) ** 2 % PRIME
           * 2_654_435_761 % PRIME)


def numpy_work() -> int:
    """Gaussian elimination modulo a prime on int64 rows, the kernel of
    towers's CRT determinants."""
    a = _MATRIX.copy()
    det = 1
    for k in range(a.shape[0]):
        pk = int(a[k, k]) or 1
        det = det * pk % PRIME
        factors = (a[k + 1:, k] * pow(pk, -1, PRIME)) % PRIME
        a[k + 1:, k:] = (a[k + 1:, k:] - factors[:, None] * a[k, k:]) % PRIME
    return det


WORK = {"corpus": python_work, "zeta": python_work, "towers": numpy_work}


def seconds(workload: str) -> float:
    work = WORK[workload]
    times = []
    gc.disable()
    try:
        for _ in range(REPEATS):
            t = time.perf_counter()
            work()
            times.append(time.perf_counter() - t)
    finally:
        gc.enable()
    return statistics.median(times)
