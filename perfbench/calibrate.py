"""Machine-speed calibration for the benchmark's timings.

The shared hosts the benchmark runs on change speed by up to 1.7x, in spells
that last from a fraction of a second to a minute, and a whole run can fall
inside one slow spell; process CPU time slows with wall time, so it does not
help. A fixed reference kernel, timed right before and after each operation,
tells how fast the machine ran during it. A run's times are multiplied by
one factor, (`REFERENCE_S` / the kernel's time) ** `SENSITIVITY`, with the
kernel's time averaged over the run and weighted by the time of the
operation each probe brackets. That estimates the times on a machine where
the kernel takes exactly `REFERENCE_S`. One factor per run, rather than one
per operation, averages out the probes' own jitter. The kernel is the
benchmark's own code, so a change to gdslab moves the scaled times exactly
as it moves the raw ones.

The kernel mixes the two kinds of work gdslab does: a pure-Python loop over
a dict, and numpy row operations of a GF(2) elimination on a fixed uint8
matrix. Its input is fixed, independent of the workload seed. numpy is
imported on first use, so that importing this module leaves the runner free
to set the BLAS thread variables before numpy loads.
"""

from __future__ import annotations

import functools
import time
from typing import Iterable, Tuple

# About the kernel's time in the host's fast spells (2-core x86-64 VM,
# CPython 3.11, numpy 2.4): scaled times read close to raw ones there.
REFERENCE_S = 0.005
# The small kernel slows more than gdslab does in a slow spell. On the host
# above, ten seeds per workload spread least at an exponent of 1 on
# `sector-dynamics` (the most pure-Python work) and at 0.5 or 0.75 on the
# other three workloads; full correction over-corrects those, and none
# leaves the spells in.
SENSITIVITY = 0.75
# The kernel runs this many times per probe and the fastest counts, so that
# a single preempted run does not set the probe.
REPEATS = 3


@functools.lru_cache(maxsize=None)
def _matrix():
    import numpy as np

    return np.random.default_rng(0).integers(0, 2, (160, 200), dtype=np.uint8)


def _dict_loop() -> int:
    table = {}
    acc = 0
    for i in range(12000):
        key = i & 1023
        table[key] = table.get(key, 0) ^ i
        acc += (i * 7) % 13
    return acc + len(table)


def _gf2_rank() -> int:
    import numpy as np

    m = _matrix().copy()
    rank = 0
    for col in range(m.shape[1]):
        pivots = np.nonzero(m[rank:, col])[0]
        if pivots.size == 0:
            continue
        p = rank + pivots[0]
        if p != rank:
            m[[rank, p]] = m[[p, rank]]
        rows = np.nonzero(m[:, col])[0]
        m[rows[rows != rank]] ^= m[rank]
        rank += 1
        if rank == m.shape[0]:
            break
    return rank


def kernel() -> int:
    return _dict_loop() + _gf2_rank()


def probe() -> float:
    """The reference kernel's time now, in seconds."""
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - start)
    return best


def scale(samples: Iterable[Tuple[float, float]]) -> float:
    """The factor that takes a run's times to the reference speed, from its
    (operation seconds, mean kernel probe around it) pairs."""
    total = weighted = 0.0
    for seconds, probe_s in samples:
        total += seconds
        weighted += seconds * probe_s
    return (REFERENCE_S * total / weighted) ** SENSITIVITY
