"""A fixed piece of work that gauges how fast the machine runs at the moment.

The benchmark's machine shares its host: the same relucells call runs up to
1.5 times slower for tens of seconds at a time, and runs on different seeds
a few minutes apart read that as a change in the program. Each operation is
therefore timed between two probes, and its time is divided by theirs.

The probe mixes the kinds of work relucells does: a pure-Python loop, a loop
of small numpy calls (as in the solver's iterations and the trainer's
steps), and 300 x 300 matrix products and sorts. It calls nothing from
relucells, so a change to the program cannot move it.
"""

import math
import time

import numpy as np

# The probe's median on a 2-vCPU virtual machine (x86-64, one BLAS thread)
# in a quiet minute; it only scales reference seconds to read near seconds.
REFERENCE_S = 0.010


def _python() -> None:
    s = 0
    for j in range(60_000):
        s += j * j % 7


def _small_numpy() -> None:
    a = np.linspace(0.0, 1.0, 12)
    m = np.outer(a, a) + np.eye(12)
    for _ in range(1_500):
        v = m @ a
        a = np.maximum(v / np.linalg.norm(v), 0.01)


def _matrix() -> None:
    m = np.random.default_rng(0).standard_normal((300, 300))
    for _ in range(10):
        x = m @ m
        m = x / np.abs(x).max()
        np.sort(m.ravel())


def probe_seconds() -> float:
    """Time the probe's three parts; return their geometric mean."""
    logs = []
    for part in (_python, _small_numpy, _matrix):
        t0 = time.perf_counter()
        part()
        logs.append(math.log(time.perf_counter() - t0))
    return math.exp(sum(logs) / len(logs))
