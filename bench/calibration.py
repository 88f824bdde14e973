"""Fixed loops timed next to every measurement, to factor out machine speed.

The 2-core machine this benchmark was built on changes speed by up to
1.8x within minutes, and a change lasts from seconds to minutes, so two
runs of the same code can read 50% apart.  Each operation and each
set-up is therefore timed beside these loops and divided by the
machine's *slowness*: the loops' time over their reference time, 1.0 on
a machine where the interpreter loop takes 6 ms.

Two loops cover the two kinds of work in uavlink, because a speed change
does not slow them alike:

- ``interpreter``: a Python function call, float arithmetic and
  ``math.exp`` per step, the kind of work in the analytic layers;
- ``arrays``: numpy block draws and a short Python queue, the kind of
  work in the simulator's slot loop.

Each workload weighs the two by its own mix (``calibration`` on the
workload classes in ``workloads.py``): the interpreter loop alone for
sweep and optimize, 0.4 interpreter and 0.6 arrays for simulate.  Those
weights kept each workload's scaled time flattest across the machine's
speeds, in a five-minute trace and in runs of ten seeds: there, raw
rates spread by 20% to 42% between runs and scaled ones by 2% to 7%.
The loops run no uavlink code, so only the package's own speed moves a
scaled figure.
"""

from __future__ import annotations

import math
import time

import numpy as np

REFERENCE_S = {"interpreter": 0.006, "arrays": 0.009}


def _step(x: float) -> float:
    return math.exp(-0.5 * x * x) * (1.0 + x)


def _interpreter() -> None:
    total = 0.0
    for i in range(40_000):
        total += _step(i * 1e-4)


def _arrays() -> None:
    rng = np.random.default_rng(0)
    for _ in range(40):
        draws = rng.standard_normal((4096, 2))
        np.hypot(draws[:, 0] + 1.0, draws[:, 1]).max()
    queue = []
    for i in range(20_000):
        queue.append(i)
        if len(queue) > 8:
            queue.pop(0)


LOOPS = {"interpreter": _interpreter, "arrays": _arrays}


def slowness(weights: dict[str, float]) -> float:
    """Weighted loop time over reference time; divide a measured time by it."""
    total = 0.0
    for name, weight in weights.items():
        start = time.perf_counter()
        LOOPS[name]()
        total += weight * (time.perf_counter() - start) / REFERENCE_S[name]
    return total
