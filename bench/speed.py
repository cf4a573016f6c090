"""Machine-speed calibration.

On the shared 2-core Intel Xeon VM this benchmark was calibrated on, each
vCPU flips between a fast and a slow phase (up to 2x) within fractions of a
second, with no CPU pinning and no steal time reported, and the mix of
phases drifts from run to run.  A
fixed pure-Python kernel, independent of the library, is timed every tenth of a
second between operations; durations are reported at reference speed,
scaled by CAL_REF_S over the mean kernel time of their pass.
"""

from __future__ import annotations

import math
import statistics
import time
from collections import Counter
from typing import List

# Median seconds of one kernel run at reference speed: the 2-core Intel Xeon
# VM above, Python 3.11, in its fast phase.
CAL_REF_S = 0.0049


def _kernel() -> float:
    L = (1 << 61) - 1
    acc = Counter()
    t = 0
    for n in range(1, 8001):
        t = (t * 1103515245 + n * n * n) % L
        acc[t & 1023] += 1
    return math.fsum(math.cos(k) * v for k, v in acc.items())


def sample() -> float:
    """Seconds of one kernel run: the machine's speed at this moment."""
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0


def factor(samples: List[float]) -> float:
    """Multiplier that takes durations measured alongside `samples` to reference speed.

    The machine flips between a fast and a slow phase within fractions of a
    second, so a duration is slowed by the average phase mix over its
    stretch; the mean of kernel samples spread over that stretch estimates it.
    """
    return CAL_REF_S / statistics.fmean(samples)
