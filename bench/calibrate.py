"""Machine-speed calibration for the end-to-end times.

On a shared host the speed of a core drifts by a quarter or more within
minutes, with no steal time to show for it, and the drift outlasts a run,
so medians of raw wall times from different runs spread as much as the
machine does. The benchmark therefore times a fixed reference kernel right
before and right after each measurement and scales the measurement by it:

    scaled_s = wall_s * REF_NOMINAL_S / mean(kernel before, kernel after)

A scaled time reads as seconds on a machine where the kernel takes
REF_NOMINAL_S. The kernel is fixed and imports nothing from digitseq, so a
change to the program moves scaled times exactly as it moves wall times;
only the speed of the machine cancels.

Different code slows differently under contention. The kernel is a
dict-driven automaton loop in pure Python, the kind of work the digitseq
generators do. In trials on a 2-vCPU Xeon VM, 6 runs per workload, it cut
the quartile spread of per-run median job times from 0.10-0.33 to
0.03-0.09; numpy sorts, alone or mixed in, tracked the drift less well.
"""

from __future__ import annotations

import statistics
import time

# median kernel time on a 2-vCPU Xeon VM; only the unit of scaled times
# depends on it, not their spread
REF_NOMINAL_S = 0.005

_DELTA = ((1, 2), (3, 0), (2, 4), (0, 1), (4, 3))
_OUTPUT = "01101"
_STEPS = 32_000


def kernel() -> str:
    state, out = 0, []
    for i in range(_STEPS):
        state = _DELTA[state][(i ^ (i >> 3)) & 1]
        out.append(_OUTPUT[state])
    return "".join(out)


def reference_s() -> float:
    """Wall time of one kernel run."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def steady_reference_s(runs: int = 3) -> float:
    """Median of a few kernel runs, for measurements that are rare."""
    return statistics.median(reference_s() for _ in range(runs))


def scale(wall_s: float, ref_before: float, ref_after: float) -> float:
    """Wall time scaled to the nominal machine speed."""
    return wall_s * REF_NOMINAL_S * 2 / (ref_before + ref_after)
