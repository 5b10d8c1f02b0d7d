"""Machine-speed normalization for a shared machine.

On a machine shared with other tenants, the same Python work can take 1.8x
longer from one second to the next, which swamps the differences the
benchmark exists to detect.  A fixed pure-Python kernel, timed right next
to each measured call, measures the machine's speed at that moment; the
call's wall time is scaled by ``REFERENCE_MS / kernel time``.  The result
is in *reference milliseconds*: the time the call would take on a machine
where the kernel runs in exactly ``REFERENCE_MS``.  The kernel touches no
program code, so the scale cancels the machine's speed and nothing else: a
change that makes the program slower shows in full.  The raw wall-clock
times are kept beside the scaled ones.
"""

from __future__ import annotations

import statistics
import time

# About the kernel's time on a quiet 2-CPU container, so that reference
# milliseconds read close to wall-clock ones there.
REFERENCE_MS = 0.5
KERNEL_LOOPS = 3000
# Calibrations on each side of a call that its scale is the median of.
WINDOW = 3

_TABLE = tuple((i * 2654435761) % 1000003 for i in range(256))


def kernel_ms() -> float:
    """Wall milliseconds of the fixed kernel, now."""
    table = _TABLE
    start = time.perf_counter()
    acc = 0
    for i in range(KERNEL_LOOPS):
        acc = (acc + table[i & 255] * (i | 1)) & 0xFFFFFFFF
    return (time.perf_counter() - start) * 1000.0


def scales(calibrations: list) -> list:
    """Per call between ``calibrations[i]`` and ``[i + 1]``, its scale factor.

    The factor is ``REFERENCE_MS`` over the median of the nearest
    ``2 * WINDOW`` calibrations, which follows the machine's speed while
    smoothing the kernel's own jitter.
    """
    return [
        REFERENCE_MS
        / statistics.median(calibrations[max(0, i - WINDOW + 1): i + WINDOW + 1])
        for i in range(len(calibrations) - 1)
    ]
