"""Host-speed calibration for the end-to-end times.

Benchmark hosts are often shared. On the 2-vCPU virtual machine used to
tune this benchmark, the same op ran up to 1.7 times slower for seconds to
minutes at a time while other tenants loaded the machine. A fixed
pure-Python kernel, timed between ops, slows by the same factor. Each
time the benchmark reports is therefore scaled to a host on which the kernel
takes ``REF_CAL_S``:

    reported = wall * REF_CAL_S / (kernel time measured next to it)

The raw wall times are printed beside the scaled ones.
"""

from __future__ import annotations

import gc
import time

# about the kernel's time on an unloaded vCPU of that machine (Python 3.11)
REF_CAL_S = 0.002
CAL_EVERY_S = 0.05  # recalibrate after ops that took at least this long together


def calibrate() -> float:
    """Seconds the kernel takes now: best of two, with the collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(2):
            t0 = time.perf_counter()
            table = {}
            for i in range(3000):
                table[(i * 7919) % 10007] = (i, str(i))
            rows = sorted(table.items(), key=lambda kv: (kv[1][0] % 97, kv[0]))
            frozenset(key for key, _ in rows[:500])
            best = min(best, time.perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    return best


def scale(cal_before: float, cal_after: float) -> float:
    """Factor from wall time to reference-host time for work between two calibrations."""
    return REF_CAL_S / ((cal_before + cal_after) / 2)
