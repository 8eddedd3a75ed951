"""Machine-speed calibration for the end-to-end times.

On a host shared with other virtual machines the speed of a vCPU drifts by
±15 % over seconds to minutes, and that drift is common to all pure-Python
work in the process.  So after every verdict the benchmark times a short,
fixed reference loop, repeated for about `SHARE` of the verdict's time, and
reports each verdict's seconds scaled to a machine on which that loop takes
`NOMINAL_S`:

    reference seconds = measured seconds * NOMINAL_S / (local loop time)

where the local loop time is the mean over the loops timed after that
verdict and after its `WINDOW` neighbours on each side.  A change to nicheck moves the verdict time and not the loop time,
so it moves the scaled figure by the same share as the measured one.  The
raw wall-clock figures are printed next to the scaled ones.
"""

from __future__ import annotations

import statistics
import time

#: The reference loop's time on the machine the first baseline was taken on
#: (2 KVM vCPUs, Intel Xeon at 2.0 GHz, CPython 3.11), so that reference
#: seconds read close to wall seconds there.
NOMINAL_S = 0.02

#: Verdicts on each side whose loops count toward a verdict's local loop time.
WINDOW = 2

#: Share of a verdict's time spent timing loops after it (at least one loop).
SHARE = 0.1


def _reference_loop(n: int = 32_000) -> int:
    """Fixed pure-Python work of the kind nicheck does: dict lookups and
    inserts keyed by tuples, small-int arithmetic and function calls."""
    table: dict = {}
    total = 0
    for i in range(n):
        key = (i & 511, i & 7)
        table[key] = total
        total = (total + table.get(((i * 7) & 511, i & 7), 0) + len(key)) & 0xFFFF
    return total


def loop_seconds() -> float:
    """Time one reference loop."""
    start = time.perf_counter()
    _reference_loop()
    return time.perf_counter() - start


def loops_after(seconds: float) -> list[float]:
    """Time reference loops for about `SHARE` of `seconds`, at least one."""
    loops = [loop_seconds()]
    while sum(loops) < SHARE * seconds:
        loops.append(loop_seconds())
    return loops


def scale(seconds: float, loops: list[float]) -> float:
    """`seconds` measured while the reference loop took `loops`, in
    reference seconds."""
    return seconds * NOMINAL_S / statistics.fmean(loops)


def scale_samples(samples) -> None:
    """Set `ref_seconds` on each sample from the loops timed after it and
    after its `WINDOW` neighbours on each side (within the same pass)."""
    for i, s in enumerate(samples):
        window = samples[max(0, i - WINDOW):i + WINDOW + 1]
        s.ref_seconds = scale(s.seconds, [t for w in window for t in w.loops])
