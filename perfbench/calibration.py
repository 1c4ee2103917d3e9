"""Scaling timings to a reference speed, against a calibration kernel.

On a 2-core Xeon shared with other tenants, the speed of plain
interpreter work drifted by up to 50% within a minute, in episodes of
one to several seconds, and the same pass varied by ±19% from run to
run.  So the untraced timed section stops every ``PERIOD_NS`` between
two items to time a fixed kernel (bitmask subset products over a fixed
table, written here and sharing no code with the program).  Each item's
time is divided by the speed factor measured around it, the median of
the nearest kernel timings over ``REF_NS``.  Reported times are thus
seconds at the reference speed; there, the same pass then varied by
±4%.  Kernel time is never part of an item.
"""

from __future__ import annotations

import statistics
from time import perf_counter_ns

PERIOD_NS = 20_000_000
#: the kernel's time at the reference speed (a quiet 2-core Xeon, Python 3.11)
REF_NS = 600_000

_TABLE = tuple(tuple((i * 7 + j * 3) % 6 for j in range(6)) for i in range(6))


def kernel() -> int:
    out = 0
    for amask in range(1, 64):
        for bmask in (5, 10, 21, 42, 63):
            m = 0
            a = amask
            while a:
                low = a & -a
                row = _TABLE[low.bit_length() - 1]
                a ^= low
                b = bmask
                while b:
                    lb = b & -b
                    m |= 1 << row[lb.bit_length() - 1]
                    b ^= lb
            out ^= m
    return out


class Pacer:
    """Times the kernel between items, at most every ``PERIOD_NS``."""

    def __init__(self, item_ns: list[int]):
        self.item_ns = item_ns
        self.samples: list[tuple[int, int]] = []  # (items done, kernel ns)
        self._last = 0

    def __call__(self) -> None:
        now = perf_counter_ns()
        if now - self._last >= PERIOD_NS:
            self.sample()

    def sample(self) -> None:
        t0 = perf_counter_ns()
        kernel()
        t1 = perf_counter_ns()
        self.samples.append((len(self.item_ns), t1 - t0))
        self._last = t1

    def speed(self) -> float:
        """The pass's median kernel time over the reference time."""
        return statistics.median(ns for _, ns in self.samples) / REF_NS

    def scaled_items(self) -> list[float]:
        """Item times in reference nanoseconds.

        Items between two kernel samples share the factor of the median
        of the six samples around them, so one disturbed sample does not
        move it.
        """
        ns = [c for _, c in self.samples]
        out: list[float] = []
        for k in range(len(self.samples) - 1):
            near = sorted(ns[max(0, k - 2) : k + 4])
            factor = near[len(near) // 2] / REF_NS
            lo, hi = self.samples[k][0], self.samples[k + 1][0]
            out.extend(t / factor for t in self.item_ns[lo:hi])
        return out
