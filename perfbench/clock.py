"""Host-speed calibration for the benchmark's wall-clock timings.

The reference host (Intel Xeon at 2.1 GHz, 2 vCPUs, a shared VM) runs the
same code up to 1.5x slower for stretches of seconds to minutes, and a
whole run can fall inside one slow stretch.  Raw wall times then spread
by 20-40 % between runs of identical code, more than any bound worth
gating on.

A fixed calibration loop, which uses nothing from the program (pure-Python
arithmetic plus numpy FFTs of a fixed vector), slows by the same factor.
:class:`HostClock` times that loop between operations and scales each
measured interval by ``REF_S / t_cal``, with ``t_cal`` taken on both sides
of the interval.  The scaled interval is the wall time the operation
would take at the reference host's typical speed.  The loop runs outside
every timed interval.  Over 100 s of ``cos-link`` on the
reference host, the mean exchange time of 8 s windows ranged from 6.5 to
9.1 ms raw; scaled, the windows agreed within 4 %.
"""

from __future__ import annotations

import time
from typing import List

import numpy as np

#: Calibration-loop time on the reference host (its median over 2000
#: back-to-back repetitions there).
REF_S = 2.24e-3

_FFT_INPUT = np.exp(2j * np.pi * np.arange(4096) / 97)


def calibration_s() -> float:
    """Wall time of one pass of the fixed calibration loop."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(20000):
        acc += i * i % 7
    for _ in range(20):
        np.fft.fft(_FFT_INPUT)
    return time.perf_counter() - t0


class WallClock:
    """Unscaled wall time (the traced run's clock: it must not calibrate)."""

    calibrating_s = 0.0

    def scale(self, seconds: float) -> float:
        return seconds


class HostClock(WallClock):
    """Scales wall intervals to reference-host speed.

    Call :meth:`scale` right after each timed interval.  Once ``every_s``
    has passed since the last calibration it calibrates again, outside the
    interval, and scales the interval by the mean of the speed factors
    measured before and after it.  Otherwise it uses the latest factor.
    """

    def __init__(self, every_s: float = 0.05) -> None:
        self.every_s = every_s
        self.factor = REF_S / calibration_s()
        self.factors: List[float] = [self.factor]
        self._next = time.perf_counter() + every_s

    def scale(self, seconds: float) -> float:
        before = self.factor
        now = time.perf_counter()
        if now >= self._next:
            self.factor = REF_S / calibration_s()
            self.factors.append(self.factor)
            self.calibrating_s += time.perf_counter() - now
            self._next = time.perf_counter() + self.every_s
        return seconds * 0.5 * (before + self.factor)
