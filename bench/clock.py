"""Operation timing adjusted for the machine's speed drift.

On a shared host the speed of the virtual CPUs drifts by tens of percent
over minutes, with wall time equal to CPU time, so neither longer runs nor
CPU time remove it.  A fixed reference kernel (numpy complex arithmetic
like gftkit's evaluations, plus plain interpreter work) is timed right
before and right after every operation; the operation's time is scaled by
the nominal reference duration over the mean of those two.  The raw times
are kept and reported alongside.
"""

from __future__ import annotations

import time

import numpy as np

# the kernel's median duration on the 2-vCPU machine the benchmark was
# defined on; it only sets the scale of the adjusted times
REFERENCE_NOMINAL_S = 0.008

_RADII = np.linspace(0.05, 0.995, 23)
_POINTS = (_RADII[:, None] * np.exp(2j * np.pi * np.arange(720) / 720)[None, :]).ravel()


def reference_seconds() -> float:
    start = time.perf_counter()
    for _ in range(2):
        b = 1 + 0.5 * _POINTS
        s = np.exp(2.0 * np.log(b)) * 0.5 / b
        float(np.min((_POINTS * s).real))
    acc = 0
    for i in range(3000):
        acc += i
    return time.perf_counter() - start


class Stopwatch:
    """Times operations one after another, each between two reference timings.

    ``calibrated=False`` skips the reference kernel, for traced rounds,
    where it would land in the self time of the enclosing span; their
    ``adjusted()`` times are then the raw ones.
    """

    def __init__(self, calibrated: bool = True) -> None:
        self.calibrated = calibrated
        self.raw: list[float] = []
        self.refs: list[float] = [reference_seconds()] if calibrated else []

    def time(self, fn, *args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.raw.append(time.perf_counter() - start)
            if self.calibrated:
                self.refs.append(reference_seconds())

    def adjusted(self) -> list[float]:
        """Seconds each operation would take at the nominal reference speed."""
        if not self.calibrated:
            return list(self.raw)
        return [t * 2 * REFERENCE_NOMINAL_S / (before + after)
                for t, before, after in zip(self.raw, self.refs, self.refs[1:])]
