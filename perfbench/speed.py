"""Host-speed correction for wall-clock times.

On a shared 2-core Intel Xeon VM the same code changes speed by up to 2x for
seconds to minutes at a time, with no CPU steal recorded: a fixed numpy FFT
kernel took from 100 to 190 ms within one minute, and one workload at one
seed differed by 30% between runs minutes apart. Against that drift, plain
wall-clock times spread wider than any useful regression bound.

``SpeedProbe`` times a fixed kernel of the three kinds of work the program
does (numpy FFTs, small float32 matmuls with an elementwise op, interpreter
bytecode) every half second between ops, outside the op timings. A time
measured at instant t is multiplied by NOMINAL_S / (kernel time nearest t),
so it reads as the time on a host that runs the kernel in NOMINAL_S. The
kernel is benchmark code that no change to the program touches, so the
correction removes host drift and leaves the program's own speed-ups whole.
On the VM above it cut the spread of frames_per_s over six seeds from 0.17
to 0.03 (resynth) and from 0.20 to 0.05 (train); it tracks the program's
ops with a correlation of about 0.8, so part of the drift remains.
"""

from __future__ import annotations

import bisect
from time import perf_counter

import numpy as np

NOMINAL_S = 5.0e-3  # kernel time on the reference host in its usual state
EVERY_S = 0.5

_rng = np.random.default_rng(0)
_SIGNAL = _rng.normal(size=(64, 1024))
_ACTS = _rng.normal(size=(256, 64)).astype(np.float32)
_WEIGHTS = _rng.normal(size=(64, 64)).astype(np.float32)


def kernel_seconds() -> float:
    t0 = perf_counter()
    for _ in range(4):
        np.fft.irfft(np.fft.rfft(_SIGNAL, axis=1), n=1024, axis=1)
    for _ in range(40):
        np.tanh(_ACTS @ _WEIGHTS)
    total = 0
    for i in range(40000):
        total += i
    return perf_counter() - t0


class SpeedProbe:
    def __init__(self):
        self.at: list[float] = []  # sample instants
        self.kernel_s: list[float] = []
        self.spent = 0.0  # wall time the probe itself took
        self._last = float("-inf")

    def sample(self) -> None:
        t0 = perf_counter()
        self.at.append(t0)
        self.kernel_s.append(min(kernel_seconds(), kernel_seconds()))
        self._last = perf_counter()
        self.spent += self._last - t0

    def maybe_sample(self) -> None:
        if perf_counter() - self._last >= EVERY_S:
            self.sample()

    def factor(self, t: float) -> float:
        """NOMINAL_S over the kernel time of the sample nearest instant t."""
        i = bisect.bisect_left(self.at, t)
        if i == len(self.at) or (i > 0 and t - self.at[i - 1] < self.at[i] - t):
            i -= 1
        return NOMINAL_S / self.kernel_s[i]
