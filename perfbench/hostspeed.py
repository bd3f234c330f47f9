"""Host speed reference for the end-to-end timing.

On a shared host the same pass can take 20-40 % longer from one minute, or
one second, to the next.  While a pass runs, an interval timer interrupts it
every PERIOD seconds and runs a fixed reference kernel for SHARE of that
time.  The pass time, without the kernel's time, is then scaled to a host
where the kernel runs at REF_RATE units per second.  Host speed changes move
the kernel and the workload alike and cancel.  A change to ncgl cannot move
the kernel, which uses NumPy only.

The kernel mixes what ncgl spends its time on: Python-level loops over
small Hermitian eigensolves and matrix products, and one batched SVD.
"""

from __future__ import annotations

import signal
import time
from contextlib import contextmanager

import numpy as np

# kernel units per second on a shared 2-core x86 host (NumPy 2.4.6,
# OpenBLAS 0.3.31); it only sets the scale of the reported seconds
REF_RATE = 2500.0

# the kernel runs for SHARE * PERIOD seconds every PERIOD seconds
PERIOD = 0.1
SHARE = 0.1


class HostSpeed:
    def __init__(self):
        rng = np.random.default_rng(0)
        g = rng.standard_normal((8, 6, 6)) + 1j * rng.standard_normal((8, 6, 6))
        self._small = [m + m.conj().T for m in g]
        self._stack = (rng.standard_normal((8, 16, 16))
                       + 1j * rng.standard_normal((8, 16, 16)))
        self.units = 0
        self.seconds = 0.0

    def _unit(self) -> float:
        acc = 0.0
        for m in self._small:
            acc += float(np.linalg.eigvalsh(m)[0])
            acc += abs((m @ m)[0, 0])
        return acc + float(np.linalg.svd(self._stack, compute_uv=False)[0, 0])

    def sample(self, seconds: float) -> None:
        """Run whole kernel units for about `seconds` (at least one unit)."""
        start = time.perf_counter()
        while True:
            self._unit()
            self.units += 1
            elapsed = time.perf_counter() - start
            if elapsed >= seconds:
                break
        self.seconds += elapsed

    @contextmanager
    def interleaved(self):
        """Sample the host speed every PERIOD seconds while the block runs
        (main thread only; the handler runs between Python bytecodes)."""
        def tick(signum, frame):
            self.sample(SHARE * PERIOD)

        previous = signal.signal(signal.SIGALRM, tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def reset(self) -> None:
        self.units = 0
        self.seconds = 0.0

    def scale(self) -> float:
        """Measured kernel rate over REF_RATE: above 1 on a faster host."""
        return self.units / self.seconds / REF_RATE
