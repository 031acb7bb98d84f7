"""Machine-speed reference for the benchmark's timings.

The hosts this benchmark runs on are shared.  Over tens of seconds, the same
command's wall time drifts by half or more, and its CPU time drifts with it.
A median over one run cannot remove that drift.  A fixed kernel, timed just
before and just after a command, slows down with it.  So each command time
is scaled by ``REFERENCE_KERNEL_S`` over the mean of those two kernel times,
and then reads as seconds on a host where the kernel takes
``REFERENCE_KERNEL_S``.  Only commands in the benchmark's own process are
scaled: set-up probes run in fresh interpreters, and their times did not
follow a kernel timed in the benchmark's process.

The kernel does the kinds of work wflow does, without calling wflow:
numpy passes over node vectors of 256, 1024 and 16384 entries, banded
solves, and ``repr`` formatting of floats into CSV text.
"""

import time

import numpy as np
from scipy.linalg import solve_banded

# the kernel's time on an unloaded 2-core x86_64 host (numpy 2.4, scipy 1.17)
REFERENCE_KERNEL_S = 0.12


def kernel_seconds() -> float:
    """Wall time of one pass of the reference kernel."""
    t0 = time.perf_counter()
    for size, reps in ((256, 800), (1024, 400), (16384, 60)):
        x = np.linspace(1.0, 2.0, size + 1)
        for _ in range(reps):
            w = np.diff(x)
            mid = 0.5 * (x[:-1] + x[1:])
            float(np.sum(np.log(1.0 / w) * w)) + float(mid @ mid)
    ab = np.ones((3, 1024))
    ab[1] = 4.0
    rhs = np.ones(1024)
    for _ in range(200):
        solve_banded((1, 1), ab, rhs)
    "\n".join(f"{v!r},{v!r}" for v in np.linspace(0.0, 1.0, 60000).tolist())
    return time.perf_counter() - t0


class SpeedScale:
    """Scales timings by the kernel times measured around each of them."""

    def __init__(self) -> None:
        self.kernels: list[float] = []

    def mark(self) -> None:
        """Time the kernel now, as the 'before' of the next timing."""
        self.kernels.append(kernel_seconds())

    def scale(self, seconds: float) -> float:
        """Scale a timing that began after the last mark and ended just now."""
        self.mark()
        around = 0.5 * (self.kernels[-2] + self.kernels[-1])
        return seconds * REFERENCE_KERNEL_S / around