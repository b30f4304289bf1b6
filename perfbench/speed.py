"""Speed kernels: fixed work that calls no galdesk code, timed between ops so
that every end-to-end time can be given at a reference speed of the host.

The benchmark was written on a 2-core VM of a shared host whose speed swings
in spells of seconds to minutes: the same op, and the same kernel, take up
to 1.7 times as long in a slow spell as in a fast one, with nothing else
running in the VM.  A run therefore times a kernel just before and just
after each op, and scales the op's time by the kernel's reference time over
the median of those kernel times.  The kernel calls no galdesk code, so the
scale follows the host but not a change in galdesk.

There are two kernels, because the layers do not slow alike: small numpy
calls made from the interpreter (`numpy`) slow most, pure interpreter
arithmetic (`python`) least.  Each workload uses the kernel whose times
tracked its own raw op times best across fast and slow spells
(workloads.SPEED_KERNEL).  A kernel's reference time is about its time in
a fast spell, so a scaled time reads about as the same op would there.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

_MATRIX = (np.arange(100, dtype=np.int64).reshape(10, 10) * 7 + 3) % 13


def numpy_kernel() -> float:
    """Seconds for 60 products of 10 x 10 matrices mod 13, each a numpy call
    from the interpreter, as in galdesk's eliminations and pairing loops."""
    t0 = time.perf_counter()
    a = _MATRIX
    for i in range(60):
        a = (a @ _MATRIX + i) % 13
    return time.perf_counter() - t0


def python_kernel() -> float:
    """Seconds for 6000 steps of integer arithmetic in the interpreter."""
    t0 = time.perf_counter()
    s = 0
    for i in range(6000):
        s = (s * 31 + i) % 1000003
    return time.perf_counter() - t0


KERNELS = {  # name: (kernel, its reference time in seconds)
    "numpy": (numpy_kernel, 0.25e-3),
    "python": (python_kernel, 0.5e-3),
}


class Speed:
    """Times one kernel in chunks; `scale(before, after)` is the factor that
    turns a time measured between two chunks into one at the reference speed."""

    def __init__(self, name: str):
        self.name = name
        self.kernel, self.reference_s = KERNELS[name]
        self.samples = 0

    def chunk(self, seconds: float) -> list[float]:
        """Run the kernel until `seconds` have gone by, and at least once."""
        out, spent = [], 0.0
        while not out or spent < seconds:
            out.append(self.kernel())
            spent += out[-1]
        self.samples += len(out)
        return out

    def scale(self, before: list[float], after: list[float]) -> float:
        return self.reference_s / statistics.median(before + after)
