"""Calibration kernel: a fixed piece of pure-Python work timed next to tripos.

The machines this benchmark runs on are shared, and their speed drifts by a
third and more over tens of seconds.  The worker therefore times this kernel
at regular intervals between jobs, and every reported time is scaled by
``REFERENCE_S / (mean kernel time)``: seconds at the speed where the kernel
takes ``REFERENCE_S``.  The kernel does big-integer multiply-adds over lists,
the same kind of work as tripos' polynomial products and eliminations, and
never calls tripos, so a change to tripos cannot change its speed.  The
garbage collector is off while it runs, so a large tripos heap does not slow
it either.
"""

from __future__ import annotations

import gc
from time import perf_counter_ns

REFERENCE_S = 0.005  # one chunk on an uncontended 2-core Xeon, Python 3.11

_A = tuple(3 ** i for i in range(24))
_B = tuple(7 ** i for i in range(24))


def chunk() -> float:
    """Seconds taken by one fixed unit of work."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter_ns()
        for _ in range(80):
            out = [0] * (len(_A) + len(_B) - 1)
            for i, x in enumerate(_A):
                for j, y in enumerate(_B):
                    out[i + j] += x * y
        return (perf_counter_ns() - start) / 1e9
    finally:
        if enabled:
            gc.enable()
