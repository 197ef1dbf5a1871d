"""Host-speed correction for op and set-up times.

The benchmark's reference machine is a 2-core VM whose cores switch
between speed states for seconds at a time, because other tenants share
the host: the same ``sample-shots`` op took 22 ms in one state and 36 ms
in the other, process CPU time moved with wall time, and the share of a
run spent in each state differed from run to run by more than any
regression bound.  Longer runs do not average that out.

So every timed interval is bracketed by a fixed reference kernel, timed
right before and right after it, and scaled by ``REFERENCE_NS`` over the
mean of the two kernel times.  The kernel uses only Python and numpy, in
the mix ketsim's ops use (interpreted loops, small-array numpy calls,
string formatting and a small complex matmul), so it slows down with the
host as the ops do, and no change to ketsim can change its time.
``REFERENCE_NS`` is the kernel's median time on the reference machine in
its usual (slower) state, so corrected times read as milliseconds on
that machine.
"""
from __future__ import annotations

import time

import numpy as np

REFERENCE_NS = 1_400_000

_V = np.exp(1j * np.arange(32)) / np.sqrt(32)
_M = np.exp(1j * np.outer(np.arange(48), np.arange(48))) / np.sqrt(48)


def _kernel() -> int:
    acc = 0
    m = _M
    for i in range(60):
        a = np.asarray(_V)
        if not np.all(np.isfinite(a)):
            raise ValueError("reference vector is not finite")
        w = a.real ** 2 + a.imag ** 2
        c = np.cumsum(w / w.sum())
        acc += int(np.searchsorted(c, (i % 10) / 10, side="right"))
        acc += len(f"{float(c[i % 32])!r} {i} {acc}".split())
        if i % 10 == 0:
            m = _M @ m
    return acc


def kernel_ns() -> int:
    """Wall time of one run of the reference kernel."""
    start = time.perf_counter_ns()
    _kernel()
    return time.perf_counter_ns() - start


def corrected(elapsed_ns: float, before_ns: int, after_ns: int) -> float:
    """``elapsed_ns`` as it would read with the kernel at ``REFERENCE_NS``."""
    return elapsed_ns * REFERENCE_NS / ((before_ns + after_ns) / 2)


_kernel()  # first calls into numpy pay one-off costs
